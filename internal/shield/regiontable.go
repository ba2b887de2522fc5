package shield

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"shef/internal/axi"
	"shef/internal/mem"
	"shef/internal/perf"
)

// This file is the virtual region layer: the Shield's regions are no
// longer a fixed array stamped out at provisioning time but rows in a
// RegionTable that tenants create and destroy at runtime. Three pieces
// make thousands of zones affordable on one device:
//
//   - a direct-mapped lookup cache on the burst-decode path (the TLB of
//     this address space), so per-access resolution is O(1) no matter how
//     many zones exist;
//   - lazy engine sets: a zone holds no worker pool, buffer lines, or
//     pooled scratch until its first access materialises them, and
//     reclamation hands them back, so idle tenants cost only a descriptor;
//   - per-tenant quota accounting (mem.Accountant) charged at creation
//     for the zone's DRAM footprint and worst-case OCM metadata, so one
//     tenant cannot squat on the device.
//
// The static Config.Regions path is a thin shim over this layer: a
// provisioning resets the table and inserts each configured region as an
// eagerly-materialised zone owned by the session tenant, preserving the
// region IDs, tag layout, and DRAM-share accounting of the fixed-array
// design bit for bit.

// vRegion is one protection zone: the descriptor half lives in the table
// for the lifetime of the zone, the engine-set half comes and goes with
// materialisation.
type vRegion struct {
	cfg    RegionConfig
	id     uint32
	tagOff uint64
	// dramBytes/ocmBytes are the quota charges held from CreateRegion to
	// DestroyRegion: data plus tag shadow, and worst-case on-chip
	// metadata (buffer, counters, valid bits). The charge is a
	// reservation — reclaiming the engine set returns real OCM to the
	// device pool but keeps the tenant's budget held, so a reclaimed
	// zone can always re-materialise.
	dramBytes uint64
	ocmBytes  uint64
	// set is the lazily-materialised engine set (nil while idle).
	set atomic.Pointer[engineSet]
	// Durable metadata preserved across an idle reclaim: the freshness
	// counters and valid bits stay resident on-chip (metaOCM bytes still
	// charged to the device pool) so the zone's flushed data survives the
	// engine set and the next materialisation can verify it.
	savedCounters []uint32
	savedInit     []bool
	metaOCM       int
	// share is the channel's materialised-set counter; the engine set
	// reads it on every charge so DRAM contention follows who is actually
	// live on the channel, not who merely holds a descriptor.
	share *atomic.Int64
}

func (r *vRegion) key() string { return r.cfg.Tenant + "\x00" + r.cfg.Name }

// end returns the first address past the zone.
func (r *vRegion) end() uint64 { return r.cfg.Base + r.cfg.Size }

// lookupEntry is one lookup-cache slot payload: the resolved zone and the
// epoch it was installed under. Entries are immutable once published.
type lookupEntry struct {
	base, end uint64
	epoch     uint64
	r         *vRegion
}

// lookupCache is the burst decoder's region TLB: direct-mapped, indexed
// by page number, invalidated wholesale by bumping the epoch (the
// shootdown a DestroyRegion performs). Slots are atomic.Pointers so the
// hit path is lock-free and allocation-free.
type lookupCache struct {
	slots [lookupEntries]atomic.Pointer[lookupEntry]
}

// The lookup cache's geometry and cost. lookupEntries direct-mapped slots
// each cover one lookupPageBytes granule, so zones smaller than a page
// share slots and streaming access within a zone reuses one entry; both
// are powers of two, so the slot index is a shift and a mask. A hit is a
// CAM/BRAM probe pipelined with burst decode; a miss walks the region
// table (a binary search over base-sorted zone descriptors in on-chip
// RAM) and refills the entry.
const (
	lookupEntries    = 1024
	lookupPageBytes  = 4096
	lookupHitCycles  = 1
	lookupMissCycles = 40
)

// lookupCycles is the simulated burst-decode cost of region resolution.
func lookupCycles(hits, misses uint64) uint64 {
	return hits*lookupHitCycles + misses*lookupMissCycles
}

func (c *lookupCache) slot(addr uint64) *atomic.Pointer[lookupEntry] {
	return &c.slots[addr/lookupPageBytes%lookupEntries]
}

// RegionTable owns the session's protection zones. All structural
// mutation (create/destroy/reset) happens under mu; the data path reads
// through the lookup cache and only falls back to mu.RLock on a miss.
type RegionTable struct {
	mu sync.RWMutex
	// byKey indexes zones by (tenant, name); sorted holds the same zones
	// ordered by base address for the binary-search slow path and for
	// deterministic iteration.
	byKey  map[string]*vRegion
	sorted []*vRegion
	// channels counts materialised engine sets per off-chip channel;
	// vRegion.share points into this map.
	channels map[int]*atomic.Int64
	acct     *mem.Accountant
	nextID   uint32
	// Tag-shadow allocator: static regions occupy [tagBase, tagCursor)
	// exactly as the fixed-array design laid them out; dynamic zones
	// carve from the cursor with an exact-fit free list so create/destroy
	// churn does not leak tag space.
	tagBase   uint64
	tagCursor uint64
	tagFree   map[uint64][]uint64 // span size -> free offsets

	cache *lookupCache
	// epoch versions the lookup cache: destroy/reset bump it, instantly
	// invalidating every installed entry.
	epoch atomic.Uint64
	// hits/misses are the deterministic resolution counters the sim cost
	// model charges (lookupCycles).
	hits, misses atomic.Uint64
}

func newRegionTable(tagBase uint64, acct *mem.Accountant) *RegionTable {
	return &RegionTable{
		byKey:     make(map[string]*vRegion),
		channels:  make(map[int]*atomic.Int64),
		acct:      acct,
		tagBase:   tagBase,
		tagCursor: tagBase,
		tagFree:   make(map[uint64][]uint64),
		cache:     new(lookupCache),
	}
}

// channelCounter returns (creating if needed) the materialised-set
// counter for an off-chip channel. Callers hold t.mu.
func (t *RegionTable) channelCounter(ch int) *atomic.Int64 {
	c, ok := t.channels[ch]
	if !ok {
		c = new(atomic.Int64)
		t.channels[ch] = c
	}
	return c
}

// lookup resolves an address to its zone, counting a cache hit or miss.
// The hit path is lock-free and does not allocate.
func (t *RegionTable) lookup(addr uint64) *vRegion {
	slot := t.cache.slot(addr)
	epoch := t.epoch.Load()
	if e := slot.Load(); e != nil && e.epoch == epoch && addr >= e.base && addr < e.end {
		t.hits.Add(1)
		return e.r
	}
	t.misses.Add(1)
	t.mu.RLock()
	r := t.findLocked(addr)
	t.mu.RUnlock()
	if r == nil {
		return nil
	}
	slot.Store(&lookupEntry{base: r.cfg.Base, end: r.end(), epoch: epoch, r: r})
	return r
}

// findLocked binary-searches the base-sorted zones. Callers hold t.mu.
func (t *RegionTable) findLocked(addr uint64) *vRegion {
	i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i].cfg.Base > addr })
	if i == 0 {
		return nil
	}
	if r := t.sorted[i-1]; addr < r.end() {
		return r
	}
	return nil
}

// named resolves a (tenant, name) pair to its zone.
func (t *RegionTable) named(tenant, name string) *vRegion {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.byKey[tenant+"\x00"+name]
}

// snapshot returns the zones in base order. t.sorted is copy-on-write
// (insert and remove publish a fresh slice), so the returned slice is
// immutable and handing it out allocation-free is safe — the data path
// (Flush, InvalidateClean) walks it per call. Callers must not mutate.
func (t *RegionTable) snapshot() []*vRegion {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sorted
}

// lookupStats reads the resolution counters.
func (t *RegionTable) lookupStats() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}

func (t *RegionTable) resetLookupStats() {
	t.hits.Store(0)
	t.misses.Store(0)
}

// regionQuotaFootprint computes the quota charges of a zone: DRAM is the
// data plus its tag shadow; OCM is the worst-case metadata an engine set
// will pin on-chip (buffer lines, freshness counters, valid bits) —
// mirroring newSealedSet's charges exactly so a zone that passed
// admission cannot fail materialisation on quota.
func regionQuotaFootprint(rc RegionConfig) (dram, ocm uint64) {
	chunks := uint64(rc.Chunks())
	dram = rc.Size + chunks*TagSize
	ocm = uint64(rc.bufferLines()*rc.ChunkSize) + (chunks+7)/8
	if rc.Freshness {
		ocm += chunks * CounterSize
	}
	return dram, ocm
}

// tagAlloc carves a tag-shadow span, reusing an exact-fit freed span
// when one exists.
func (t *RegionTable) tagAlloc(size uint64) uint64 {
	if free := t.tagFree[size]; len(free) > 0 {
		off := free[len(free)-1]
		t.tagFree[size] = free[:len(free)-1]
		return off
	}
	off := t.tagCursor
	t.tagCursor += size
	return off
}

func (t *RegionTable) tagRelease(off, size uint64) {
	if size == 0 {
		return
	}
	t.tagFree[size] = append(t.tagFree[size], off)
}

// insert validates rc against the live table and adds it as an idle
// zone, charging the tenant's quota. Callers hold t.mu.
func (t *RegionTable) insertLocked(rc RegionConfig, arenaEnd uint64) (*vRegion, error) {
	if rc.Name == "" {
		return nil, fmt.Errorf("shield: tenant %q: region needs a name", rc.Tenant)
	}
	if err := rc.validate(); err != nil {
		return nil, err
	}
	key := rc.Tenant + "\x00" + rc.Name
	if _, dup := t.byKey[key]; dup {
		return nil, fmt.Errorf("shield: tenant %q: region %q already exists", rc.Tenant, rc.Name)
	}
	if end := rc.Base + rc.Size; end > arenaEnd {
		return nil, fmt.Errorf("shield: tenant %q: region %q [%#x,+%d) exceeds the region arena (ends %#x)",
			rc.Tenant, rc.Name, rc.Base, rc.Size, arenaEnd)
	}
	// Overlap check against the base-sorted neighbours only.
	i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i].cfg.Base > rc.Base })
	if i > 0 {
		if prev := t.sorted[i-1]; prev.end() > rc.Base {
			return nil, fmt.Errorf("shield: tenant %q: region %q overlaps %q (tenant %q)",
				rc.Tenant, rc.Name, prev.cfg.Name, prev.cfg.Tenant)
		}
	}
	if i < len(t.sorted) {
		if next := t.sorted[i]; rc.Base+rc.Size > next.cfg.Base {
			return nil, fmt.Errorf("shield: tenant %q: region %q overlaps %q (tenant %q)",
				rc.Tenant, rc.Name, next.cfg.Name, next.cfg.Tenant)
		}
	}
	dram, ocm := regionQuotaFootprint(rc)
	if err := t.acct.Charge(rc.Tenant, dram, ocm); err != nil {
		return nil, fmt.Errorf("shield: tenant %q: region %q rejected: %w", rc.Tenant, rc.Name, err)
	}
	t.nextID++
	r := &vRegion{
		cfg:       rc,
		id:        t.nextID,
		tagOff:    t.tagAlloc(uint64(rc.Chunks() * TagSize)),
		dramBytes: dram,
		ocmBytes:  ocm,
		share:     t.channelCounter(rc.Channel),
	}
	t.byKey[key] = r
	// Copy-on-write: publish a fresh sorted slice so snapshot() can hand
	// out the old one without copying.
	ns := make([]*vRegion, len(t.sorted)+1)
	copy(ns, t.sorted[:i])
	ns[i] = r
	copy(ns[i+1:], t.sorted[i:])
	t.sorted = ns
	return r, nil
}

// create validates and inserts a new idle zone.
func (t *RegionTable) create(rc RegionConfig, arenaEnd uint64) (*vRegion, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(rc, arenaEnd)
}

// destroy tears down a zone: the engine set is retired with dirty lines
// discarded (destruction is erasure), the quota charge returns to the
// tenant, and the lookup cache is shot down. Callers must have quiesced
// the data path (Shield.mu write side).
func (t *RegionTable) destroy(tenant, name string, ocm *mem.OCM) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.byKey[tenant+"\x00"+name]
	if r == nil {
		return fmt.Errorf("shield: tenant %q: unknown region %q", tenantLabel(tenant), name)
	}
	_ = t.reclaimLocked(r, ocm, false)
	t.removeLocked(r)
	return nil
}

// reclaim retires an idle zone's engine set after writing back its dirty
// lines, keeping the descriptor and quota reservation. Callers must have
// quiesced the data path.
func (t *RegionTable) reclaim(r *vRegion, ocm *mem.OCM) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reclaimLocked(r, ocm, true)
}

// releaseAll retires every zone without flushing — the session handover
// of a re-provisioning — returning all on-chip memory and quota charges.
func (t *RegionTable) releaseAll(ocm *mem.OCM) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.sorted {
		_ = t.reclaimLocked(r, ocm, false)
		t.acct.Release(r.cfg.Tenant, r.dramBytes, r.ocmBytes)
	}
	t.byKey = make(map[string]*vRegion)
	t.sorted = nil
	t.epoch.Add(1)
}

// materialize builds the zone's engine set on first use. Callers do NOT
// hold t.mu.
func (t *RegionTable) materialize(r *vRegion, dek []byte, port axi.MemoryPort,
	ocm *mem.OCM, params perf.Params) (*engineSet, error) {

	t.mu.Lock()
	defer t.mu.Unlock()
	if set := r.set.Load(); set != nil { // lost the race: someone built it
		return set, nil
	}
	set, err := newSealedSet(r.cfg, r.id, dek, r.tagOff, port, ocm, params)
	if err != nil {
		return nil, fmt.Errorf("shield: tenant %q: region %q: %w", r.cfg.Tenant, r.cfg.Name, err)
	}
	if r.metaOCM > 0 {
		// A reclaim kept the durable metadata resident (and charged);
		// newSealedSet just charged it again, so return the stashed share
		// and hand the preserved state back to the set.
		ocm.Free(r.metaOCM)
		set.adoptMeta(r.savedCounters, r.savedInit)
		r.savedCounters, r.savedInit, r.metaOCM = nil, nil, 0
	}
	set.share = r.share
	r.share.Add(1)
	r.set.Store(set)
	return set, nil
}

// reclaimLocked retires a zone's engine set. An idle reclaim (flush
// true) writes dirty lines back and keeps the durable metadata resident
// so the zone's data survives; a destroy (flush false) discards
// everything — teardown is erasure. Callers hold t.mu and must have
// quiesced the data path.
func (t *RegionTable) reclaimLocked(r *vRegion, ocm *mem.OCM, flush bool) error {
	set := r.set.Load()
	if set == nil {
		if !flush && r.metaOCM > 0 {
			// Destroying a zone reclaimed earlier: drop its resident
			// metadata too.
			ocm.Free(r.metaOCM)
			r.savedCounters, r.savedInit, r.metaOCM = nil, nil, 0
		}
		return nil
	}
	var err error
	if flush {
		err = set.flush()
	}
	r.set.Store(nil)
	r.share.Add(-1)
	if flush {
		r.savedCounters, r.savedInit, r.metaOCM = set.detachMeta(ocm)
	} else {
		set.releaseOCM(ocm)
	}
	return err
}

// removeLocked unlinks a zone and returns its charges. Callers hold t.mu
// and have already reclaimed the engine set.
func (t *RegionTable) removeLocked(r *vRegion) {
	delete(t.byKey, r.key())
	for i, s := range t.sorted {
		if s == r {
			// Copy-on-write, as in insertLocked.
			ns := make([]*vRegion, 0, len(t.sorted)-1)
			ns = append(ns, t.sorted[:i]...)
			t.sorted = append(ns, t.sorted[i+1:]...)
			break
		}
	}
	t.tagRelease(r.tagOff, uint64(r.cfg.Chunks()*TagSize))
	t.acct.Release(r.cfg.Tenant, r.dramBytes, r.ocmBytes)
	t.epoch.Add(1) // shootdown: every cached translation is now stale
}

// TenantZoneStats is one zone's row in a tenant report.
type TenantZoneStats struct {
	Tenant string
	Name   string
	Base   uint64
	Size   uint64
	// Live reports whether the zone currently holds a materialised
	// engine set (idle zones hold only a descriptor).
	Live bool
}

// zoneStats lists all zones in base order.
func (t *RegionTable) zoneStats() []TenantZoneStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]TenantZoneStats, 0, len(t.sorted))
	for _, r := range t.sorted {
		out = append(out, TenantZoneStats{
			Tenant: r.cfg.Tenant,
			Name:   r.cfg.Name,
			Base:   r.cfg.Base,
			Size:   r.cfg.Size,
			Live:   r.set.Load() != nil,
		})
	}
	return out
}
