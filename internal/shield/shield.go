package shield

import (
	"errors"
	"fmt"
	"sync"

	"shef/internal/axi"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/perf"
)

// Shield is the runtime security perimeter around one accelerator. It owns
// the private Shield Encryption Key the IP Vendor embedded in the
// bitstream, receives the Data Owner's Data Encryption Key via a Load Key,
// and from then on presents plaintext AXI interfaces to the accelerator
// while everything that leaves it — device memory and host register
// traffic — is encrypted and authenticated (paper §3 step 11, §5.1).
// A Shield is safe for concurrent use: the data path takes a read lock on
// the session state and per-engine-set locks, so accelerator ports driving
// different regions proceed in parallel (the hardware's per-set
// parallelism), while ProvisionLoadKey — a whole-session swap — excludes
// all traffic.
type Shield struct {
	cfg    Config
	params perf.Params
	priv   *schnorr.PrivateKey

	port axi.MemoryPort
	ocm  *mem.OCM

	// provMu serialises whole provisionings: two concurrent key rotations
	// would otherwise both build engine-set fleets (double-charging the
	// OCM pool) and the loser's fleet would leak its on-chip budget.
	provMu sync.Mutex

	// mu guards the session state below it: ProvisionLoadKey replaces the
	// region table and register file wholesale (key rotation), so the data
	// path holds the read side while a reprovision — or a zone teardown,
	// which must also quiesce in-flight bursts — holds the write side.
	mu          sync.RWMutex
	provisioned bool
	table       *RegionTable
	regs        *RegisterFile
	initExtra   uint64
	// dek is the armed Data Encryption Key, retained so runtime-created
	// zones and lazy materialisation can derive per-region keys after
	// provisioning.
	dek []byte

	// acct meters per-tenant DRAM and OCM charges; it outlives
	// provisionings so quota overrides survive key rotation.
	acct *mem.Accountant

	tagBase uint64
}

// tenantLabel renders a tenant identity for error text; the empty
// single-tenant session reads as "default".
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// New builds a Shield around cfg. priv is the private Shield Encryption
// Key (embedded in the bitstream by the IP Vendor); port is the Shell's
// AXI4 memory interface; ocm is the device on-chip memory pool that
// buffers and counters are charged against.
//
// The Shield is inert until ProvisionLoadKey delivers the Data Encryption
// Key: before that, all accelerator traffic is refused.
func New(cfg Config, priv *schnorr.PrivateKey, port axi.MemoryPort, ocm *mem.OCM, params perf.Params) (*Shield, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if priv == nil {
		return nil, errors.New("shield: missing Shield Encryption Key")
	}
	maxEnd := cfg.ArenaEnd
	for _, r := range cfg.Regions {
		if end := r.Base + r.Size; end > maxEnd {
			maxEnd = end
		}
	}
	const tagAlign = 4096
	s := &Shield{
		cfg:     cfg,
		params:  params,
		priv:    priv,
		port:    port,
		ocm:     ocm,
		acct:    mem.NewAccountant(cfg.DefaultTenantQuota),
		tagBase: (maxEnd + tagAlign - 1) / tagAlign * tagAlign,
	}
	return s, nil
}

// PublicKey returns the public Shield Encryption Key, which the IP Vendor
// publishes to Data Owners during attestation (paper Figure 3, step 7).
func (s *Shield) PublicKey() *schnorr.PublicKey { return &s.priv.PublicKey }

// ProvisionLoadKey decrypts the Load Key into the Data Encryption Key and
// arms the Shield: engine sets and the register file come alive with keys
// derived from the DEK. A second provisioning replaces all session state,
// which is how a new Data Owner session rotates keys: the old session's
// logic is cleared first — in-flight bursts drain, its on-chip budget
// returns to the pool — and then the new session loads. A load that fails
// midway leaves the Shield unprovisioned (the fabric was already
// cleared), refusing service until a successful provisioning.
func (s *Shield) ProvisionLoadKey(lk *keywrap.Wrapped) error {
	s.provMu.Lock()
	defer s.provMu.Unlock()
	dek, err := keywrap.Unwrap(s.priv, lk)
	if err != nil {
		return fmt.Errorf("shield: load key rejected: %w", err)
	}
	if len(dek) < 16 {
		return errors.New("shield: data encryption key too short")
	}
	// Clear the previous session. The write lock waits out every in-flight
	// burst (they hold the read side for their full duration), so this is
	// a quiescent point. Runtime-created zones die with the session: a key
	// rotation is a whole-device handover.
	s.mu.Lock()
	old := s.table
	s.table, s.regs, s.provisioned = nil, nil, false
	s.dek = nil
	s.mu.Unlock()
	if old != nil {
		old.releaseAll(s.ocm)
	}

	// The static Config.Regions are a compatibility shim over the virtual
	// layer: each becomes a session-tenant zone, inserted in config order
	// (preserving the fixed-array design's region IDs and tag layout) and
	// materialised eagerly so provisioning fails up front, DRAM shares
	// match the static counts, and the first burst pays no build cost.
	table := newRegionTable(s.tagBase, s.acct)
	fail := func(err error) error {
		table.releaseAll(s.ocm)
		return err
	}
	for _, rc := range s.cfg.Regions {
		rc.Tenant = s.cfg.Tenant
		r, err := table.create(rc, s.tagBase)
		if err != nil {
			return fail(err)
		}
		if _, err := table.materialize(r, dek, s.port, s.ocm, s.params); err != nil {
			return fail(err)
		}
	}
	regs, err := newRegisterFile(s.cfg, dek, s.params)
	if err != nil {
		return fail(err)
	}
	s.mu.Lock()
	s.table = table
	s.regs = regs
	s.dek = dek
	s.provisioned = true
	s.initExtra = s.params.ShieldInitCycles
	s.mu.Unlock()
	return nil
}

// CreateRegion carves a new protection zone at runtime, owned by
// rc.Tenant and charged against that tenant's quota (a *mem.QuotaError —
// errors.Is(err, mem.ErrQuotaExceeded) — reports an over-budget tenant).
// The zone must fit below the tag shadow: static regions plus
// Config.ArenaEnd bound the usable address space. The zone starts idle —
// no engine set, worker pool, or on-chip memory — and materialises on
// first access.
func (s *Shield) CreateRegion(rc RegionConfig) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.provisioned {
		return errors.New("shield: not provisioned")
	}
	_, err := s.table.create(rc, s.tagBase)
	return err
}

// DestroyRegion tears down a tenant's zone: traffic quiesces, the engine
// set (if materialised) is retired with its dirty lines discarded — zone
// destruction is erasure, the ciphertext keys die with the descriptor —
// and the tenant's quota charge is returned. Cached translations for the
// zone are shot down.
func (s *Shield) DestroyRegion(tenant, region string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.provisioned {
		return errors.New("shield: not provisioned")
	}
	return s.table.destroy(tenant, region, s.ocm)
}

// ReclaimRegion retires an idle zone's engine set — dirty lines are
// written back, then the worker pool, buffer, and counters return to the
// device's on-chip pool — while the zone descriptor and its quota
// reservation stay, so the next access re-materialises transparently.
// Serving tiers call it when a tenant goes quiet.
func (s *Shield) ReclaimRegion(tenant, region string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.provisioned {
		return errors.New("shield: not provisioned")
	}
	r := s.table.named(tenant, region)
	if r == nil {
		return fmt.Errorf("shield: tenant %q: unknown region %q", tenantLabel(tenant), region)
	}
	return s.table.reclaim(r, s.ocm)
}

// SetTenantQuota overrides the default per-tenant quota for one tenant.
func (s *Shield) SetTenantQuota(tenant string, q mem.Quota) { s.acct.SetQuota(tenant, q) }

// TenantUsage reports a tenant's current quota charges.
func (s *Shield) TenantUsage(tenant string) mem.Usage { return s.acct.UsageFor(tenant) }

// Tenants lists tenants holding live zones, sorted.
func (s *Shield) Tenants() []string { return s.acct.Tenants() }

// Zones lists all protection zones in base order, flagging which
// currently hold a materialised engine set.
func (s *Shield) Zones() []TenantZoneStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.provisioned {
		return nil
	}
	return s.table.zoneStats()
}

// Provisioned reports whether a Data Encryption Key is armed.
func (s *Shield) Provisioned() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.provisioned
}

// Registers exposes the secured register file (nil before provisioning).
func (s *Shield) Registers() *RegisterFile {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.regs
}

// setFor routes an address to its engine set through the region-lookup
// cache: a hit is a lock-free, allocation-free O(1) probe regardless of
// zone count; a miss walks the table and refills the cache. Idle zones
// materialise their engine set here, on first touch. Callers hold s.mu
// (either side); the returned set additionally serialises on its own
// mutex.
func (s *Shield) setFor(addr uint64) (*engineSet, error) {
	if !s.provisioned {
		return nil, errors.New("shield: not provisioned with a Data Encryption Key")
	}
	r := s.table.lookup(addr)
	if r == nil {
		return nil, fmt.Errorf("shield: address %#x outside all configured regions (isolation violation)", addr)
	}
	if set := r.set.Load(); set != nil {
		return set, nil
	}
	return s.table.materialize(r, s.dek, s.port, s.ocm, s.params)
}

// ReadBurst implements axi.MemoryPort for the accelerator: a plaintext
// view of shielded memory. Bursts may span chunks but not regions. The
// returned cycle count is the engine-set busy time the access cost
// (on-chip hits plus any chunk fetch/verify pipeline time).
//
// The session read lock is held for the whole access, so a concurrent
// ProvisionLoadKey cannot swap the engine sets mid-burst.
func (s *Shield) ReadBurst(addr uint64, buf []byte) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.setFor(addr)
	if err != nil {
		return 0, err
	}
	if addr+uint64(len(buf)) > set.cfg.Base+set.cfg.Size {
		return 0, fmt.Errorf("shield: burst [%#x,+%d) crosses region %q boundary", addr, len(buf), set.cfg.Name)
	}
	return set.read(addr, buf)
}

// WriteBurst implements axi.MemoryPort for the accelerator. The returned
// cycle count is the engine-set busy time the access cost.
func (s *Shield) WriteBurst(addr uint64, data []byte) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.setFor(addr)
	if err != nil {
		return 0, err
	}
	if addr+uint64(len(data)) > set.cfg.Base+set.cfg.Size {
		return 0, fmt.Errorf("shield: burst [%#x,+%d) crosses region %q boundary", addr, len(data), set.cfg.Name)
	}
	return set.write(addr, data)
}

// Flush writes back all dirty buffer lines. Callers flush at kernel
// completion so results reach (encrypted) DRAM before the host DMA reads
// them out.
//
// Engine sets flush on separate goroutines — the hardware's per-set
// parallelism made real — so wall-clock time follows the performance
// model's max-across-sets rather than the sum. Every set completes even
// if one fails (no region is left half-written); the per-set errors are
// joined.
func (s *Shield) Flush() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.provisioned {
		return errors.New("shield: not provisioned")
	}
	// Only materialised sets hold dirty lines; idle zones have nothing to
	// write back. The single-live-set case — every Real flush benchmark,
	// and any single-region session — completes without allocating.
	zones := s.table.snapshot()
	var only *engineSet
	live := 0
	for _, r := range zones {
		if set := r.set.Load(); set != nil {
			only = set
			live++
		}
	}
	switch live {
	case 0:
		return nil
	case 1:
		return only.flush()
	}
	sets := make([]*engineSet, 0, live)
	for _, r := range zones {
		if set := r.set.Load(); set != nil {
			sets = append(sets, set)
		}
	}
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i, set := range sets {
		wg.Add(1)
		go func(i int, set *engineSet) {
			defer wg.Done()
			errs[i] = set.flush()
		}(i, set)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close retires every engine set's seal/open worker goroutines, so a
// Shield that is done with leaves none behind. A later access starts
// them again.
func (s *Shield) Close() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.table == nil {
		return
	}
	for _, r := range s.table.snapshot() {
		if set := r.set.Load(); set != nil {
			set.stopWorkers()
		}
	}
}

// InvalidateClean drops clean buffer lines (used by tests to force
// re-fetch from DRAM and exercise the integrity path).
func (s *Shield) InvalidateClean() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.provisioned {
		return
	}
	for _, r := range s.table.snapshot() {
		if set := r.set.Load(); set != nil {
			set.invalidateClean()
		}
	}
}

// namedSet routes a tenant's region name to its engine set,
// materialising an idle zone on the way. Callers hold s.mu.
func (s *Shield) namedSet(tenant, region string) (*engineSet, error) {
	if !s.provisioned {
		return nil, errors.New("shield: not provisioned")
	}
	r := s.table.named(tenant, region)
	if r == nil {
		return nil, fmt.Errorf("shield: tenant %q: unknown region %q", tenantLabel(tenant), region)
	}
	if set := r.set.Load(); set != nil {
		return set, nil
	}
	return s.table.materialize(r, s.dek, s.port, s.ocm, s.params)
}

// FlushRegion writes back the dirty buffer lines of one region only.
// Serving paths that stage traffic through a scratch region (the SDP
// tls window) use it so a staging flush does not pay a fan-out over —
// or disturb the write-back schedule of — every other engine set.
func (s *Shield) FlushRegion(region string) error {
	return s.FlushTenantRegion(s.cfg.Tenant, region)
}

// FlushTenantRegion is FlushRegion for a runtime-created zone: the flush
// is keyed by the owning tenant, so two tenants may both name a region
// "store" without aliasing.
func (s *Shield) FlushTenantRegion(tenant, region string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, err := s.namedSet(tenant, region)
	if err != nil {
		return err
	}
	return set.flush()
}

// RegionStats is the per-engine-set activity report.
type RegionStats struct {
	Name    string
	Channel int
	// Hits counts chunk accesses served from the on-chip buffer
	// (including the access that populated the line); Misses counts
	// demand fetches and zero fills.
	Hits, Misses          uint64
	Evictions, Writebacks uint64
	// BatchedWritebacks is the subset of Writebacks that travelled in
	// multi-chunk pipelined store windows (flush and bulk-eviction
	// batching) under the overlapped accounting; the remainder paid the
	// chunked per-chunk charge.
	BatchedWritebacks uint64
	// Streamed counts every chunk moved by the pipelined
	// ReadStream/WriteStream path — fetched from DRAM, served from a
	// resident line, or zero-filled — and StreamWindows counts the
	// pipeline windows those chunks travelled in.
	Streamed, StreamWindows uint64
	// Prefetched counts chunks the adaptive sequential prefetcher fetched
	// ahead of demand; PrefetchHits counts prefetched lines that later
	// served a demand access (each line counted once).
	Prefetched, PrefetchHits uint64
	BusyCycles               uint64
	DRAMCycles               uint64
}

// RegionLookupStats is the burst decoder's region-resolution activity:
// lookup-cache hits and misses, and the simulated cycles they cost (a
// probe per hit, a region-table walk per miss). The counts are
// deterministic for a deterministic access sequence, which is what lets
// benchtab gate lookup overhead as a sim-* metric.
type RegionLookupStats struct {
	Hits, Misses uint64
	Cycles       uint64
}

// Report summarises simulated cost since provisioning.
type Report struct {
	Regions []RegionStats
	// RegisterCycles is time spent on secured AXI4-Lite traffic.
	RegisterCycles uint64
	// InitCycles is the one-time arming cost.
	InitCycles uint64
	// Lookup is the region-resolution cost on the burst-decode path.
	Lookup RegionLookupStats
}

// MemoryCycles is the simulated memory-path time: engine sets run in
// parallel, bounded below by the bus occupancy of the busiest off-chip
// channel (regions on different channels do not contend).
func (r Report) MemoryCycles() uint64 {
	var maxBusy uint64
	perChannel := make(map[int]uint64)
	for _, rs := range r.Regions {
		if rs.BusyCycles > maxBusy {
			maxBusy = rs.BusyCycles
		}
		perChannel[rs.Channel] += rs.DRAMCycles
	}
	best := maxBusy
	for _, dram := range perChannel {
		if dram > best {
			best = dram
		}
	}
	return best
}

// TotalCycles includes register traffic, region resolution, and
// initialisation.
func (r Report) TotalCycles() uint64 {
	return r.MemoryCycles() + r.RegisterCycles + r.InitCycles + r.Lookup.Cycles
}

// Report captures current counters.
func (s *Shield) Report() Report {
	s.mu.RLock()
	table, regs, initExtra := s.table, s.regs, s.initExtra
	s.mu.RUnlock()
	rep := Report{InitCycles: initExtra}
	if table != nil {
		for _, r := range table.snapshot() {
			if set := r.set.Load(); set != nil {
				rep.Regions = append(rep.Regions, set.stats())
			}
		}
		hits, misses := table.lookupStats()
		rep.Lookup = RegionLookupStats{
			Hits:   hits,
			Misses: misses,
			Cycles: lookupCycles(hits, misses),
		}
	}
	if regs != nil {
		rep.RegisterCycles = regs.cyclesSnapshot()
	}
	return rep
}

// ResetStats zeroes activity counters (keeps keys and buffer contents).
func (s *Shield) ResetStats() {
	s.mu.Lock()
	table, regs := s.table, s.regs
	s.initExtra = 0
	s.mu.Unlock()
	if table != nil {
		for _, r := range table.snapshot() {
			if set := r.set.Load(); set != nil {
				set.resetStats()
			}
		}
		table.resetLookupStats()
	}
	if regs != nil {
		regs.resetCycles()
	}
}

// Config returns the Shield's configuration.
func (s *Shield) Config() Config { return s.cfg }
