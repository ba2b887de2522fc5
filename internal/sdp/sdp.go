// Package sdp implements the paper's end-to-end case study (§6.2.3):
// SDP-style GDPR-compliant storage built from smart Storage Nodes (SNs)
// with FPGA TEEs and a centralised Controller Node (CN).
//
// Each Storage Node is a key-value store engine over the Shield. Two
// identical engine sets secure its traffic — one facing the storage
// device, one facing the application's TLS session — so every file byte
// crosses the Shield twice: decrypted from storage, re-encrypted for the
// application. The Controller Node attests each SN before provisioning
// the user-key database into it.
package sdp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/engine"
	"shef/internal/crypto/kdf"
	"shef/internal/crypto/keywrap"
	"shef/internal/crypto/modp"
	"shef/internal/crypto/schnorr"
	"shef/internal/mem"
	"shef/internal/oram"
	"shef/internal/perf"
	"shef/internal/shield"
)

// NodeConfig sizes a Storage Node and selects its Shield engine
// configuration — the dimension swept by the paper's Table 2.
type NodeConfig struct {
	// Slots is the number of fixed-size file slots.
	Slots int
	// SlotBytes is the file slot size (1 MB in the paper's measurement).
	SlotBytes int
	// AuthBlock is the authentication block size (4 KB in the paper).
	AuthBlock int
	// Engines is the AES engine count per engine set.
	Engines int
	// SBox is the per-engine S-box parallelism.
	SBox aesx.SBoxParallelism
	// MAC selects HMAC or PMAC engines.
	MAC shield.MACKind
	// BufferBytes is the per-set buffer (16 KB in the paper).
	BufferBytes int
	// Oblivious fronts the store region with a Path ORAM (§5.2.2): file
	// blocks are placed by oblivious path accesses, so a cloud operator
	// watching the storage device's address bus cannot tell which file —
	// and therefore which user — a request serves. The Shield still hides
	// contents; the ORAM hides the access pattern, at a measured bandwidth
	// amplification. The ORAM is the store's only placement other than
	// direct slot addressing; ownership and capacity are checked as on a
	// flat node.
	Oblivious bool
	// WriteBack is the serving-tier buffer policy: Put leaves the store
	// region's lines dirty on-chip instead of flushing after every
	// operation, so a working set that fits the buffer is served without
	// re-sealing — evictions and Sync write dirty lines back. The
	// durability barrier moves to Sync; the default (write-through)
	// policy keeps every Put sealed to DRAM before returning, which is
	// what the paper's Table 2 measurement models. NewNode clears it on
	// Oblivious nodes, which always write through (the ORAM's visibility
	// schedule is part of its obliviousness argument).
	WriteBack bool
	// TenantZones places each user's files in their own runtime-created
	// protection zone instead of one shared static store region. A flat
	// node is the one-zone case: the static store region is its single
	// zone, owned by no tenant and Slots slots long. Under TenantZones the
	// store arena is carved into per-user zones (TenantSlots slots each),
	// created lazily on a user's first Put via the Shield's virtual
	// region layer and destroyed — counters, valid bits, and all — by
	// EraseTenant, which is the GDPR erasure guarantee made structural:
	// after destruction the zone's ciphertext is unrecoverable even with
	// the device key, because the per-region key material and freshness
	// state died with the zone. The tls region stays static (it is the
	// node's own network endpoint, not tenant data). Incompatible with
	// Oblivious (the ORAM fronts one flat store region).
	TenantZones bool
	// TenantSlots is how many file slots each per-user zone holds
	// (TenantZones mode; default 1). Slots must divide evenly into
	// per-user zones. NewNode sets it to Slots on a flat node, whose one
	// zone is the whole store. In every mode a file belongs to the user
	// who first stored it: another user's Put or Get of it is rejected.
	TenantSlots int
	// ResponseCacheBytes sizes the sealed-response cache: the most
	// recently served tls images (ciphertext + tags), kept in the node's
	// on-chip budget next to the network port so a repeat Get of an
	// unmodified file is answered at line rate without another pass
	// through either engine set. Safe because the tls region seals
	// deterministically within a session (no freshness counters on that
	// region) — a cached image is bit-identical to a re-sealed one — and
	// Put invalidates the file's entry. 0 disables the cache, which is
	// the Table 2 configuration (the paper measures the raw data path).
	ResponseCacheBytes int
}

// Table2Configs are the five Shield configurations of the paper's Table 2,
// in order: (engines, S-box, MAC) = (4,4x,HMAC), (4,16x,HMAC),
// (4,16x,PMAC), (8,16x,PMAC), (16,16x,PMAC).
func Table2Configs() []NodeConfig {
	base := NodeConfig{Slots: 4, SlotBytes: 1 << 20, AuthBlock: 4096, BufferBytes: 16 << 10}
	mk := func(eng int, sbox aesx.SBoxParallelism, mac shield.MACKind) NodeConfig {
		c := base
		c.Engines, c.SBox, c.MAC = eng, sbox, mac
		return c
	}
	return []NodeConfig{
		mk(4, aesx.SBox4x, shield.HMAC),
		mk(4, aesx.SBox16x, shield.HMAC),
		mk(4, aesx.SBox16x, shield.PMAC),
		mk(8, aesx.SBox16x, shield.PMAC),
		mk(16, aesx.SBox16x, shield.PMAC),
	}
}

// LineRateParams models the Storage Node's data fabric: a line-rate
// storage/network interface (≈1 GB/s at the 250 MHz Shield clock) rather
// than the F1 DRAM channel.
func LineRateParams() perf.Params {
	p := perf.Default()
	p.DRAMBytesPerCycle = 4
	return p
}

// Region layout of the node's device memory.
const (
	storeBase = 0x0000_0000
	tlsBase   = 0x4000_0000
)

// Node is one SDP Storage Node: a KV engine over a Shield. File metadata
// (directory, sizes) lives in node-internal (on-chip) state; file contents
// live encrypted in the store region; application traffic stages through
// the tls region.
//
// A Node is safe for concurrent use, but serialises its operations: the
// node has a single TLS staging region and a single directory, so requests
// against one node queue the way they would on one physical Storage Node's
// network port. Cluster spreads load over many nodes for real parallelism.
type Node struct {
	cfg    NodeConfig
	sh     *shield.Shield
	dram   *mem.DRAM
	params perf.Params
	dek    []byte
	oram   *oram.ORAM // non-nil in oblivious mode; fronts the store region

	tlsCfg    shield.RegionConfig
	tlsLayout shield.RegionLayout

	mu        sync.Mutex
	userKeys  map[string][]byte
	directory map[string]fileEntry

	// Store zones, keyed by owner (see owner): a flat node's single zone
	// is the static store region, owner ""; under TenantZones each user
	// gets one, carved lazily from freeZones, the free-list of zone base
	// addresses in the store arena.
	zones     map[string]*storeZone
	freeZones []uint64

	// Serving-path state, all under mu. stageBuf is the plaintext staging
	// buffer, grown to the largest payload seen and reused per operation.
	// tls is the node's own Data Owner endpoint, built on first use: Put
	// and Get seal and open with it exactly as a Client would, then take
	// the PutSealed/GetSealed path.
	stageBuf    []byte
	tls         *TLSSession
	userCiphers map[string]*userCipher
	ctr         aesx.CTRStream

	// Sealed-response cache (nil unless cfg.ResponseCacheBytes > 0),
	// LRU-evicted to stay within its on-chip byte budget. respCycles is
	// the simulated cost of cache-served responses (an on-chip copy),
	// accounted separately because cached hits bypass both engine sets.
	respCache          map[string]*respEntry
	respBytes          int
	respClock          uint64
	respHits, respMiss uint64
	respCycles         uint64
}

// respEntry is one cached sealed response: the file's tls image as the
// Data Owner receives it, plus an LRU stamp.
type respEntry struct {
	size     int
	ct, tags []byte
	last     uint64
}

// userCipher is the cached per-(user, file) GDPR layer state: the
// engine-selected AES block under the derived file key, plus the file IV.
// Deriving these per operation was pure hot-path waste — the key is a
// function of (user key, file name) only — and the cache is invalidated
// wholesale whenever user keys are (re)provisioned.
type userCipher struct {
	block aesx.Block
	iv    [aesx.IVSize]byte
}

// maxUserCiphers bounds the cipher cache; on overflow the cache resets
// (a full sweep is simpler than LRU and provisioning-rare).
const maxUserCiphers = 4096

type fileEntry struct {
	slot int
	size int
	user string
}

// storeZone is one protection zone in the store arena: a user's, or the
// whole static store region of a flat node.
type storeZone struct {
	base     uint64
	nextSlot int // next free slot within the zone
}

// oramConfig shapes the store-region ORAM: one ORAM block per auth block,
// buckets padded to the chunk size so bucket stores stream as full-chunk
// writes, position map recursing once the table outgrows 4K entries.
func (c NodeConfig) oramConfig(seed int64) oram.Config {
	return oram.Config{
		Base:            storeBase,
		Blocks:          c.Slots * c.SlotBytes / c.AuthBlock,
		BlockSize:       c.AuthBlock,
		Seed:            seed,
		ChunkAlign:      c.AuthBlock,
		PosMapThreshold: 4096,
	}
}

func (c NodeConfig) storeSize() uint64 {
	if !c.Oblivious {
		return uint64(c.Slots * c.SlotBytes)
	}
	// The ORAM tree (plus recursive position maps) replaces the flat slot
	// array; the region must cover its footprint in whole chunks.
	f := c.oramConfig(0).FootprintBytes()
	a := uint64(c.AuthBlock)
	return (f + a - 1) / a * a
}

func (c NodeConfig) tlsSize() uint64 { return uint64(c.SlotBytes) }

// ShieldConfig builds the two identical engine sets of §6.2.3. In
// TenantZones mode only the tls region is static; the store arena is
// left to runtime-created per-user zones (ArenaEnd bounds it).
func (c NodeConfig) ShieldConfig() shield.Config {
	mk := func(name string, base uint64, size uint64) shield.RegionConfig {
		return shield.RegionConfig{
			Name: name, Base: base, Size: size, ChunkSize: c.AuthBlock,
			AESEngines: c.Engines, SBox: c.SBox, KeySize: aesx.AES128,
			MAC: c.MAC, BufferBytes: c.BufferBytes,
		}
	}
	tls := mk("tls", tlsBase, c.tlsSize())
	tls.Channel = 1 // the TLS/network port is a separate physical interface
	if c.TenantZones {
		return shield.Config{
			Regions:   []shield.RegionConfig{tls},
			Registers: 16,
			ArenaEnd:  storeBase + uint64(c.Slots*c.SlotBytes),
		}
	}
	store := mk("store", storeBase, c.storeSize())
	// Files are overwritten in place, so the store region carries replay
	// counters: a cloud operator must not be able to roll a record back
	// to a pre-erasure version (the GDPR deletion guarantee).
	store.Freshness = true
	return shield.Config{
		Regions:   []shield.RegionConfig{store, tls},
		Registers: 16,
	}
}

// storeZoneConfig is one user's protection zone: a store-shaped region
// owned by the user's tenant identity, replay-protected like the static
// store (rollback across erasure is the attack GDPR deletion forbids).
func (c NodeConfig) storeZoneConfig(user string, base uint64) shield.RegionConfig {
	return shield.RegionConfig{
		Name: "store", Tenant: user, Base: base,
		Size: uint64(c.TenantSlots * c.SlotBytes), ChunkSize: c.AuthBlock,
		AESEngines: c.Engines, SBox: c.SBox, KeySize: aesx.AES128,
		MAC: c.MAC, BufferBytes: c.BufferBytes,
		Freshness: true,
	}
}

// NewNode boots a Storage Node: Shield construction plus Load Key
// provisioning with the session DEK (which the CN established during
// attestation).
func NewNode(cfg NodeConfig, dek []byte, params perf.Params) (*Node, error) {
	if cfg.Slots <= 0 || cfg.SlotBytes <= 0 {
		return nil, fmt.Errorf("sdp: node needs at least one slot: %w", ErrConfig)
	}
	if cfg.SlotBytes%cfg.AuthBlock != 0 {
		return nil, fmt.Errorf("sdp: slot size must be a multiple of the auth block: %w", ErrConfig)
	}
	if cfg.TenantZones {
		if cfg.Oblivious {
			return nil, fmt.Errorf("sdp: tenant zones and the oblivious store are mutually exclusive: %w", ErrConfig)
		}
		if cfg.TenantSlots <= 0 {
			cfg.TenantSlots = 1
		}
		if cfg.Slots%cfg.TenantSlots != 0 {
			return nil, fmt.Errorf("sdp: %d slots do not divide into zones of %d: %w",
				cfg.Slots, cfg.TenantSlots, ErrConfig)
		}
	} else {
		cfg.TenantSlots = cfg.Slots
	}
	if cfg.Oblivious {
		cfg.WriteBack = false
		if cfg.Slots*cfg.SlotBytes/cfg.AuthBlock < 2 {
			return nil, fmt.Errorf("sdp: oblivious node needs at least two auth blocks of store: %w", ErrConfig)
		}
		if len(dek) < 8 {
			return nil, fmt.Errorf("sdp: oblivious node needs a session DEK of at least 8 bytes: %w", ErrConfig)
		}
	}
	scfg := cfg.ShieldConfig()
	if err := scfg.Validate(); err != nil {
		return nil, err
	}
	// Tag shadow for the tls region and the whole store arena, whether
	// the arena is one static region or runtime-created zones.
	tagBytes := (cfg.storeSize() + cfg.tlsSize()) / uint64(cfg.AuthBlock) * shield.TagSize
	dram := mem.NewDRAM(uint64(tlsBase)+cfg.tlsSize()+tagBytes+1<<20, params)
	ocm := mem.NewOCM(1 << 32)
	// The attestation group is kept small for simulation speed; a real
	// deployment would use modp.Group14.
	priv, err := schnorr.GenerateKey(modp.TestGroup, nil)
	if err != nil {
		return nil, err
	}
	sh, err := shield.New(scfg, priv, dram, ocm, params)
	if err != nil {
		return nil, err
	}
	lk, err := keywrap.Wrap(sh.PublicKey(), dek, nil)
	if err != nil {
		return nil, err
	}
	if err := sh.ProvisionLoadKey(lk); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		sh:        sh,
		dram:      dram,
		params:    params,
		dek:       append([]byte(nil), dek...),
		userKeys:  make(map[string][]byte),
		directory: make(map[string]fileEntry),
	}
	n.tlsCfg = scfg.Regions[len(scfg.Regions)-1] // tls is last (the only static region in tenant-zone mode)
	n.tlsLayout, _ = sh.Layout("tls")
	n.userCiphers = make(map[string]*userCipher)
	if cfg.ResponseCacheBytes > 0 {
		n.respCache = make(map[string]*respEntry)
	}
	n.zones = make(map[string]*storeZone)
	if cfg.TenantZones {
		zoneBytes := uint64(cfg.TenantSlots * cfg.SlotBytes)
		// Pushed high-to-low so zones hand out in ascending address order.
		for base := storeBase + uint64(cfg.Slots*cfg.SlotBytes) - zoneBytes; ; base -= zoneBytes {
			n.freeZones = append(n.freeZones, base)
			if base == storeBase {
				break
			}
		}
	} else {
		n.zones[""] = &storeZone{base: storeBase}
	}
	if cfg.Oblivious {
		// The leaf-draw seed derives from the session DEK: deterministic
		// per session, invisible to the host.
		seed := int64(binary.LittleEndian.Uint64(dek[:8]))
		n.oram, err = oram.NewWithConfig(sh, cfg.oramConfig(seed))
		if err != nil {
			return nil, fmt.Errorf("sdp: oblivious store: %w", err)
		}
	}
	return n, nil
}

// ProvisionUserKeys installs the CN's user-key database (paper: "The CN
// securely provisions a database of user keys into the TEE").
func (n *Node) ProvisionUserKeys(keys map[string][]byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for u, k := range keys {
		n.userKeys[u] = append([]byte(nil), k...)
	}
	// A (re)provisioned key invalidates any cached per-file cipher
	// derived from the old key; provisioning is rare, so drop them all,
	// along with any sealed responses whose GDPR layer they produced.
	clear(n.userCiphers)
	clear(n.respCache)
	n.respBytes = 0
}

// respInvalidate drops a file's cached sealed response (its content is
// about to change). Caller holds mu.
func (n *Node) respInvalidate(name string) {
	if r, ok := n.respCache[name]; ok {
		n.respBytes -= len(r.ct) + len(r.tags)
		delete(n.respCache, name)
	}
}

// respInsert caches a file's sealed response, evicting least-recently
// served entries until the image fits the on-chip budget. Entries larger
// than the whole budget are not cached. Caller holds mu.
func (n *Node) respInsert(name string, size int, ct, tags []byte) {
	need := len(ct) + len(tags)
	if n.respCache == nil || need > n.cfg.ResponseCacheBytes {
		return
	}
	n.respInvalidate(name)
	for n.respBytes+need > n.cfg.ResponseCacheBytes {
		victim, oldest := "", ^uint64(0)
		for k, r := range n.respCache {
			if r.last < oldest {
				victim, oldest = k, r.last
			}
		}
		n.respInvalidate(victim)
	}
	n.respClock++
	n.respCache[name] = &respEntry{
		size: size,
		ct:   append([]byte(nil), ct...),
		tags: append([]byte(nil), tags...),
		last: n.respClock,
	}
	n.respBytes += need
}

// respServe answers a Get from the sealed-response cache if the file's
// image is resident, copying it into the caller's buffers. The simulated
// cost is one on-chip copy (the cache sits next to the network port; no
// engine set runs). Caller holds mu and has already authorised the user.
func (n *Node) respServe(name string, ct, tags []byte) (int, bool) {
	r, ok := n.respCache[name]
	if !ok {
		return 0, false
	}
	if len(ct) < len(r.ct) || len(tags) < len(r.tags) {
		return 0, false
	}
	copy(ct, r.ct)
	copy(tags, r.tags)
	n.respClock++
	r.last = n.respClock
	n.respHits++
	n.respCycles += uint64(len(r.ct)+len(r.tags))/64 + n.params.ChunkIssueCycles
	return r.size, true
}

// RespCacheStats reports the sealed-response cache's activity: hits,
// misses (Gets that ran the full data path on a cache-enabled node), and
// the simulated cycles of cache-served responses.
func (n *Node) RespCacheStats() (hits, misses, cycles uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.respHits, n.respMiss, n.respCycles
}

// stage sizes the node's reusable plaintext staging buffer for an
// aligned payload of nBytes. Caller holds mu.
func (n *Node) stage(nBytes int) []byte {
	if cap(n.stageBuf) < nBytes {
		n.stageBuf = make([]byte, nBytes)
	}
	return n.stageBuf[:nBytes]
}

// session returns the node's own TLS endpoint, built on first use.
// Caller holds mu.
func (n *Node) session() (*TLSSession, error) {
	if n.tls == nil {
		t, err := n.NewTLSSession()
		if err != nil {
			return nil, err
		}
		n.tls = t
	}
	return n.tls, nil
}

// dmaTLSIn lands a sealed payload extent in the tls region: the host DMA
// plus the valid-bit update. Only the extent's chunks are written and
// marked — the rest of the (large) staging region keeps whatever it held,
// and crucially the *store* region's buffer residency is untouched (the
// old path invalidated every clean line in both engine sets per Put,
// which is exactly the aggregate on-chip cache a fleet of shards needs).
// Caller holds mu.
func (n *Node) dmaTLSIn(ct, tags []byte) error {
	// Defensive drain: staged traffic never leaves tls lines dirty, but a
	// clean region costs nothing to flush and a dirty one would otherwise
	// overwrite the DMA on eviction.
	if err := n.sh.FlushRegion("tls"); err != nil {
		return err
	}
	if err := n.dram.RawWrite(n.tlsLayout.DataBase, ct); err != nil {
		return err
	}
	if err := n.dram.RawWrite(n.tlsLayout.TagBase, tags); err != nil {
		return err
	}
	return n.sh.MarkPreloadedRange("tls", 0, uint64(len(ct)))
}

// reserve validates a Put and allocates the file's slot entry. Caller
// holds mu and commits with n.directory[name] = entry on success.
// Failures are application rejections (ErrRejected): authoritative
// verdicts the cluster's resilience layer must not retry or hold against
// the node's health. A file belongs to the user who first stored it; a
// new file takes the next slot of its owner's zone. Slots are global
// indices into the store arena; the zone boundary is what the Shield's
// region table enforces.
func (n *Node) reserve(user, name string, size int) (fileEntry, error) {
	if _, ok := n.userKeys[user]; !ok {
		return fileEntry{}, rejectf("sdp: user %q has no provisioned key", user)
	}
	if size > n.cfg.SlotBytes {
		return fileEntry{}, rejectf("sdp: file of %d bytes exceeds slot size %d", size, n.cfg.SlotBytes)
	}
	entry, ok := n.directory[name]
	if ok {
		if entry.user != user {
			return fileEntry{}, rejectf("sdp: user %q may not access %q (GDPR policy)", user, name)
		}
	} else {
		z, err := n.zoneFor(n.owner(user))
		if err != nil {
			return fileEntry{}, err
		}
		if z.nextSlot >= n.cfg.TenantSlots {
			return fileEntry{}, rejectf("sdp: node full for user %q (%d slots)", user, n.cfg.TenantSlots)
		}
		entry = fileEntry{slot: int((z.base-storeBase)/uint64(n.cfg.SlotBytes)) + z.nextSlot}
		z.nextSlot++
	}
	entry.size = size
	entry.user = user
	return entry, nil
}

// owner names the store zone that holds a user's files: the user's own
// under TenantZones, the node's single zone "" otherwise.
func (n *Node) owner(user string) string {
	if n.cfg.TenantZones {
		return user
	}
	return ""
}

// zoneFor returns (lazily creating) the user's protection zone. A new
// zone is one CreateRegion call against the Shield's virtual region
// layer; its engine set materialises on the first data access, so an
// idle user costs only directory bytes. A flat node's zone exists from
// boot. Caller holds mu.
func (n *Node) zoneFor(user string) (*storeZone, error) {
	if z, ok := n.zones[user]; ok {
		return z, nil
	}
	if len(n.freeZones) == 0 {
		return nil, reject(errors.New("sdp: node full (no free tenant zones)"))
	}
	base := n.freeZones[len(n.freeZones)-1]
	if err := n.sh.CreateRegion(n.cfg.storeZoneConfig(user, base)); err != nil {
		return nil, fmt.Errorf("sdp: tenant zone for %q: %w", user, err)
	}
	n.freeZones = n.freeZones[:len(n.freeZones)-1]
	z := &storeZone{base: base}
	n.zones[user] = z
	return z, nil
}

// EraseTenant is the GDPR "right to be forgotten" made structural: it
// destroys the user's protection zone — per-region key material,
// freshness counters, and valid bits all die with it, so the zone's
// ciphertext in device memory is unrecoverable even by the operator —
// and forgets the user's key and directory entries. The zone's address
// range returns to the free list for the next tenant.
func (n *Node) EraseTenant(user string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.cfg.TenantZones {
		return rejectf("sdp: node has no tenant zones to erase")
	}
	if z, ok := n.zones[user]; ok {
		if err := n.sh.DestroyRegion(user, "store"); err != nil {
			return err
		}
		n.freeZones = append(n.freeZones, z.base)
		delete(n.zones, user)
	}
	for name, e := range n.directory {
		if e.user == user {
			delete(n.directory, name)
			n.respInvalidate(name)
		}
	}
	delete(n.userKeys, user)
	// The cipher cache keys on (user, file); erasure is rare, so a full
	// sweep beats tracking per-user membership.
	clear(n.userCiphers)
	return nil
}

// flushStore is Put's durability barrier: under the default
// write-through policy every operation's store lines are sealed to DRAM
// before it returns; under WriteBack they stay resident and dirty (the
// serving-tier policy), written back by eviction pressure or Sync. The
// barrier covers only the writing user's zone.
func (n *Node) flushStore(user string) error {
	if n.cfg.WriteBack {
		return nil
	}
	return n.sh.FlushTenantRegion(n.owner(user), "store")
}

// Sync writes back all dirty store lines — the explicit durability
// barrier of a WriteBack node (a no-op burden under write-through) —
// walking every live zone.
func (n *Node) Sync() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for owner := range n.zones {
		if err := n.sh.FlushTenantRegion(owner, "store"); err != nil {
			return err
		}
	}
	return nil
}

// Put stores a file for a user: the node's own TLS endpoint seals the
// payload as a Data Owner's would, then the PutSealed path runs.
func (n *Node) Put(user, name string, payload []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, err := n.session()
	if err != nil {
		return err
	}
	ct, tags, err := t.Seal(payload)
	if err != nil {
		return err
	}
	return n.putSealed(user, name, len(payload), ct, tags)
}

// PutSealed stores a file whose tls image the Data Owner already sealed
// (see TLSSession.Seal): ct and tags are the payload extent, padded to
// whole auth blocks. This is the serving-tier entry point — the
// Data-Owner-side cryptography happens on the client's goroutine, outside
// the node's serialised section.
func (n *Node) PutSealed(user, name string, size int, ct, tags []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.putSealed(user, name, size, ct, tags)
}

// putSealed is the node half of a Put: DMA the sealed image into the tls
// region, pull it through the tls engine set (decrypt+verify), apply the
// per-user GDPR layer, push it through the store engine set. Caller
// holds mu.
func (n *Node) putSealed(user, name string, size int, ct, tags []byte) error {
	entry, err := n.reserve(user, name, size)
	if err != nil {
		return err
	}
	aligned := alignUp(size, n.cfg.AuthBlock)
	if len(ct) != aligned || len(tags) != aligned/n.cfg.AuthBlock*shield.TagSize {
		return rejectf("sdp: sealed image is %d+%d bytes, want %d+%d", len(ct), len(tags),
			aligned, aligned/n.cfg.AuthBlock*shield.TagSize)
	}
	if err := n.dmaTLSIn(ct, tags); err != nil {
		return err
	}
	buf := n.stage(aligned)
	if _, err := n.sh.ReadBurst(tlsBase, buf); err != nil {
		return err
	}
	n.sealForUser(user, name, buf[:size])
	if err := n.storeWrite(entry.slot, buf); err != nil {
		return err
	}
	n.directory[name] = entry
	n.respInvalidate(name)
	return n.flushStore(user)
}

// storeWrite places a slot image (whole auth blocks) in the store region:
// directly addressed in the flat layout, or block by block through the
// ORAM in oblivious mode, where each auth block is one oblivious access.
func (n *Node) storeWrite(slot int, buf []byte) error {
	if n.oram == nil {
		addr := uint64(storeBase + slot*n.cfg.SlotBytes)
		_, err := n.sh.WriteBurst(addr, buf)
		return err
	}
	base := slot * (n.cfg.SlotBytes / n.cfg.AuthBlock)
	for i := 0; i < len(buf)/n.cfg.AuthBlock; i++ {
		if err := n.oram.Write(base+i, buf[i*n.cfg.AuthBlock:(i+1)*n.cfg.AuthBlock]); err != nil {
			return err
		}
	}
	return nil
}

// storeRead is the read side of storeWrite. An ORAM read also lands the
// ORAM's deferred path writes in DRAM before the response can leave the
// node: the ORAM's visibility schedule is part of its obliviousness
// argument.
func (n *Node) storeRead(slot int, buf []byte) error {
	if n.oram == nil {
		addr := uint64(storeBase + slot*n.cfg.SlotBytes)
		_, err := n.sh.ReadBurst(addr, buf)
		return err
	}
	base := slot * (n.cfg.SlotBytes / n.cfg.AuthBlock)
	for i := 0; i < len(buf)/n.cfg.AuthBlock; i++ {
		blk, err := n.oram.Read(base + i)
		if err != nil {
			return err
		}
		copy(buf[i*n.cfg.AuthBlock:], blk)
	}
	return n.sh.FlushRegion("store")
}

// Get retrieves a file for a user and returns the plaintext: the
// uncached GetSealed path, opened by the node's own TLS endpoint. It
// neither reads nor fills the response cache, so every Get (Table 2's
// measurement, anti-entropy's comparison reads) runs the full data path.
func (n *Node) Get(user, name string) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, err := n.session()
	if err != nil {
		return nil, err
	}
	size, err := n.getSealed(user, name, t.ct, t.tags)
	if err != nil {
		return nil, err
	}
	return t.Open(nil, t.ct, t.tags, size)
}

// GetSealed retrieves a file as its sealed tls image, DMAed into the
// caller's ct/tags buffers (each at least the region's aligned capacity;
// the returned size selects the extent — alignUp(size) ciphertext bytes
// and the matching tags). The Data Owner opens it with TLSSession.Open on
// the client's goroutine, outside the node's serialised section.
func (n *Node) GetSealed(user, name string, ct, tags []byte) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.respCache != nil {
		// The cache is consulted only after the same authorisation the
		// full path enforces.
		if _, err := n.lookup(user, name); err == nil {
			if size, ok := n.respServe(name, ct, tags); ok {
				return size, nil
			}
			n.respMiss++
		}
	}
	size, err := n.getSealed(user, name, ct, tags)
	if err != nil {
		return 0, err
	}
	aligned := alignUp(size, n.cfg.AuthBlock)
	n.respInsert(name, size, ct[:aligned], tags[:aligned/n.cfg.AuthBlock*shield.TagSize])
	return size, nil
}

// getSealed is the node half of a Get: locate the file, pull it from the
// store engine set, strip the GDPR layer, push the plaintext through the
// tls engine set, and DMA the sealed extent out into ct/tags. Caller
// holds mu.
func (n *Node) getSealed(user, name string, ct, tags []byte) (int, error) {
	entry, err := n.lookup(user, name)
	if err != nil {
		return 0, err
	}
	aligned := alignUp(entry.size, n.cfg.AuthBlock)
	buf := n.stage(aligned)
	if err := n.storeRead(entry.slot, buf); err != nil {
		return 0, err
	}
	n.sealForUser(user, name, buf[:entry.size]) // CTR layer is an involution
	if _, err := n.sh.WriteBurst(tlsBase, buf); err != nil {
		return 0, err
	}
	k := aligned / n.cfg.AuthBlock
	if len(ct) < aligned || len(tags) < k*shield.TagSize {
		return 0, rejectf("sdp: sealed-image buffers hold %d+%d bytes, need %d+%d",
			len(ct), len(tags), aligned, k*shield.TagSize)
	}
	if err := n.sh.FlushRegion("tls"); err != nil {
		return 0, err
	}
	if err := n.dram.RawReadInto(n.tlsLayout.DataBase, ct[:aligned]); err != nil {
		return 0, err
	}
	if err := n.dram.RawReadInto(n.tlsLayout.TagBase, tags[:k*shield.TagSize]); err != nil {
		return 0, err
	}
	return entry.size, nil
}

// lookup authorises a read: the user holds a provisioned key, the file
// exists, and the user owns it. Caller holds mu.
func (n *Node) lookup(user, name string) (fileEntry, error) {
	if _, ok := n.userKeys[user]; !ok {
		return fileEntry{}, rejectf("sdp: user %q has no provisioned key", user)
	}
	entry, ok := n.directory[name]
	if !ok {
		return fileEntry{}, rejectf("sdp: file %q not found", name)
	}
	if entry.user != user {
		return fileEntry{}, rejectf("sdp: user %q may not access %q (GDPR policy)", user, name)
	}
	return entry, nil
}

// sealForUser applies the per-user GDPR encryption layer in place: an
// AES-CTR pass under the user's key with a per-file IV. CTR is an
// involution, so the same call encrypts and decrypts. The derived cipher
// is cached per (user, file) and runs on the selected hardware engine.
func (n *Node) sealForUser(user, name string, data []byte) {
	uc, ok := n.userCiphers[user+"\x00"+name]
	if !ok {
		key := kdf.Derive([]byte("sdp/user-file"), n.userKeys[user], []byte(name), 16)
		block, err := engine.NewAES(key, engine.Auto)
		if err != nil {
			panic("sdp: derived key invalid: " + err.Error())
		}
		uc = &userCipher{block: block}
		h := kdf.Derive([]byte("sdp/file-iv"), []byte(name), nil, aesx.IVSize)
		copy(uc.iv[:], h)
		if len(n.userCiphers) >= maxUserCiphers {
			clear(n.userCiphers)
		}
		n.userCiphers[user+"\x00"+name] = uc
	}
	n.ctr.XORKeyStream(uc.block, uc.iv, data, data)
}

// Report exposes the Shield's cycle accounting.
func (n *Node) Report() shield.Report { return n.sh.Report() }

// Close stops the node's Shield worker goroutines once any operation in
// flight has finished. A later operation starts them again.
func (n *Node) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sh.Close()
}

// ResetStats clears the measurement window.
func (n *Node) ResetStats() {
	n.sh.ResetStats()
	n.mu.Lock()
	n.respHits, n.respMiss, n.respCycles = 0, 0, 0
	n.mu.Unlock()
}

// Shield exposes the underlying shield (controller provisioning, tests).
func (n *Node) Shield() *shield.Shield { return n.sh }

// ORAM exposes the oblivious store controller (nil unless the node was
// built with Oblivious set).
func (n *Node) ORAM() *oram.ORAM { return n.oram }

// DRAM exposes the device memory for adversarial tests.
func (n *Node) DRAM() *mem.DRAM { return n.dram }

func alignUp(n, a int) int { return (n + a - 1) / a * a }
