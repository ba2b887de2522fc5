package sdp

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shef/internal/crypto/aesx"
	"shef/internal/crypto/hmacx"
	"shef/internal/crypto/kdf"
	"shef/internal/perf"
	"shef/internal/shield"
)

// ClusterConfig sizes an SDP cluster: the paper's single Storage Node case
// study (§6.2.3) grown to a serving fleet.
type ClusterConfig struct {
	// Shards is the Storage Node count. Files are distributed over shards
	// by hashed name, so aggregate throughput scales with the fleet.
	Shards int
	// Node configures every Storage Node identically (the homogeneous-rack
	// deployment the paper's SDP sketch assumes).
	Node NodeConfig
	// Params is the per-node cycle model (zero value: LineRateParams).
	Params perf.Params
	// Replicas places each file on this many successor shards (home shard
	// plus Replicas-1 followers). Writes need a majority write quorum
	// (Replicas/2+1) to acknowledge; reads fall back replica by replica;
	// Sync runs anti-entropy repair across the set. 0 means 1: the home
	// shard alone, still served by the same replica engine (retries and
	// the health detector included).
	Replicas int
	// Retry tunes the per-replica retry loop (zero value: defaults).
	Retry RetryPolicy
	// OpTimeout bounds one cluster operation across its retries and
	// replica fallbacks. It is checked between attempts (node operations
	// are not preempted mid-flight), so a latency fault can overshoot it
	// by one attempt. 0 means DefaultOpTimeout; negative disables.
	OpTimeout time.Duration
}

// RetryPolicy shapes the capped exponential backoff the cluster applies
// to retryable per-replica failures.
type RetryPolicy struct {
	// MaxAttempts per replica per operation (0: DefaultMaxAttempts).
	MaxAttempts int
	// BaseBackoff before the first retry; doubles per attempt.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling.
	MaxBackoff time.Duration
	// Seed drives the deterministic jitter ([d/2, d) of the capped
	// backoff) so test runs with the same seed sleep the same schedule.
	Seed int64
}

// Retry defaults: three shots per replica, 2ms → 20ms backoff, 2s per
// operation. Small enough that a dead replica costs single-digit
// milliseconds before the read falls back, large enough to ride out the
// transient error bursts fault injection models.
const (
	DefaultMaxAttempts = 3
	DefaultBaseBackoff = 2 * time.Millisecond
	DefaultMaxBackoff  = 20 * time.Millisecond
	DefaultOpTimeout   = 2 * time.Second
)

// Controller is the SDP Controller Node (CN). It owns the user-key
// database and is the only party that provisions Storage Nodes: each shard
// is attested (its Shield public key checked against the session it was
// booted with) and then receives the key database sealed under the shard's
// session DEK, so the untrusted fabric between CN and SN carries only
// ciphertext.
type Controller struct {
	mu       sync.RWMutex
	userKeys map[string][]byte
}

// NewController builds a CN with an empty user-key database.
func NewController() *Controller {
	return &Controller{userKeys: make(map[string][]byte)}
}

// RegisterUser records (or rotates) a user's key in the CN database.
func (c *Controller) RegisterUser(user string, key []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.userKeys[user] = append([]byte(nil), key...)
}

// snapshotKeys copies the database for sealing.
func (c *Controller) snapshotKeys() map[string][]byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string][]byte, len(c.userKeys))
	for u, k := range c.userKeys {
		out[u] = append([]byte(nil), k...)
	}
	return out
}

// SealedKeyDB is the user-key database in transit from CN to SN:
// AES-CTR ciphertext plus an HMAC tag, both under keys derived from the
// shard's session DEK. The cloud operator relaying it learns nothing and
// cannot splice databases between shards (the shard index is folded into
// the key derivation). Nonce keeps repeated provisionings of the same
// shard (user registrations rotate the database) from reusing a keystream.
type SealedKeyDB struct {
	Nonce      [aesx.IVSize]byte
	Ciphertext []byte
	Tag        [hmacx.TagSize]byte
}

// ctrXor runs the AES-CTR involution under key/iv.
func ctrXor(key []byte, iv [aesx.IVSize]byte, data []byte) ([]byte, error) {
	cipher, err := aesx.NewCipher(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	aesx.CTR(cipher, iv, out, data)
	return out, nil
}

// sealKeyDB serialises and seals the full database for one shard.
func (c *Controller) sealKeyDB(shard int, dek []byte) (SealedKeyDB, error) {
	return sealKeys(shard, dek, c.snapshotKeys())
}

// sealKeys seals an arbitrary key set — the whole database at shard
// bring-up, or a single-user delta on registration (InstallSealedUserKeys
// merges, so deltas compose).
func sealKeys(shard int, dek []byte, keys map[string][]byte) (SealedKeyDB, error) {
	var plain []byte
	// Wire format: u32 count, then (u32 len, user, u32 len, key) records.
	// Order does not matter to the receiver.
	var count [4]byte
	binary.BigEndian.PutUint32(count[:], uint32(len(keys)))
	plain = append(plain, count[:]...)
	appendBlob := func(b []byte) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(b)))
		plain = append(plain, n[:]...)
		plain = append(plain, b...)
	}
	for u, k := range keys {
		appendBlob([]byte(u))
		appendBlob(k)
	}
	info := fmt.Sprintf("sdp/keydb-shard-%d", shard)
	encKey := kdf.Derive([]byte(info+"/enc"), dek, nil, 16)
	macKey := kdf.Derive([]byte(info+"/mac"), dek, nil, 32)
	var db SealedKeyDB
	if _, err := rand.Read(db.Nonce[:]); err != nil {
		return SealedKeyDB{}, err
	}
	ct, err := ctrXor(encKey, db.Nonce, plain)
	if err != nil {
		return SealedKeyDB{}, err
	}
	db.Ciphertext = ct
	db.Tag = hmacx.Tag(macKey, append(db.Nonce[:], ct...))
	return db, nil
}

// InstallSealedUserKeys verifies and opens a CN key-database delivery
// inside the node's trust domain and installs it. shard must match the
// index the CN sealed for — a relayed database for another shard fails
// authentication.
func (n *Node) InstallSealedUserKeys(shard int, db SealedKeyDB) error {
	info := fmt.Sprintf("sdp/keydb-shard-%d", shard)
	encKey := kdf.Derive([]byte(info+"/enc"), n.dek, nil, 16)
	macKey := kdf.Derive([]byte(info+"/mac"), n.dek, nil, 32)
	if !hmacx.Verify(macKey, append(db.Nonce[:], db.Ciphertext...), db.Tag) {
		return rejectf("sdp: sealed key database failed authentication")
	}
	plain, err := ctrXor(encKey, db.Nonce, db.Ciphertext)
	if err != nil {
		return err
	}
	keys, err := parseKeyDB(plain)
	if err != nil {
		return err
	}
	n.ProvisionUserKeys(keys)
	return nil
}

func parseKeyDB(plain []byte) (map[string][]byte, error) {
	bad := fmt.Errorf("sdp: sealed key database malformed: %w", ErrConfig)
	if len(plain) < 4 {
		return nil, bad
	}
	count := binary.BigEndian.Uint32(plain[:4])
	plain = plain[4:]
	next := func() ([]byte, error) {
		if len(plain) < 4 {
			return nil, bad
		}
		l := int(binary.BigEndian.Uint32(plain[:4]))
		if len(plain) < 4+l {
			return nil, bad
		}
		b := plain[4 : 4+l]
		plain = plain[4+l:]
		return b, nil
	}
	keys := make(map[string][]byte, count)
	for i := uint32(0); i < count; i++ {
		u, err := next()
		if err != nil {
			return nil, err
		}
		k, err := next()
		if err != nil {
			return nil, err
		}
		keys[string(u)] = append([]byte(nil), k...)
	}
	if len(plain) != 0 {
		return nil, bad
	}
	return keys, nil
}

// shardSlot is one shard's mount point in the cluster: the node pointer
// (atomically swappable so crash/restart never races concurrent ops), the
// shard's session DEK and tls region (stable across restarts, so client
// TLS sessions survive them and can be opened while the shard is down),
// its failure detector, and its partition flag.
type shardSlot struct {
	node        atomic.Pointer[Node]
	dek         []byte
	tlsCfg      shield.RegionConfig
	tlsID       uint32
	partitioned atomic.Bool
	health      healthFSM
}

// Cluster is a fleet of Storage Nodes behind one Controller Node. Data
// Owners reach it through Clients, whose requests route by hashed file
// name; operations against different shards run in parallel (each node
// serialises internally), which is where the "millions of users"
// aggregate throughput comes from. With Replicas > 1 the cluster is
// self-healing: reads fall back across a file's replica set, writes
// acknowledge at a majority quorum, and Sync repairs divergence.
type Cluster struct {
	cfg   ClusterConfig
	ctrl  *Controller
	slots []*shardSlot

	// rng is the deterministic jitter state for retry backoff.
	rng atomic.Uint64

	// registry maps acknowledged file names to their owning user plus the
	// witness set — the shards that acknowledged the most recent
	// successful write. Reads prefer witnesses (a laggard primary must
	// not serve a stale version of an acknowledged write) and
	// anti-entropy trusts them over a raw majority vote (after a crash, a
	// one-fresh-vs-one-stale tie must not resolve to the stale copy).
	// Maintained only in replicated mode (single-copy clusters have
	// nothing to repair).
	regMu    sync.RWMutex
	registry map[string]fileMeta

	// fileLocks serializes replicated writes and anti-entropy repair on a
	// per-file basis (striped by name hash). Without it a repair pass can
	// read a replica, decide it is stale, lose the race to a concurrent
	// write that acks on that replica, and then roll the fresh bytes back
	// — silently losing an acknowledged write.
	fileLocks [64]sync.Mutex

	puts, gets, errs atomic.Uint64

	// retired holds the nodes CrashShard and RestartShard dropped: an
	// operation in flight may still finish on one, so they are closed
	// with the cluster rather than when dropped.
	retiredMu sync.Mutex
	retired   []*Node

	// Resilience counters: retries after transient failures, reads served
	// by a non-primary replica, files repaired by anti-entropy, writes
	// that failed their quorum, and writes acknowledged below full
	// replication (the degraded-mode signal).
	retries, fallbacks, repairs, quorumFails, degradedWrites atomic.Uint64
}

// NewCluster boots the fleet: every shard gets a fresh session DEK, is
// attested/provisioned through the Load Key path inside NewNode, and then
// receives the (empty) user-key database from the CN. Shards boot on
// separate goroutines — NewNode does real schnorr keygen and keywrap, so
// fleet bring-up is itself parallel.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("sdp: cluster needs at least one shard: %w", ErrConfig)
	}
	if cfg.Params == (perf.Params{}) {
		cfg.Params = LineRateParams()
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > cfg.Shards {
		return nil, fmt.Errorf("sdp: %d replicas need at least that many shards (have %d): %w", cfg.Replicas, cfg.Shards, ErrConfig)
	}
	if cfg.Retry.MaxAttempts < 1 {
		cfg.Retry.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.Retry.BaseBackoff <= 0 {
		cfg.Retry.BaseBackoff = DefaultBaseBackoff
	}
	if cfg.Retry.MaxBackoff < cfg.Retry.BaseBackoff {
		cfg.Retry.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = DefaultOpTimeout
	}
	c := &Cluster{
		cfg:   cfg,
		ctrl:  NewController(),
		slots: make([]*shardSlot, cfg.Shards),
	}
	c.rng.Store(uint64(cfg.Retry.Seed)*0x9e3779b97f4a7c15 + 1)
	if cfg.Replicas > 1 {
		c.registry = make(map[string]fileMeta)
	}
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Shards; i++ {
		c.slots[i] = &shardSlot{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dek := make([]byte, 32)
			if _, err := rand.Read(dek); err != nil {
				errs[i] = &ShardError{Shard: i, Op: "boot", Err: err}
				return
			}
			n, err := NewNode(cfg.Node, dek, cfg.Params)
			if err != nil {
				errs[i] = &ShardError{Shard: i, Op: "boot", Err: err}
				return
			}
			c.slots[i].node.Store(n)
			c.slots[i].dek = dek
			c.slots[i].tlsCfg, c.slots[i].tlsID = n.tlsCfg, n.tlsLayout.RegionID
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		c.Close()
		return nil, err
	}
	if err := c.reprovision(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close stops the worker goroutines of every node, live or dropped by
// CrashShard and RestartShard, so a discarded fleet leaves nothing
// running and its device memory unreachable. Every shard reads as down
// afterwards; the cluster must not be used again.
func (c *Cluster) Close() {
	for _, slot := range c.slots {
		if n := slot.node.Swap(nil); n != nil {
			n.Close()
		}
	}
	c.retiredMu.Lock()
	defer c.retiredMu.Unlock()
	for _, n := range c.retired {
		n.Close()
	}
	c.retired = nil
}

// retire keeps a dropped node for Close.
func (c *Cluster) retire(n *Node) {
	if n == nil {
		return
	}
	c.retiredMu.Lock()
	c.retired = append(c.retired, n)
	c.retiredMu.Unlock()
}

// reprovision pushes the CN's current key database to every shard.
func (c *Cluster) reprovision() error {
	for i := range c.slots {
		if err := c.reprovisionShard(i); err != nil {
			return err
		}
	}
	return nil
}

// reprovisionShard seals the CN's full current database for one shard and
// installs it — shard bring-up, restart, and partition-heal all converge
// through here so a recovered shard never serves with a stale key DB.
func (c *Cluster) reprovisionShard(i int) error {
	slot := c.slots[i]
	n := slot.node.Load()
	if n == nil {
		return &ShardError{Shard: i, Op: "provision", Err: ErrShardDown}
	}
	db, err := c.ctrl.sealKeyDB(i, slot.dek)
	if err != nil {
		return &ShardError{Shard: i, Op: "provision", Err: err}
	}
	if err := n.InstallSealedUserKeys(i, db); err != nil {
		return &ShardError{Shard: i, Op: "provision", Err: err}
	}
	return nil
}

// RegisterUser records the user with the CN and provisions all shards. Any
// shard may be asked for any of the user's files, so the database is
// replicated fleet-wide (the paper's CN "securely provisions a database of
// user keys into the TEE" — here, into every TEE). Only the new user's
// record travels: shards merge deltas, so registering N users costs
// O(N·shards), not O(N²·shards). Crashed or partitioned shards are
// skipped — they receive the full current database when they rejoin
// (RestartShard / HealShard reprovision). Every failure carries its shard
// identity; failures on independent shards are joined, not truncated to
// the first.
func (c *Cluster) RegisterUser(user string, key []byte) error {
	c.ctrl.RegisterUser(user, key)
	delta := map[string][]byte{user: key}
	var errs []error
	for i, slot := range c.slots {
		n := slot.node.Load()
		if n == nil || slot.partitioned.Load() {
			continue
		}
		db, err := sealKeys(i, slot.dek, delta)
		if err != nil {
			errs = append(errs, &ShardError{Shard: i, Op: "register", Err: err})
			continue
		}
		if err := n.InstallSealedUserKeys(i, db); err != nil {
			errs = append(errs, &ShardError{Shard: i, Op: "register", Err: err})
		}
	}
	return errors.Join(errs...)
}

// ShardIndex is the cluster routing function in the open: FNV-1a over
// the file name modulo the fleet size (computed inline — the stdlib hash
// allocates per call, and routing is on every operation's path).
// Exposed so load generators and capacity planners can reason about
// placement without a cluster in hand.
func ShardIndex(name string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int(h % uint32(shards))
}

// ShardFor routes a file name to its home shard.
func (c *Cluster) ShardFor(name string) int {
	return ShardIndex(name, len(c.slots))
}

// Sync is the fleet-wide durability and convergence barrier: in
// replicated mode it first runs anti-entropy repair over every
// acknowledged file, then flushes every reachable shard's dirty store
// lines. Crashed and partitioned shards are skipped (they repair at the
// Sync after they rejoin).
func (c *Cluster) Sync() error {
	var errs []error
	if c.cfg.Replicas > 1 {
		if err := c.antiEntropy(); err != nil {
			errs = append(errs, err)
		}
	}
	for i, slot := range c.slots {
		n := slot.node.Load()
		if n == nil || slot.partitioned.Load() {
			continue
		}
		if err := n.Sync(); err != nil {
			errs = append(errs, &ShardError{Shard: i, Op: "sync", Err: err})
		}
	}
	return errors.Join(errs...)
}

// Shards reports the fleet size.
func (c *Cluster) Shards() int { return len(c.slots) }

// Node exposes one shard (tests, per-shard reports). A crashed shard is
// nil until RestartShard brings it back.
func (c *Cluster) Node(i int) *Node { return c.slots[i].node.Load() }

// ClusterStats aggregates fleet activity.
type ClusterStats struct {
	Shards int
	Puts   uint64
	Gets   uint64
	Errors uint64
	// Resilience counters. Retries counts per-replica retry attempts
	// after transient failures; FallbackReads counts reads served by a
	// non-primary replica; Repairs counts files rewritten by anti-entropy;
	// QuorumFailures counts writes that lost their quorum; DegradedWrites
	// counts writes acknowledged below full replication. DownShards is
	// the crashed-or-partitioned count right now — nonzero means the
	// cluster is serving in degraded mode.
	Retries        uint64
	FallbackReads  uint64
	Repairs        uint64
	QuorumFailures uint64
	DegradedWrites uint64
	DownShards     int
	// BusyCycles is the simulated busy time summed over shards; MaxBusy is
	// the busiest shard — the fleet analogue of the Shield's
	// max-across-engine-sets wall-clock model.
	BusyCycles uint64
	MaxBusy    uint64
	// ORAMAccesses/ORAMBytesMoved aggregate the oblivious store traffic
	// across shards (zero unless the fleet runs with NodeConfig.Oblivious):
	// the measured price of hiding the access pattern fleet-wide.
	ORAMAccesses   uint64
	ORAMBytesMoved uint64
}

// Stats snapshots the cluster's counters.
func (c *Cluster) Stats() ClusterStats {
	st := ClusterStats{
		Shards:         len(c.slots),
		Puts:           c.puts.Load(),
		Gets:           c.gets.Load(),
		Errors:         c.errs.Load(),
		Retries:        c.retries.Load(),
		FallbackReads:  c.fallbacks.Load(),
		Repairs:        c.repairs.Load(),
		QuorumFailures: c.quorumFails.Load(),
		DegradedWrites: c.degradedWrites.Load(),
	}
	for _, slot := range c.slots {
		n := slot.node.Load()
		if n == nil || slot.partitioned.Load() {
			st.DownShards++
			continue
		}
		rep := n.Report()
		var busy uint64
		for _, r := range rep.Regions {
			busy += r.BusyCycles
		}
		// Cache-served responses bypass the engine sets; their on-chip
		// copy cost still occupies the node.
		_, _, respCycles := n.RespCacheStats()
		busy += respCycles
		st.BusyCycles += busy
		if busy > st.MaxBusy {
			st.MaxBusy = busy
		}
		if o := n.ORAM(); o != nil {
			acc, moved, _ := o.Stats()
			st.ORAMAccesses += acc
			st.ORAMBytesMoved += moved
		}
	}
	return st
}

// ResetStats zeroes the op counters and every shard's Shield counters.
func (c *Cluster) ResetStats() {
	c.puts.Store(0)
	c.gets.Store(0)
	c.errs.Store(0)
	c.retries.Store(0)
	c.fallbacks.Store(0)
	c.repairs.Store(0)
	c.quorumFails.Store(0)
	c.degradedWrites.Store(0)
	for _, slot := range c.slots {
		if n := slot.node.Load(); n != nil {
			n.ResetStats()
		}
	}
}
