// Package oram implements Path ORAM (Stefanov et al., CCS'13) on top of an
// axi.MemoryPort — the address-metadata countermeasure the paper names as
// a drop-in extension: "Further security mechanisms against address
// metadata attacks, such as ORAM, can simply be added by adopting
// open-source modules on top of Shield engines due to their generic
// interface" (§5.2.2).
//
// Stacked on a Shield region, the combination hides both *contents* (the
// Shield's authenticated encryption) and *addresses* (every logical access
// touches exactly one uniformly random root-to-leaf path of the ORAM
// tree). The stash and the top of the position map live in on-chip memory,
// as the cited FPGA ORAM controller keeps them; with Config.PosMapThreshold
// the block→leaf table recurses into smaller ORAMs so on-chip state stays
// bounded while the tree scales to millions of blocks.
//
// The controller is safe for concurrent use (a mutex serialises Access the
// way the hardware controller serialises its path state machine; stats are
// atomics) and moves path buckets in batched transactions: the root-to-leaf
// buckets are gathered into contiguous runs and each run travels through
// axi.ReadAuto/WriteAuto, so over a Shield the path rides the pipelined
// stream engine (perf.StreamWindowTime accounting) instead of one serial
// chunked burst per bucket.
package oram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"shef/internal/axi"
)

// BucketSlots is Z, the number of block slots per tree bucket. Z = 4 is
// the standard Path ORAM parameter with negligible stash overflow.
const BucketSlots = 4

// slotHeader is the per-slot metadata: 8 bytes of resident block ID (or
// invalidID), 4 bytes of the block's current leaf label (so the recursive
// position map never has to be consulted during eviction), 4 bytes
// reserved for alignment.
const slotHeaderBytes = 16

const invalidID = ^uint64(0)

// posMapBlockBytes is the block size of the recursive position-map ORAMs:
// 16 packed uint32 leaf labels per block.
const posMapBlockBytes = 64

// posMapEntries is the number of leaf labels one position-map block packs.
const posMapEntries = posMapBlockBytes / 4

// maxLevels bounds the tree height so bucket addresses can never overflow
// 64-bit arithmetic regardless of the block size (2^41 buckets is already
// far beyond any realistic backend window).
const maxLevels = 40

// initSlabBuckets is how many buckets one initialisation write moves when
// the batched path is enabled.
const initSlabBuckets = 64

// defaultBatchBuckets caps how many tree buckets one batched path
// transaction carries (the controller's analogue of the Shield's
// write-back window): longer contiguous runs of path buckets split into
// separate ReadAuto/WriteAuto transfers.
const defaultBatchBuckets = 8

// Sentinel causes for the typed *Error.
var (
	// ErrBlockRange reports a logical block index outside [0, Blocks).
	ErrBlockRange = errors.New("block index out of range")
	// ErrDataOnRead reports a read access that carried a data buffer.
	ErrDataOnRead = errors.New("non-nil data on a read access")
	// ErrDataLength reports a write whose data length is not the block size.
	ErrDataLength = errors.New("data length does not match the block size")
	// ErrStashEntry reports an on-chip stash entry with a corrupt length.
	ErrStashEntry = errors.New("stash entry length corrupt")
	// ErrBucketEntry reports a backend bucket slot naming an impossible
	// block or leaf (backend corruption beneath the ORAM layer).
	ErrBucketEntry = errors.New("backend bucket entry corrupt")
	// ErrGeometry reports a tree that cannot be addressed in 64 bits.
	ErrGeometry = errors.New("geometry exceeds the addressable window")
)

// Error is the typed failure Access returns for misuse and corrupt state;
// errors.Is sees through it to the sentinel cause.
type Error struct {
	Op    string // "read", "write", "access", "new"
	Block int
	Err   error
}

func (e *Error) Error() string {
	return fmt.Sprintf("oram: %s block %d: %v", e.Op, e.Block, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Config describes an ORAM controller. The zero value of the optional
// fields reproduces the classic geometry: unpadded buckets, batched path
// I/O with the default run cap, and a fully on-chip position map.
type Config struct {
	// Base is where the tree starts in the backend window.
	Base uint64
	// Blocks is the logical block count (at least 2).
	Blocks int
	// BlockSize is the logical block size in bytes (positive multiple of 8).
	BlockSize int
	// Seed drives the (simulated) hardware RNG that draws fresh leaves.
	Seed int64
	// Serial disables batched path I/O: every bucket moves in its own
	// ReadBurst/WriteBurst, the pre-batching controller's behaviour. Kept
	// for the speedup baseline and for accounting comparisons.
	Serial bool
	// ChunkAlign pads the bucket stride up to a multiple of this (the
	// Shield chunk size): buckets then start chunk-aligned and cover whole
	// chunks, so bucket stores stream as full-chunk writes instead of
	// read-modify-writing the chunks they straddle. Zero keeps the packed
	// layout.
	ChunkAlign int
	// BatchBuckets caps how many buckets one batched transaction carries;
	// zero uses defaultBatchBuckets.
	BatchBuckets int
	// PosMapThreshold bounds the on-chip position map: while the table has
	// more entries than this (and more than one position-map block's
	// worth), it recurses into a smaller ORAM placed after the tree in the
	// same window. Zero keeps the whole table on-chip.
	PosMapThreshold int
}

// stashEntry is one on-chip stash block: its current leaf label and data.
type stashEntry struct {
	leaf uint32
	data []byte
}

// ORAM is a Path ORAM controller over Config.Blocks logical blocks.
type ORAM struct {
	port   axi.MemoryPort
	cfg    Config
	base   uint64
	stride int // bucket pitch in bytes (bucketBytes padded to ChunkAlign)
	levels int // tree height; leaves = 1<<levels
	batch  int // bucket cap per batched transaction

	// mu serialises accesses: the controller is one path state machine, so
	// concurrent Access calls queue exactly as they would on the hardware
	// request port. Everything below mu is guarded by it.
	mu       sync.Mutex
	rng      *rand.Rand
	position []uint32 // on-chip block -> leaf (nil when recursing)
	posORAM  *ORAM    // recursive position map (leaf+1 encoding)
	stash    map[uint64]*stashEntry
	maxStash atomic.Int64 // written under mu, read lock-free by Stats

	// Scratch so the access hot path allocates (almost) nothing: staging
	// slabs, run/key lists, and a free list recycling stash entries that
	// eviction just placed back into the tree. The one per-access
	// allocation left is the returned copy of the block's old contents.
	path      []int
	pathBuf   []byte // (levels+1)*stride read staging
	writeBuf  []byte // (levels+1)*stride eviction staging
	runs      []axi.Burst
	stashKeys []uint64
	free      []*stashEntry

	// Statistics (atomics: Stats and Amplification read without blocking
	// in-flight accesses).
	accesses   atomic.Uint64
	bytesMoved atomic.Uint64
	cycles     atomic.Uint64
}

// New builds an ORAM of numBlocks blocks of blockSize bytes over port,
// placing the tree at base, with the default configuration (batched path
// I/O, packed buckets, on-chip position map). The backend window must
// cover FootprintBytes(numBlocks, blockSize).
func New(port axi.MemoryPort, base uint64, numBlocks, blockSize int, seed int64) (*ORAM, error) {
	return NewWithConfig(port, Config{Base: base, Blocks: numBlocks, BlockSize: blockSize, Seed: seed})
}

// NewWithConfig builds an ORAM from a full Config. The backend window must
// cover cfg.FootprintBytes() from cfg.Base (tree plus any recursive
// position-map trees).
func NewWithConfig(port axi.MemoryPort, cfg Config) (*ORAM, error) {
	levels, stride, foot, err := cfg.geometry()
	if err != nil {
		return nil, err
	}
	batch := cfg.BatchBuckets
	if batch <= 0 {
		batch = defaultBatchBuckets
	}
	o := &ORAM{
		port:     port,
		cfg:      cfg,
		base:     cfg.Base,
		stride:   stride,
		levels:   levels,
		batch:    batch,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		stash:    make(map[uint64]*stashEntry),
		path:     make([]int, levels+1),
		pathBuf:  make([]byte, (levels+1)*stride),
		writeBuf: make([]byte, (levels+1)*stride),
	}
	if child, ok := cfg.childConfig(foot); ok {
		o.posORAM, err = NewWithConfig(port, child)
		if err != nil {
			return nil, err
		}
	} else {
		o.position = make([]uint32, cfg.Blocks)
		for i := range o.position {
			o.position[i] = uint32(o.rng.Intn(1 << o.levels))
		}
	}
	if err := o.initBuckets(); err != nil {
		return nil, err
	}
	return o, nil
}

// geometry validates the configuration and derives the tree shape. All
// address arithmetic is uint64 with explicit overflow checks, so a huge
// geometry fails in New instead of wrapping bucket addresses at runtime.
func (cfg Config) geometry() (levels, stride int, footprint uint64, err error) {
	if cfg.Blocks < 2 {
		return 0, 0, 0, fmt.Errorf("oram: need at least 2 blocks: %w", ErrGeometry)
	}
	if cfg.BlockSize <= 0 || cfg.BlockSize%8 != 0 {
		return 0, 0, 0, fmt.Errorf("oram: block size %d must be a positive multiple of 8: %w", cfg.BlockSize, ErrGeometry)
	}
	if cfg.ChunkAlign < 0 {
		return 0, 0, 0, fmt.Errorf("oram: negative chunk alignment %d: %w", cfg.ChunkAlign, ErrGeometry)
	}
	if cfg.ChunkAlign > 0 && cfg.Base%uint64(cfg.ChunkAlign) != 0 {
		return 0, 0, 0, fmt.Errorf("oram: base %#x not aligned to chunk size %d: %w", cfg.Base, cfg.ChunkAlign, ErrGeometry)
	}
	levels = heightFor(cfg.Blocks)
	if levels > maxLevels {
		return 0, 0, 0, &Error{Op: "new", Err: ErrGeometry}
	}
	stride = BucketSlots * (slotHeaderBytes + cfg.BlockSize)
	if cfg.ChunkAlign > 0 {
		stride = (stride + cfg.ChunkAlign - 1) / cfg.ChunkAlign * cfg.ChunkAlign
	}
	buckets := uint64(1)<<(levels+1) - 1
	if uint64(stride) != 0 && buckets > (^uint64(0))/uint64(stride) {
		return 0, 0, 0, &Error{Op: "new", Err: ErrGeometry}
	}
	footprint = buckets * uint64(stride)
	if cfg.Base+footprint < cfg.Base {
		return 0, 0, 0, &Error{Op: "new", Err: ErrGeometry}
	}
	return levels, stride, footprint, nil
}

// childConfig returns the next recursion level's configuration, placed
// right after this level's tree, or ok=false when the position map stays
// on-chip. Recursion stops once the table fits the threshold or a single
// position-map block's packing can no longer shrink it.
func (cfg Config) childConfig(footprint uint64) (Config, bool) {
	if cfg.PosMapThreshold <= 0 || cfg.Blocks <= cfg.PosMapThreshold || cfg.Blocks <= posMapEntries {
		return Config{}, false
	}
	child := cfg
	child.Blocks = (cfg.Blocks + posMapEntries - 1) / posMapEntries
	if child.Blocks < 2 {
		child.Blocks = 2
	}
	child.BlockSize = posMapBlockBytes
	child.Base = cfg.Base + footprint
	if cfg.ChunkAlign > 0 {
		a := uint64(cfg.ChunkAlign)
		child.Base = (child.Base + a - 1) / a * a
	}
	child.Seed = cfg.Seed + 0x9e3779b9 // decorrelate the child's leaf draws
	return child, true
}

// FootprintBytes is the backend space a default-configuration tree
// occupies (no stride padding, no recursion).
func FootprintBytes(numBlocks, blockSize int) uint64 {
	f := Config{Blocks: numBlocks, BlockSize: blockSize}.FootprintBytes()
	return f
}

// FootprintBytes is the backend space the configuration occupies from
// Base: the tree plus every recursive position-map tree. Returns 0 for an
// invalid configuration (New reports the error).
func (cfg Config) FootprintBytes() uint64 {
	end := cfg.Base
	for c, ok := cfg, true; ok; {
		_, _, foot, err := c.geometry()
		if err != nil {
			return 0
		}
		end = c.Base + foot
		c, ok = c.childConfig(foot)
	}
	return end - cfg.Base
}

func heightFor(numBlocks int) int {
	levels := 0
	for 1<<levels < numBlocks {
		levels++
	}
	// One leaf per block is the textbook setting; the tree has levels+1
	// levels including the root.
	return levels
}

// TreeBuckets returns the bucket count for the configured geometry.
func (o *ORAM) TreeBuckets() int { return 1<<(o.levels+1) - 1 }

// Depth reports the recursion depth: 1 for an on-chip position map, plus
// one per recursive position-map ORAM.
func (o *ORAM) Depth() int {
	d := 1
	for c := o.posORAM; c != nil; c = c.posORAM {
		d++
	}
	return d
}

func (o *ORAM) slotBytes() int   { return slotHeaderBytes + o.cfg.BlockSize }
func (o *ORAM) bucketBytes() int { return BucketSlots * o.slotBytes() }

func (o *ORAM) bucketAddr(bucket int) uint64 {
	return o.base + uint64(bucket)*uint64(o.stride)
}

// initBuckets writes every bucket as empty. The batched mode moves slabs
// of buckets through WriteAuto (over a Shield: full-chunk stream windows);
// the serial mode reproduces the per-bucket bring-up.
func (o *ORAM) initBuckets() error {
	empty := make([]byte, o.bucketBytes())
	for s := 0; s < BucketSlots; s++ {
		binary.LittleEndian.PutUint64(empty[s*o.slotBytes():], invalidID)
	}
	buckets := o.TreeBuckets()
	if o.cfg.Serial {
		for b := 0; b < buckets; b++ {
			if _, err := o.port.WriteBurst(o.bucketAddr(b), empty); err != nil {
				return fmt.Errorf("oram: initialising bucket %d: %w", b, err)
			}
		}
		return nil
	}
	slab := make([]byte, initSlabBuckets*o.stride)
	for j := 0; j < initSlabBuckets; j++ {
		copy(slab[j*o.stride:], empty)
	}
	for b := 0; b < buckets; b += initSlabBuckets {
		n := buckets - b
		if n > initSlabBuckets {
			n = initSlabBuckets
		}
		if _, err := axi.WriteAuto(o.port, o.bucketAddr(b), slab[:n*o.stride]); err != nil {
			return fmt.Errorf("oram: initialising buckets %d..%d: %w", b, b+n-1, err)
		}
	}
	return nil
}

// pathInto fills o.path with the bucket indices from the root to leaf.
// Bucket numbering is heap order: root = 0, children of i are 2i+1, 2i+2 —
// so the slice is strictly ascending, which is what lets the batched path
// hand it straight to axi.ForEachRunCapped.
func (o *ORAM) pathInto(leaf uint32) []int {
	node := int(leaf) + (1 << o.levels) - 1 // leaf bucket index
	for l := o.levels; l >= 0; l-- {
		o.path[l] = node
		node = (node - 1) / 2
	}
	return o.path
}

// bucketAtLevel returns the bucket on the path to leaf at the given level.
func (o *ORAM) bucketAtLevel(leaf uint32, level int) int {
	node := int(leaf) + (1 << o.levels) - 1
	for l := o.levels; l > level; l-- {
		node = (node - 1) / 2
	}
	return node
}

// remap returns the block's current leaf and installs a freshly drawn one,
// through the on-chip map or the recursive position-map ORAM. The old
// position must be retired before anything touches the backend so it can
// never influence future accesses.
func (o *ORAM) remap(block int) (oldLeaf, newLeaf uint32, err error) {
	newLeaf = uint32(o.rng.Intn(1 << o.levels))
	if o.posORAM == nil {
		oldLeaf = o.position[block]
		o.position[block] = newLeaf
		return oldLeaf, newLeaf, nil
	}
	// One oblivious access of the child ORAM reads the packed entry and
	// installs the new label in the same path (leaf+1 encoding; 0 means
	// the block has never been assigned).
	var enc uint32
	off := (block % posMapEntries) * 4
	_, err = o.posORAM.accessLocked("access", block/posMapEntries, func(cur []byte) {
		enc = binary.LittleEndian.Uint32(cur[off:])
		binary.LittleEndian.PutUint32(cur[off:], newLeaf+1)
	}, false)
	if err != nil {
		return 0, 0, err
	}
	if enc == 0 {
		// Unassigned block: the read path must still be uniformly random.
		oldLeaf = uint32(o.rng.Intn(1 << o.levels))
	} else {
		oldLeaf = enc - 1
	}
	return oldLeaf, newLeaf, nil
}

// Access performs one oblivious operation. If write is true, data replaces
// the block's contents; the previous contents are returned either way.
// Reads must pass nil data. Safe for concurrent use.
//
//shef:deterministic
func (o *ORAM) Access(block int, write bool, data []byte) ([]byte, error) {
	op := "read"
	if write {
		op = "write"
	}
	if block < 0 || block >= o.cfg.Blocks {
		return nil, &Error{Op: op, Block: block, Err: ErrBlockRange}
	}
	if !write && data != nil {
		return nil, &Error{Op: op, Block: block, Err: ErrDataOnRead}
	}
	if write && len(data) != o.cfg.BlockSize {
		return nil, &Error{Op: op, Block: block,
			Err: fmt.Errorf("%w: %d bytes, want %d", ErrDataLength, len(data), o.cfg.BlockSize)}
	}
	var mutate func([]byte)
	if write {
		mutate = func(cur []byte) { copy(cur, data) }
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.accessLocked(op, block, mutate, true)
}

// accessLocked is the path state machine: remap, read the old path into
// the stash, serve (and optionally mutate) the block, evict the path.
// mutate edits the block's contents in place; with needOld set the
// pre-mutation contents are copied out and returned (position-map
// accesses read their entry inside mutate instead, skipping the copy).
// Callers hold o.mu (recursive position-map ORAMs are only ever driven
// under their parent's lock).
func (o *ORAM) accessLocked(op string, block int, mutate func([]byte), needOld bool) ([]byte, error) {
	o.accesses.Add(1)
	id := uint64(block)
	oldLeaf, newLeaf, err := o.remap(block)
	if err != nil {
		return nil, err
	}
	path := o.pathInto(oldLeaf)
	if err := o.readPath(op, path); err != nil {
		return nil, err
	}
	e, ok := o.stash[id]
	if !ok {
		e = o.getEntry()
		clear(e.data) // first touch: zeros
		o.stash[id] = e
	} else if len(e.data) != o.cfg.BlockSize {
		return nil, &Error{Op: op, Block: block,
			Err: fmt.Errorf("%w: %d bytes, want %d", ErrStashEntry, len(e.data), o.cfg.BlockSize)}
	}
	e.leaf = newLeaf
	var old []byte
	if needOld {
		old = append([]byte(nil), e.data...)
	}
	if mutate != nil {
		mutate(e.data)
	}
	if err := o.evictPath(op, path); err != nil {
		return nil, err
	}
	if n := int64(len(o.stash)); n > o.maxStash.Load() {
		o.maxStash.Store(n)
	}
	return old, nil
}

// pathRuns gathers the (ascending) path bucket indices into contiguous
// runs of at most o.batch buckets, as byte ranges.
func (o *ORAM) pathRuns(path []int) []axi.Burst {
	runs := o.runs[:0]
	axi.ForEachRunCapped(path, o.batch, func(b0, n int) error {
		runs = append(runs, axi.Burst{Addr: o.bucketAddr(b0), Len: n * o.stride})
		return nil
	})
	o.runs = runs[:0]
	return runs
}

// gatherable reports whether the whole path can move as one scatter-gather
// stream: the port has a gather engine and the bucket stride is
// chunk-aligned (full chunks, so stores never read-modify-write).
func (o *ORAM) gatherable() bool {
	if o.cfg.Serial || o.cfg.ChunkAlign <= 0 {
		return false
	}
	_, ok := o.port.(axi.Gatherer)
	return ok
}

// readPath moves the whole path into the stash. Batched mode gathers the
// (ascending) bucket indices into contiguous runs: over a gather-capable
// port (the Shield) the runs travel as ONE pipelined stream — fill/drain
// once per path, one batched AXI transaction per run — otherwise each run
// moves in its own ReadAuto. Serial mode is the per-bucket baseline.
func (o *ORAM) readPath(op string, path []int) error {
	if o.cfg.Serial {
		buf := o.pathBuf[:o.bucketBytes()]
		for _, b := range path {
			c, err := o.port.ReadBurst(o.bucketAddr(b), buf)
			o.cycles.Add(c)
			if err != nil {
				return err
			}
			o.bytesMoved.Add(uint64(len(buf)))
			if err := o.unpackBucket(op, buf); err != nil {
				return err
			}
		}
		return nil
	}
	if o.gatherable() {
		buf := o.pathBuf[:len(path)*o.stride]
		c, err := axi.ReadGatherAuto(o.port, o.pathRuns(path), buf)
		o.cycles.Add(c)
		if err != nil {
			return err
		}
		o.bytesMoved.Add(uint64(len(buf)))
		for j := range path {
			if err := o.unpackBucket(op, buf[j*o.stride:j*o.stride+o.bucketBytes()]); err != nil {
				return err
			}
		}
		return nil
	}
	return axi.ForEachRunCapped(path, o.batch, func(b0, n int) error {
		buf := o.pathBuf[:n*o.stride]
		c, err := axi.ReadAuto(o.port, o.bucketAddr(b0), buf)
		o.cycles.Add(c)
		if err != nil {
			return err
		}
		o.bytesMoved.Add(uint64(len(buf)))
		for j := 0; j < n; j++ {
			if err := o.unpackBucket(op, buf[j*o.stride:j*o.stride+o.bucketBytes()]); err != nil {
				return err
			}
		}
		return nil
	})
}

// unpackBucket pulls every occupied slot of one bucket image into the
// stash, validating the header against the geometry (a corrupt backend
// beneath the ORAM surfaces as a typed error, never as silent state).
func (o *ORAM) unpackBucket(op string, img []byte) error {
	for s := 0; s < BucketSlots; s++ {
		slot := img[s*o.slotBytes() : (s+1)*o.slotBytes()]
		sid := binary.LittleEndian.Uint64(slot)
		if sid == invalidID {
			continue
		}
		leaf := binary.LittleEndian.Uint32(slot[8:])
		if sid >= uint64(o.cfg.Blocks) || leaf >= uint32(1)<<o.levels {
			return &Error{Op: op, Block: int(sid), Err: ErrBucketEntry}
		}
		e, ok := o.stash[sid]
		if !ok {
			e = o.getEntry()
			o.stash[sid] = e
		}
		e.leaf = leaf
		copy(e.data, slot[slotHeaderBytes:])
	}
	return nil
}

// getEntry recycles a stash entry eviction freed, or allocates one.
func (o *ORAM) getEntry() *stashEntry {
	if n := len(o.free); n > 0 {
		e := o.free[n-1]
		o.free = o.free[:n-1]
		return e
	}
	return &stashEntry{data: make([]byte, o.cfg.BlockSize)}
}

// evictPath refills the path greedily from the leaf level upward with
// stash blocks whose leaf still passes through each bucket, then writes
// the buckets back. Candidates are visited in sorted block order so the
// resulting backend layout — and therefore the simulated cycle count — is
// a pure function of the seed and the access sequence. Batched mode
// composes the images into stride-pitched slabs and stores each contiguous
// run in one WriteAuto; serial mode writes leaf→root per bucket.
func (o *ORAM) evictPath(op string, path []int) error {
	keys := o.stashKeys[:0]
	//shef:ignore stash ids collected into stashKeys and sorted before eviction
	for id := range o.stash {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	o.stashKeys = keys[:0]

	wb := o.writeBuf[:(len(path))*o.stride]
	clear(wb) // deterministic pad and free-slot bytes
	for l := len(path) - 1; l >= 0; l-- {
		bucket := path[l]
		img := wb[l*o.stride : l*o.stride+o.bucketBytes()]
		filled := 0
		for _, id := range keys {
			if filled == BucketSlots {
				break
			}
			e, ok := o.stash[id]
			if !ok {
				continue // already placed deeper on the path
			}
			if o.bucketAtLevel(e.leaf, l) != bucket {
				continue
			}
			slot := img[filled*o.slotBytes():]
			binary.LittleEndian.PutUint64(slot, id)
			binary.LittleEndian.PutUint32(slot[8:], e.leaf)
			copy(slot[slotHeaderBytes:], e.data)
			delete(o.stash, id)
			o.free = append(o.free, e)
			filled++
		}
		for s := filled; s < BucketSlots; s++ {
			binary.LittleEndian.PutUint64(img[s*o.slotBytes():], invalidID)
		}
	}

	if o.cfg.Serial {
		for l := len(path) - 1; l >= 0; l-- {
			img := wb[l*o.stride : l*o.stride+o.bucketBytes()]
			c, err := o.port.WriteBurst(o.bucketAddr(path[l]), img)
			o.cycles.Add(c)
			if err != nil {
				return err
			}
			o.bytesMoved.Add(uint64(len(img)))
		}
		return nil
	}
	if o.gatherable() {
		c, err := axi.WriteGatherAuto(o.port, o.pathRuns(path), wb)
		o.cycles.Add(c)
		if err != nil {
			return err
		}
		o.bytesMoved.Add(uint64(len(wb)))
		return nil
	}
	return axi.ForEachRunCapped(path, o.batch, func(b0, n int) error {
		l := sort.SearchInts(path, b0)
		slab := wb[l*o.stride : (l+n)*o.stride]
		c, err := axi.WriteAuto(o.port, o.bucketAddr(b0), slab)
		o.cycles.Add(c)
		if err != nil {
			return err
		}
		o.bytesMoved.Add(uint64(len(slab)))
		return nil
	})
}

// Read returns a block's contents obliviously.
func (o *ORAM) Read(block int) ([]byte, error) { return o.Access(block, false, nil) }

// Write stores a block obliviously.
func (o *ORAM) Write(block int, data []byte) error {
	_, err := o.Access(block, true, data)
	return err
}

// Stats reports logical access count, backend bytes moved, and the stash
// high-water mark (which must stay small for Path ORAM to be sound).
// Bytes and the stash bound aggregate over the recursive position-map
// ORAMs; accesses count logical operations only.
func (o *ORAM) Stats() (accesses, bytesMoved uint64, maxStash int) {
	accesses = o.accesses.Load()
	for c := o; c != nil; c = c.posORAM {
		bytesMoved += c.bytesMoved.Load()
		if m := int(c.maxStash.Load()); m > maxStash {
			maxStash = m
		}
	}
	return accesses, bytesMoved, maxStash
}

// Cycles is the simulated backend busy time the controller's traffic has
// cost so far (summed over the recursion), as reported by the port.
func (o *ORAM) Cycles() uint64 {
	var total uint64
	for c := o; c != nil; c = c.posORAM {
		total += c.cycles.Load()
	}
	return total
}

// Amplification is the bandwidth blow-up per logical byte — the price of
// hiding addresses, including the recursive position-map traffic.
func (o *ORAM) Amplification() float64 {
	accesses, moved, _ := o.Stats()
	if accesses == 0 {
		return 0
	}
	return float64(moved) / float64(accesses*uint64(o.cfg.BlockSize))
}
