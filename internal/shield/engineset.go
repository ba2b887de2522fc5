package shield

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"shef/internal/axi"
	"shef/internal/crypto/engine"
	"shef/internal/mem"
	"shef/internal/perf"
	"shef/internal/profiling"
)

// engineSet is the runtime of one configured memory region: the AES engine
// pool, the MAC engine, the on-chip buffer, and (optionally) the freshness
// counters. It is the unit of parallelism in the Shield: engine sets
// operate concurrently — in this reproduction as real goroutines — and the
// performance model takes the maximum busy time across sets (paper §5.2.2).
// The chunk crypto and its cycle cost come from the set's codec, so the
// unsecured baseline (Baseline) is the same engine set with the identity
// codec.
//
// All exported-to-Shield entry points (read, write, flush, the stats and
// maintenance accessors) take mu; the lower-case helpers below them assume
// it is held. One mutex per set means accesses to *different* regions run
// genuinely in parallel, mirroring the hardware where each engine set is
// its own pipeline, while accesses within a region serialise the way a
// single buffer/port pair would.
type engineSet struct {
	mu sync.Mutex

	cfg    RegionConfig
	params perf.Params
	codec  chunkCodec
	// tagBytes is codec.tagSize(): the tag stored per chunk, zero for a
	// tagless codec, whose sets skip tag I/O altogether.
	tagBytes int

	// share points at the region table's materialised-set counter for
	// this set's off-chip channel: each live set sees 1/share of the
	// channel bandwidth. The pointer is read atomically on every charge,
	// so contention tracks who is actually live — an idle tenant's
	// reclaimed zone stops costing its neighbours bandwidth.
	share *atomic.Int64

	// DRAM layout: ciphertext is identity-mapped at cfg.Base; tags live in
	// a reserved area starting at tagBase.
	tagBase uint64
	port    axi.MemoryPort

	// On-chip state (allocated from the device OCM budget). lines maps a
	// chunk index to its resident line for O(1) lookup; the lines
	// themselves are threaded on an intrusive doubly-linked list rooted at
	// lruRoot (lruRoot.next is most recent, lruRoot.prev the victim), so
	// eviction is O(1) instead of an O(capacity) map scan.
	lines    map[int]*bufLine
	lruRoot  bufLine
	capacity int

	// Sequential-stride detector driving the adaptive prefetcher: seqNext
	// is the chunk a continuing ascending miss pattern would touch next,
	// seqRun the length of the current ascending fetch-miss run, and
	// seqStreak whether the prefetch pipeline is already primed (windows
	// after the first skip the fill/drain charge).
	seqNext   int
	seqRun    int
	seqStreak bool

	// counters hold the per-chunk write counters when Freshness is on
	// (folded into IV and MAC; see sealer).
	counters []uint32

	// initialized marks chunks that carry valid ciphertext: written back
	// at least once, or preloaded by the host (MarkPreloaded). Reads of
	// never-written chunks return zeros without touching DRAM: the valid
	// bit lives on-chip, so an adversary cannot plant data in virgin
	// memory.
	initialized []bool

	// ocmBytes is the on-chip budget this set holds, returned to the pool
	// when a re-provisioning replaces the set. metaOCMBytes is the
	// durable-metadata slice of it (freshness counters and valid bits) —
	// an idle-zone reclaim keeps that slice resident so the zone's data
	// survives the engine set.
	ocmBytes     int
	metaOCMBytes int

	// linePool recycles buffer lines so the chunked hot path allocates
	// nothing in steady state.
	linePool sync.Pool

	// win is the set's single stream-window staging buffer (ciphertext +
	// tags for one pipeline window). Exactly one window is ever in flight
	// per set — every windowed path runs under mu and eviction write-backs
	// complete before a window is (re)used — so a dedicated buffer
	// replaces the old sync.Pool: unlike a pool, it cannot be drained by
	// a GC pass mid-stream, which is what makes the steady-state window
	// loop measurably zero-alloc.
	win *streamWindow

	// The persistent seal/open worker pool: the engine pool's goroutine
	// fan-out without per-window goroutine or closure allocations. A job
	// is described by the job* fields (set under mu), split into
	// contiguous spans of jobSpan items; workers receive span indices
	// over fanTasks and run spanWork. The channel send/receive pairs with
	// fanWG establish the happens-before edges, so workers never touch
	// mu. scratches holds one sealScratch per span slot — dedicated, not
	// pooled, for the same GC-drain reason as win.
	// inlineFan makes runJob run every span inline. It is set when the
	// process has a single P at provisioning time — fanning spans out to
	// pool workers then buys no parallelism, only a context switch per
	// span — and for the identity codec, whose copies gain nothing from
	// workers. The simulated cycle accounting is unaffected: the codec
	// models the hardware engine pool analytically, not the host's
	// execution strategy.
	inlineFan bool

	jobOpen       bool
	jobN, jobSpan int
	jobSlots      [streamWindowChunks]int
	jobChunks     [streamWindowChunks]int
	jobDsts       [streamWindowChunks][]byte
	scratches     [streamWindowChunks]*sealScratch
	fanTasks      chan int
	fanWG         sync.WaitGroup
	fanWorkers    int

	// flushScratch is the reusable dirty-chunk list of flush. The evict*
	// fields are evictFor's victim list, dirty-chunk set and sorted
	// dirty list, reused so an evicting write-back leaves no garbage.
	flushScratch []int
	evictVictims []*bufLine
	evictSet     map[int]bool
	evictDirty   []int

	// Performance accounting.
	busyCycles                          uint64 // accumulated engine-set busy time (chunk pipeline)
	dramCycles                          uint64 // this set's share of DRAM bus time
	hits, misses, evictions, writebacks uint64
	batchedWritebacks                   uint64 // chunks written back via multi-chunk pipelined windows
	streamed, streamWindows             uint64 // chunks moved / windows issued by the stream path
	prefetched, prefetchHits            uint64 // chunks fetched ahead / prefetched lines later demanded

	// integrityErr latches the first authentication failure; the Shield
	// refuses further service afterwards, modelling the hardware fault
	// latch that parks the accelerator.
	integrityErr error
}

// bufLine is one cache line of decrypted, authenticated plaintext. chunk
// and the prev/next links are the intrusive LRU state; prefetched marks
// lines brought in by the sequential prefetcher that have not yet served a
// demand access.
type bufLine struct {
	data       []byte
	dirty      bool
	prefetched bool
	chunk      int
	prev, next *bufLine
}

// newEngineSet builds the line-buffer core of a region over codec. It
// charges no on-chip memory; newSealedSet adds that for the Shield.
func newEngineSet(cfg RegionConfig, codec chunkCodec, tagBase uint64,
	port axi.MemoryPort, params perf.Params) *engineSet {

	s := &engineSet{
		cfg:         cfg,
		params:      params,
		codec:       codec,
		tagBytes:    codec.tagSize(),
		tagBase:     tagBase,
		port:        port,
		lines:       make(map[int]*bufLine),
		capacity:    cfg.bufferLines(),
		seqNext:     -1,
		inlineFan:   runtime.GOMAXPROCS(0) == 1,
		counters:    make([]uint32, cfg.Chunks()),
		initialized: make([]bool, cfg.Chunks()),
	}
	s.lruRoot.prev = &s.lruRoot
	s.lruRoot.next = &s.lruRoot
	s.linePool.New = func() any {
		return &bufLine{data: make([]byte, cfg.ChunkSize)}
	}
	s.win = &streamWindow{
		ct:   make([]byte, streamWindowChunks*cfg.ChunkSize),
		tags: make([]byte, streamWindowChunks*s.tagBytes),
	}
	return s
}

// newSealedSet builds a Shield region's engine set: the sealer as codec
// and its on-chip memory charged to ocm. Keys are derived from the Data
// Encryption Key per region so that regions are cryptographically
// isolated from one another.
func newSealedSet(cfg RegionConfig, regionID uint32, dek []byte, tagBase uint64,
	port axi.MemoryPort, ocm *mem.OCM, params perf.Params) (*engineSet, error) {

	kind, err := engine.ParseKind(params.CryptoEngine)
	if err != nil {
		return nil, fmt.Errorf("shield: region %q: %w", cfg.Name, err)
	}
	seal, err := newSealer(cfg, regionID, dek, kind)
	if err != nil {
		return nil, err
	}
	s := newEngineSet(cfg, seal, tagBase, port, params)
	// Charge on-chip memory: the buffer, counters, and valid bits.
	alloc := func(n int, what string) error {
		if _, err := ocm.Alloc(n); err != nil {
			return fmt.Errorf("shield: region %q %s: %w", cfg.Name, what, err)
		}
		s.ocmBytes += n
		return nil
	}
	if err := alloc(s.capacity*cfg.ChunkSize, "buffer"); err != nil {
		s.releaseOCM(ocm)
		return nil, err
	}
	if cfg.Freshness {
		if err := alloc(cfg.Chunks()*CounterSize, "counters"); err != nil {
			s.releaseOCM(ocm)
			return nil, err
		}
		s.metaOCMBytes += cfg.Chunks() * CounterSize
	}
	if err := alloc((cfg.Chunks()+7)/8, "valid bits"); err != nil {
		s.releaseOCM(ocm)
		return nil, err
	}
	s.metaOCMBytes += (cfg.Chunks() + 7) / 8
	return s, nil
}

// adoptMeta restores durable metadata a reclaim preserved (the zone's
// freshness counters and valid bits). Called before the set is published,
// so no lock is needed.
func (s *engineSet) adoptMeta(counters []uint32, initialized []bool) {
	if counters != nil {
		s.counters = counters
	}
	if initialized != nil {
		s.initialized = initialized
	}
}

// detachMeta retires the set but keeps its durable metadata resident:
// the buffer and window budget returns to the pool, the counters and
// valid bits (still charged on-chip) transfer to the caller for the next
// materialisation.
func (s *engineSet) detachMeta(ocm *mem.OCM) (counters []uint32, initialized []bool, metaBytes int) {
	s.stopWorkers()
	metaBytes = s.metaOCMBytes
	if s.ocmBytes > metaBytes {
		ocm.Free(s.ocmBytes - metaBytes)
	}
	s.ocmBytes, s.metaOCMBytes = 0, 0
	return s.counters, s.initialized, metaBytes
}

// releaseOCM returns the set's on-chip budget to the pool (the partial
// reconfiguration that clears a replaced session's logic) and retires the
// seal/open worker pool.
func (s *engineSet) releaseOCM(ocm *mem.OCM) {
	s.stopWorkers()
	if s.ocmBytes > 0 {
		ocm.Free(s.ocmBytes)
		s.ocmBytes = 0
	}
}

// Intrusive LRU list operations. All assume s.mu is held.

// lruPush inserts ln at the most-recently-used end.
func (s *engineSet) lruPush(ln *bufLine) {
	ln.prev = &s.lruRoot
	ln.next = s.lruRoot.next
	ln.prev.next = ln
	ln.next.prev = ln
}

// lruRemove unlinks ln.
func (s *engineSet) lruRemove(ln *bufLine) {
	ln.prev.next = ln.next
	ln.next.prev = ln.prev
	ln.prev, ln.next = nil, nil
}

// lruTouch moves ln to the most-recently-used end.
//
//shef:hotpath
func (s *engineSet) lruTouch(ln *bufLine) {
	s.lruRemove(ln)
	s.lruPush(ln)
}

// lruVictim returns the least-recently-used line (nil when empty).
//
//shef:hotpath
func (s *engineSet) lruVictim() *bufLine {
	if s.lruRoot.prev == &s.lruRoot {
		return nil
	}
	return s.lruRoot.prev
}

// touchResident marks a demand access to a resident line: LRU update plus
// prefetch-hit accounting (a prefetched line proved useful; it is counted
// once, on its first demand access).
//
//shef:hotpath
func (s *engineSet) touchResident(ln *bufLine) {
	s.lruTouch(ln)
	if ln.prefetched {
		ln.prefetched = false
		s.prefetchHits++
	}
}

// dropLine evicts ln from the buffer (caller has written it back if dirty).
func (s *engineSet) dropLine(ln *bufLine) {
	s.lruRemove(ln)
	delete(s.lines, ln.chunk)
	ln.dirty, ln.prefetched = false, false
	s.linePool.Put(ln)
}

// insertLine makes ln resident for chunk at the MRU end.
func (s *engineSet) insertLine(chunk int, ln *bufLine) {
	ln.chunk = chunk
	s.lines[chunk] = ln
	s.lruPush(ln)
}

// chargeChunk accounts one chunk movement (fetch or write-back): the DRAM
// burst for data plus its tag (fetched in the same request window) and the
// crypto stage, partially overlapped.
//
// shareNow reads the channel's live materialised-set count for the
// bandwidth-share charge; an unwired set charges as the sole occupant.
//
//shef:hotpath
func (s *engineSet) shareNow() int {
	if s.share == nil {
		return 1
	}
	if n := s.share.Load(); n > 1 {
		return int(n)
	}
	return 1
}

//shef:hotpath
func (s *engineSet) chargeChunk() {
	// The set experiences its bandwidth share; the channel-occupancy bound
	// (Report.MemoryCycles) counts the bytes once at full channel rate.
	dram := s.params.DRAMCyclesShared(s.cfg.ChunkSize+s.tagBytes, s.shareNow())
	crypto := s.codec.cryptoCycles()
	s.busyCycles += s.params.ChunkTime(dram, crypto) + s.params.ChunkIssueCycles
	s.dramCycles += s.params.DRAMCycles(s.cfg.ChunkSize + s.tagBytes)
}

// chargeHit accounts a buffer hit: on-chip access only.
//
//shef:hotpath
func (s *engineSet) chargeHit(nBytes int) {
	s.busyCycles += 1 + uint64(nBytes)/64
}

// dramAddrs returns the ciphertext and tag addresses of a chunk.
func (s *engineSet) dramAddrs(chunk int) (data, tag uint64) {
	data = s.cfg.Base + uint64(chunk*s.cfg.ChunkSize)
	tag = s.tagBase + uint64(chunk*s.tagBytes)
	return
}

// batchChunks is the write-side pipeline window in chunks, bounded by the
// pooled staging buffers.
func (s *engineSet) batchChunks() int {
	n := s.params.WritebackBatchChunks
	if n < 1 {
		n = 1
	}
	if n > streamWindowChunks {
		n = streamWindowChunks
	}
	return n
}

// The adaptive sequential prefetcher's geometry: after prefetchMinMisses
// consecutive ascending chunk misses in a region with SeqPrefetch, the
// engine set services the run through windows of up to
// prefetchWindowChunks chunks (at most one staging window).
const (
	prefetchMinMisses    = 4
	prefetchWindowChunks = streamWindowChunks
)

// prefetchDegree is how many chunks one prefetch window may move, bounded
// by the staging window and the on-chip buffer capacity.
func (s *engineSet) prefetchDegree() int {
	return min(prefetchWindowChunks, s.capacity)
}

// prefetchArmed reports whether the adaptive sequential prefetcher is
// configured for this set.
func (s *engineSet) prefetchArmed() bool {
	return s.cfg.SeqPrefetch && s.capacity > 1
}

// load makes a chunk resident, fetching/decrypting/verifying on miss.
// fill == false skips the DRAM fetch (full-chunk overwrite).
func (s *engineSet) load(chunk int, fill bool) (*bufLine, error) {
	if s.integrityErr != nil {
		return nil, s.integrityErr
	}
	if ln, ok := s.lines[chunk]; ok {
		s.touchResident(ln)
		return ln, nil
	}
	if fill && !s.initialized[chunk] {
		fill = false // virgin chunk: serve zeros from on-chip valid bits
	}
	if fill {
		// Feed the sequential-stride detector: a fetch miss extends the
		// ascending run or starts a new one.
		if chunk == s.seqNext {
			s.seqRun++
		} else {
			s.seqRun, s.seqStreak = 1, false
		}
		s.seqNext = chunk + 1
		if s.prefetchArmed() && s.seqRun >= prefetchMinMisses {
			// The detector fired: service the run through a pipelined
			// stream window instead of a chunk-at-a-time fetch.
			if err := s.prefetchRun(chunk); err != nil {
				return nil, err
			}
			ln := s.lines[chunk]
			s.lruTouch(ln)
			return ln, nil
		}
	}
	if err := s.evictFor(1); err != nil {
		return nil, err
	}
	ln := s.linePool.Get().(*bufLine)
	ln.dirty, ln.prefetched = false, false
	if fill {
		win := s.win
		if _, _, err := s.fetchRun(win, 0, chunk, 1); err != nil {
			s.linePool.Put(ln)
			return nil, err
		}
		s.jobSlots[0], s.jobChunks[0], s.jobDsts[0] = 0, chunk, ln.data
		s.runJob(true, 1)
		if err := win.errs[0]; err != nil {
			win.errs[0] = nil
			s.linePool.Put(ln)
			s.integrityErr = err
			return nil, err
		}
		s.chargeChunk()
		s.misses++
	} else {
		// Zero-filled line: no DRAM traffic, only issue cost.
		clear(ln.data)
		s.busyCycles += s.params.ChunkIssueCycles
		s.misses++
	}
	s.insertLine(chunk, ln)
	return ln, nil
}

// prefetchRun services a detected sequential run: the demand chunk plus up
// to prefetchDegree-1 chunks ahead move through one batched fetch and a
// decrypt/verify fan-out straight into buffer lines, charged with the
// overlapped stream-window accounting (the first window of a streak also
// pays pipeline fill/drain). The demand chunk is resident on return.
func (s *engineSet) prefetchRun(c0 int) error {
	cs := s.cfg.ChunkSize
	n := 1
	for max := s.prefetchDegree(); n < max; n++ {
		c := c0 + n
		if c >= s.cfg.Chunks() || !s.initialized[c] {
			break // a virgin or out-of-range chunk ends the run
		}
		if _, resident := s.lines[c]; resident {
			break // the fetch run must stay contiguous in DRAM
		}
	}
	if err := s.evictFor(n); err != nil {
		return err
	}

	win := s.win
	dramBusy, dramBus, err := s.fetchRun(win, 0, c0, n)
	if err != nil {
		return err
	}

	var lines [streamWindowChunks]*bufLine
	for i := 0; i < n; i++ {
		lines[i] = s.linePool.Get().(*bufLine)
		s.jobSlots[i], s.jobChunks[i], s.jobDsts[i] = i, c0+i, lines[i].data
	}
	s.runJob(true, n)
	for i := 0; i < n; i++ {
		if err := win.errs[i]; err != nil {
			win.errs[i] = nil
			for j := 0; j < n; j++ {
				s.linePool.Put(lines[j])
			}
			s.integrityErr = err
			return err
		}
	}
	for i := 0; i < n; i++ {
		ln := lines[i]
		ln.dirty = false
		ln.prefetched = i > 0 // the demand chunk is a plain miss
		s.insertLine(c0+i, ln)
	}

	s.misses++
	s.prefetched += uint64(n - 1)
	if n == 1 {
		// A window of one chunk is just the chunked fetch.
		s.chargeChunk()
	} else {
		pool, hmac := s.codec.cryptoStages(n)
		s.chargeOverlapped(dramBusy, dramBus, pool, hmac, uint64(n*cs)/64, !s.seqStreak)
		s.seqStreak = true
	}
	s.seqNext = c0 + n // a miss at the window's end continues the streak
	return nil
}

// evictFor makes room for n incoming lines, writing dirty victims back.
// Victims come off the LRU tail in strict recency order; their write-backs
// — extended with any resident dirty lines chunk-contiguous with a dirty
// victim, so one pipelined store covers the whole run (write combining) —
// go through writebackChunks in sorted chunk order.
//
//shef:deterministic
func (s *engineSet) evictFor(n int) error {
	need := len(s.lines) + n - s.capacity
	if need <= 0 {
		return nil
	}
	// Fast path: the steady-state chunked miss evicts one clean line —
	// O(1) off the list tail, no allocation (the common case the
	// intrusive LRU exists for).
	if need == 1 {
		if ln := s.lruVictim(); ln != nil && !ln.dirty {
			s.dropLine(ln)
			s.evictions++
			return nil
		}
	}
	victims := s.evictVictims[:0]
	for ln := s.lruRoot.prev; ln != &s.lruRoot && len(victims) < need; ln = ln.prev {
		victims = append(victims, ln)
	}
	// Gather the dirty chunks to store: every dirty victim seeds a run
	// that write combining extends across resident dirty neighbours (the
	// neighbours stay resident, but leave clean).
	if s.evictSet == nil {
		s.evictSet = make(map[int]bool)
	}
	dirtySet := s.evictSet
	clear(dirtySet)
	limit := s.batchChunks()
	extend := func(from, step int) {
		for c, span := from, 1; span < limit; c, span = c+step, span+1 {
			if nb, ok := s.lines[c]; !ok || !nb.dirty || dirtySet[c] {
				return
			}
			dirtySet[c] = true
		}
	}
	for _, ln := range victims {
		if !ln.dirty {
			continue
		}
		dirtySet[ln.chunk] = true
		extend(ln.chunk-1, -1)
		extend(ln.chunk+1, +1)
	}
	if len(dirtySet) > 0 {
		dirty := s.evictDirty[:0]
		//shef:ignore membership set collected into a slice and sorted before use
		for c := range dirtySet {
			dirty = append(dirty, c)
		}
		slices.Sort(dirty)
		s.evictDirty = dirty
		// No fill/drain charge: eviction write-backs interleave with the
		// demand traffic that forced them, so the write pipeline is
		// already primed (contrast flush, which drains it).
		if err := s.writebackChunks(dirty, false); err != nil {
			return err
		}
	}
	for _, ln := range victims {
		s.dropLine(ln)
		s.evictions++
	}
	// Keep the grown list, but not the dropped lines it points to.
	clear(victims)
	s.evictVictims = victims[:0]
	return nil
}

// writebackChunks seals and stores the given resident dirty chunks, which
// must be sorted ascending. Maximal contiguous runs move through pipelined
// windows of up to batchChunks: seal fan-out across the engine pool into
// pooled staging, then one AXI store transaction for the run's ciphertext
// and one for its tags, charged with the overlapped window accounting.
// Runs of a single chunk keep the chunked ChunkTime charge — batching
// cannot help them. Freshness counters bump exactly once per chunk before
// sealing, and valid bits are set exactly as the serial path would.
// fillDrain charges the one-time pipeline fill/drain on the first batched
// window (a flush drains the pipeline; eviction write-backs do not).
func (s *engineSet) writebackChunks(chunks []int, fillDrain bool) error {
	if s.integrityErr != nil {
		return s.integrityErr
	}
	first := fillDrain
	cs := s.cfg.ChunkSize
	return axi.ForEachRunCapped(chunks, s.batchChunks(), func(c0, n int) error {
		if s.cfg.Freshness {
			for i := 0; i < n; i++ {
				s.counters[c0+i]++ // bump before sealing the new epoch
			}
		}
		win := s.win
		for i := 0; i < n; i++ {
			s.jobSlots[i], s.jobChunks[i], s.jobDsts[i] = i, c0+i, s.lines[c0+i].data
		}
		s.runJob(false, n)
		dramBusy, dramBus, err := s.storeRun(win, 0, c0, n)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			chunk := c0 + i
			s.initialized[chunk] = true
			s.lines[chunk].dirty = false
		}
		s.writebacks += uint64(n)
		if n == 1 {
			s.chargeChunk()
			return nil
		}
		pool, hmac := s.codec.cryptoStages(n)
		s.chargeOverlapped(dramBusy, dramBus, pool, hmac, uint64(n*cs)/64, first)
		first = false
		s.batchedWritebacks += uint64(n)
		return nil
	})
}

// runJob runs the seal (open=false) or open (open=true) job described by
// jobSlots/jobChunks/jobDsts[0..n-1] across the engine pool — the
// hardware's parallelism made real by persistent worker goroutines.
// Callers hold s.mu, so worker reads of counters and the sealer are
// exclusive with all mutation.
//
// The job splits into contiguous spans, one per participating worker, so
// each span is one batched engine call: a single scratch checkout (CTR
// state, HMAC streams, PMAC scratch, MAC message buffer) serves the whole
// run of chunks instead of a checkout per chunk. For open jobs, item k's
// verdict lands in win.errs[k].
//
//shef:hotpath
func (s *engineSet) runJob(open bool, n int) {
	if n <= 0 {
		return
	}
	s.jobOpen, s.jobN = open, n
	workers := s.cfg.AESEngines
	if workers > n {
		workers = n
	}
	if workers <= 1 || s.inlineFan {
		// One worker — or one P, where handing spans to pool goroutines
		// costs a context switch each and overlaps nothing. Run the whole
		// job on the caller's goroutine (span width n covers every item).
		s.jobSpan = n
		s.spanWork(0)
		s.clearJob(n)
		return
	}
	span := (n + workers - 1) / workers
	s.jobSpan = span
	nspans := (n + span - 1) / span
	s.ensureWorkers(nspans - 1)
	s.fanWG.Add(nspans - 1)
	for w := 1; w < nspans; w++ {
		s.fanTasks <- w
	}
	s.spanWork(0) // the caller is worker zero
	s.fanWG.Wait()
	s.clearJob(n)
}

// clearJob drops the job's buffer references so a finished window does
// not pin caller buffers until the next job.
func (s *engineSet) clearJob(n int) {
	for k := 0; k < n; k++ {
		s.jobDsts[k] = nil
	}
}

// spanWork processes job items [w*jobSpan, min((w+1)*jobSpan, jobN)) on
// the span's dedicated scratch. Runs on the caller's goroutine for span 0
// and on pool workers for the rest.
//
//shef:hotpath
func (s *engineSet) spanWork(w int) {
	lo := w * s.jobSpan
	hi := lo + s.jobSpan
	if hi > s.jobN {
		hi = s.jobN
	}
	sc := s.scratches[w]
	if sc == nil {
		sc = s.codec.newScratch()
		s.scratches[w] = sc
	}
	cs, tb := s.cfg.ChunkSize, s.tagBytes
	win := s.win
	for k := lo; k < hi; k++ {
		slot, chunk := s.jobSlots[k], s.jobChunks[k]
		ct := win.ct[slot*cs : (slot+1)*cs]
		tag := win.tags[slot*tb : (slot+1)*tb]
		if s.jobOpen {
			win.errs[k] = s.codec.openChunkWith(sc, s.jobDsts[k], chunk, s.counters[chunk], ct, tag)
		} else {
			s.codec.sealChunkWith(sc, ct, tag, chunk, s.counters[chunk], s.jobDsts[k])
		}
	}
}

// ensureWorkers grows the persistent worker pool to at least k workers.
// Workers live until stopWorkers retires them (releaseOCM, detachMeta or
// Shield.Close); in steady state a job costs no goroutine spawns and no
// closures.
func (s *engineSet) ensureWorkers(k int) {
	if s.fanTasks == nil {
		s.fanTasks = make(chan int, streamWindowChunks)
	}
	for s.fanWorkers < k {
		s.fanWorkers++
		go s.fanWorker()
	}
}

func (s *engineSet) fanWorker() {
	// The pool goroutine carries the engine set's profiling label for its
	// whole life, so a CPU profile attributes crypto fan-out work to the
	// region (store vs tls) it ran for. Workers spawned while no harness
	// is active take the direct branch and never touch the profiling
	// layer; harness runs build their clusters (and hence workers) after
	// Start, so sweeps are labelled.
	if profiling.Enabled() {
		profiling.Do(context.Background(), s.fanLoop, "engine-set", s.cfg.Name)
		return
	}
	s.fanLoop()
}

// fanLoop drains the task channel until stopWorkers closes it.
func (s *engineSet) fanLoop() {
	for w := range s.fanTasks {
		s.spanWork(w)
		s.fanWG.Done()
	}
}

// stopWorkers retires the worker pool (no job may be in flight).
func (s *engineSet) stopWorkers() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fanTasks != nil {
		close(s.fanTasks)
		s.fanTasks = nil
		s.fanWorkers = 0
	}
}

// chargeOverlapped accounts one pipeline window under the overlapped
// model: the window is paced by its slowest stage (DRAM, the AES pool, the
// serial HMAC core, or the on-chip copy), the first window of a pipeline
// additionally pays fill/drain, and the per-window issue cost replaces the
// chunked path's per-chunk issue cost.
func (s *engineSet) chargeOverlapped(dramBusy, dramBus, poolStage, hmacStage, copyStage uint64, first bool) {
	s.busyCycles += s.params.StreamWindowTime(dramBusy, poolStage, hmacStage, copyStage) + s.params.ChunkIssueCycles
	if first {
		s.busyCycles += s.params.StreamFillDrain(dramBusy, poolStage, hmacStage, copyStage)
	}
	s.dramCycles += dramBus
}

// read copies region bytes [addr, addr+len(buf)) into buf and returns the
// engine-set busy cycles the access cost.
func (s *engineSet) read(addr uint64, buf []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.busyCycles
	off := addr - s.cfg.Base
	for done := 0; done < len(buf); {
		chunk := int((off + uint64(done)) / uint64(s.cfg.ChunkSize))
		inOff := int((off + uint64(done)) % uint64(s.cfg.ChunkSize))
		ln, err := s.load(chunk, true)
		if err != nil {
			return s.busyCycles - start, err
		}
		n := copy(buf[done:], ln.data[inOff:])
		s.chargeHit(n)
		s.hits++
		done += n
	}
	return s.busyCycles - start, nil
}

// write stores data at addr and returns the busy cycles the access cost.
func (s *engineSet) write(addr uint64, data []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.busyCycles
	off := addr - s.cfg.Base
	for done := 0; done < len(data); {
		chunk := int((off + uint64(done)) / uint64(s.cfg.ChunkSize))
		inOff := int((off + uint64(done)) % uint64(s.cfg.ChunkSize))
		n := s.cfg.ChunkSize - inOff
		if n > len(data)-done {
			n = len(data) - done
		}
		// Full-chunk overwrites never fetch. Partial writes to virgin
		// chunks zero-fill via the valid bits inside load, which subsumes
		// the paper's ZeroFillWrites optimisation while staying correct
		// for partial rewrites.
		fullOverwrite := inOff == 0 && n == s.cfg.ChunkSize
		ln, err := s.load(chunk, !fullOverwrite)
		if err != nil {
			return s.busyCycles - start, err
		}
		copy(ln.data[inOff:], data[done:done+n])
		ln.dirty = true
		s.chargeHit(n)
		s.hits++
		done += n
	}
	return s.busyCycles - start, nil
}

// flush writes back every dirty line (end of kernel / result publication)
// in ascending chunk order — deterministic DRAM write order and cycle
// accounting — with contiguous runs batched through pipelined windows.
//
//shef:deterministic
func (s *engineSet) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flushScratch == nil {
		s.flushScratch = make([]int, 0, s.capacity)
	}
	dirty := s.flushScratch[:0]
	//shef:ignore dirty indices collected then sorted; write order is the sorted slice
	for idx, ln := range s.lines {
		if ln.dirty {
			dirty = append(dirty, idx)
		}
	}
	slices.Sort(dirty)
	s.flushScratch = dirty[:0]
	return s.writebackChunks(dirty, true)
}

// invalidateClean drops clean buffer lines.
func (s *engineSet) invalidateClean() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ln := range s.lines {
		if !ln.dirty {
			s.dropLine(ln)
		}
	}
}

// stats snapshots the set's counters for Shield.Report.
func (s *engineSet) stats() RegionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RegionStats{
		Name:              s.cfg.Name,
		Channel:           s.cfg.Channel,
		Hits:              s.hits,
		Misses:            s.misses,
		Evictions:         s.evictions,
		Writebacks:        s.writebacks,
		BatchedWritebacks: s.batchedWritebacks,
		Streamed:          s.streamed,
		StreamWindows:     s.streamWindows,
		Prefetched:        s.prefetched,
		PrefetchHits:      s.prefetchHits,
		BusyCycles:        s.busyCycles,
		DRAMCycles:        s.dramCycles,
	}
}

// resetStats zeroes the set's counters.
func (s *engineSet) resetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busyCycles, s.dramCycles = 0, 0
	s.hits, s.misses, s.evictions, s.writebacks = 0, 0, 0, 0
	s.batchedWritebacks = 0
	s.streamed, s.streamWindows = 0, 0
	s.prefetched, s.prefetchHits = 0, 0
}

// markPreloaded sets every valid bit (host DMAed sealed data into DRAM).
func (s *engineSet) markPreloaded() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.initialized {
		s.initialized[i] = true
	}
}

// markPreloadedChunks sets the valid bits of chunks [from, to) only, so a
// partial DMA leaves virgin chunks serving zeros (and never trusting
// uninitialised DRAM). It also drops resident clean lines in the range:
// their plaintext predates the DMA.
func (s *engineSet) markPreloadedChunks(from, to int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := from; c < to; c++ {
		s.initialized[c] = true
		if ln, ok := s.lines[c]; ok && !ln.dirty {
			s.dropLine(ln)
		}
	}
}

// counterSnapshot copies the freshness counters out under the lock.
func (s *engineSet) counterSnapshot() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint32(nil), s.counters...)
}

// IntegrityError reports a failed MAC verification: spoofed, spliced,
// replayed, or corrupted off-chip data.
type IntegrityError struct {
	Region string
	Chunk  int
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("shield: integrity violation in region %q chunk %d (off-chip data tampered or replayed)", e.Region, e.Chunk)
}
