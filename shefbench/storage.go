package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shef/internal/crypto/aesx"
	"shef/internal/sdp"
	"shef/internal/shield"
)

// storageSpec is one storage workload: the fleet, the files, the request
// mix, and the open-loop rate and tail percentiles fixed for it.
type storageSpec struct {
	shards    int
	replicas  int
	node      sdp.NodeConfig
	fileBytes int
	mix       mix
	rate      float64 // open-loop arrivals/s over all workers
	// workers is the open loop's worker count. blob and oblivious use
	// one: their requests fan out over the engine sets' worker pools, so
	// two concurrent requests fight over the CPUs and their latency
	// tracks how much CPU the host lends, not the program.
	workers int
	simOps  int // closed-loop prefix the simulated counters cover
	warmOps int
	tails   tails
}

// tails says how the open loop's latencies are summarised. The window
// is cut into subs equal slices; each metric is the median over slices
// of that slice's percentile, so one host stall moves one slice, not the
// result. get, put and session are the percentiles reported as
// *_tail_ms: the highest that keeps at least ten samples of a slice
// beyond it at the default run length.
type tails struct {
	subs              int
	get, put, session float64
}

func nodeConfig(slots, slotBytes int) sdp.NodeConfig {
	return sdp.NodeConfig{
		Slots: slots, SlotBytes: slotBytes, AuthBlock: 4096,
		Engines: 4, SBox: aesx.SBox16x, MAC: shield.PMAC,
		BufferBytes: 16 << 10,
	}
}

func kvHotSpec() *storageSpec {
	n := nodeConfig(256, 4096)
	n.WriteBack = true
	n.ResponseCacheBytes = 256 << 10
	return &storageSpec{
		shards: 3, replicas: 3, node: n, fileBytes: 4096,
		mix:  mix{files: 256, zipf: 1.1, putFrac: 0.1},
		rate: kvHotRate, workers: 2,
		simOps: 20000, warmOps: 5000,
		tails: tails{subs: 12, get: 0.99, put: 0.98, session: 0.99},
	}
}

func blobSpec() *storageSpec {
	return &storageSpec{
		shards: 2, replicas: 1, node: nodeConfig(32, 256<<10), fileBytes: 256 << 10,
		mix:  mix{files: 32, putFrac: 0.5},
		rate: blobRate, workers: 1,
		simOps: 300, warmOps: 64,
		tails: tails{subs: 1, get: 0.97, put: 0.97, session: 0.98},
	}
}

func obliviousSpec() *storageSpec {
	n := nodeConfig(64, 4096)
	n.Oblivious = true
	return &storageSpec{
		shards: 2, replicas: 1, node: n, fileBytes: 4096,
		mix:  mix{files: 64, putFrac: 0.25},
		rate: obliviousRate, workers: 1,
		simOps: 2000, warmOps: 500,
		tails: tails{subs: 4, get: 0.98, put: 0.95, session: 0.99},
	}
}

// Open-loop arrival rates (requests/s over all workers), about half of
// each workload's single-client capacity on the host BENCHMARK.json
// was tuned on.
const (
	kvHotRate     = 5000
	blobRate      = 60
	obliviousRate = 250
)

const users = 4

// storageRun is one booted, preloaded fleet.
type storageRun struct {
	spec  *storageSpec
	seed  uint64
	c     *sdp.Cluster
	users []string
	names []string
	files []fileState
}

type fileState struct {
	mu    sync.Mutex    // serialises writes, so versions land in order
	acked atomic.Uint64 // newest acknowledged version
}

func (r *storageRun) user(file int) string { return r.users[file%len(r.users)] }

// setupStorage boots the fleet, registers the users, stores version 1
// of every file and runs the warm-up stream, all from seed.
func setupStorage(spec *storageSpec, seed uint64) (*storageRun, error) {
	c, err := sdp.NewCluster(sdp.ClusterConfig{Shards: spec.shards, Replicas: spec.replicas, Node: spec.node})
	if err != nil {
		return nil, err
	}
	r := &storageRun{spec: spec, seed: seed, c: c, files: make([]fileState, spec.mix.files)}
	for u := range users {
		key := make([]byte, 32)
		fillRandom(key, seed^uint64(u+1)<<56)
		r.users = append(r.users, fmt.Sprintf("owner-%d", u))
		if err := c.RegisterUser(r.users[u], key); err != nil {
			return nil, err
		}
	}
	for i := range spec.mix.files {
		r.names = append(r.names, fmt.Sprintf("file-%04d", i))
	}
	w, err := r.newWorker(nil)
	if err != nil {
		return nil, err
	}
	for i := range r.files {
		if _, _, err := w.do(op{kind: opPut, file: i}); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	g := newGen(seed, warmStream, spec.mix, 0)
	for range spec.warmOps {
		if _, _, err := w.do(g.next()); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}

// storageWorker is one client goroutine's state.
type storageWorker struct {
	r      *storageRun
	cl     *sdp.Client
	put    []byte
	putFor [2]uint64 // file+1 and version the put buffer holds
	got    []byte
	rec    *recorder
	reqs   uint64
}

func (r *storageRun) newWorker(rec *recorder) (*storageWorker, error) {
	cl, err := r.c.NewClient()
	if err != nil {
		return nil, err
	}
	return &storageWorker{
		r: r, cl: cl, rec: rec,
		put: make([]byte, r.spec.fileBytes),
		got: make([]byte, 0, r.spec.fileBytes),
	}, nil
}

// prepare builds the payload a Put of o would write next, so that
// generating it stays outside the request's timed interval.
func (w *storageWorker) prepare(o op) {
	if o.kind != opPut {
		return
	}
	v := w.r.files[o.file].acked.Load() + 1
	if w.putFor != [2]uint64{uint64(o.file) + 1, v} {
		fillPayload(w.put, w.r.seed, o.file, v)
		w.putFor = [2]uint64{uint64(o.file) + 1, v}
	}
}

// errWrong marks a request that completed but returned the wrong data.
var errWrong = errors.New("wrong result")

// do performs o and reports when the request was sent and when it
// completed. A Get is checked after it completes: it must return a whole
// payload of the requested file no older than the newest version
// acknowledged before it was sent.
func (w *storageWorker) do(o op) (sent, done time.Time, err error) {
	f := &w.r.files[o.file]
	user, name := w.r.user(o.file), w.r.names[o.file]
	w.reqs++
	if o.kind == opPut {
		f.mu.Lock()
		defer f.mu.Unlock()
		w.prepare(o)
		sent = time.Now()
		err = w.doPut(user, name)
		done = time.Now()
		if err == nil {
			f.acked.Store(w.putFor[1])
		}
		return sent, done, err
	}
	want := f.acked.Load()
	sent = time.Now()
	err = w.doGet(user, name)
	done = time.Now()
	if err != nil {
		return sent, done, err
	}
	v, err := checkPayload(w.got, o.file, w.r.spec.fileBytes)
	if err == nil && v < want {
		err = fmt.Errorf("file %d: read version %d after version %d was acknowledged", o.file, v, want)
	}
	if err != nil {
		err = fmt.Errorf("%w: %w", errWrong, err)
	}
	return sent, done, err
}

// doPut stores w.put. Untraced it is the one call a Data Owner makes;
// traced it is the same path split at its public seams: the client-side
// seal, then the sealed store (a replicated Put re-seals per replica
// inside the cluster, so it is timed whole).
func (w *storageWorker) doPut(user, name string) error {
	if w.rec == nil {
		return w.cl.Put(user, name, w.put)
	}
	root := w.rec.begin(spOpPut, w.reqs, 0)
	defer w.rec.end(root)
	if w.r.spec.replicas > 1 {
		s := w.rec.begin(spClusterPut, w.reqs, root)
		defer w.rec.end(s)
		return w.cl.Put(user, name, w.put)
	}
	s := w.rec.begin(spSeal, w.reqs, root)
	ct, tags, err := w.cl.Session(name).Seal(w.put)
	w.rec.end(s)
	if err != nil {
		return err
	}
	s = w.rec.begin(spPutSealed, w.reqs, root)
	defer w.rec.end(s)
	return w.cl.PutSealed(user, name, len(w.put), ct, tags)
}

// doGet reads into w.got, split like doPut when traced: the sealed
// fetch, then the client-side open.
func (w *storageWorker) doGet(user, name string) error {
	var err error
	if w.rec == nil {
		w.got, err = w.cl.Get(user, name, w.got)
		return err
	}
	root := w.rec.begin(spOpGet, w.reqs, 0)
	defer w.rec.end(root)
	s := w.rec.begin(spGetSealed, w.reqs, root)
	size, sess, err := w.cl.GetSealed(user, name)
	w.rec.end(s)
	if err != nil {
		return err
	}
	s = w.rec.begin(spOpen, w.reqs, root)
	defer w.rec.end(s)
	ct, tags := sess.Buffers()
	w.got, err = sess.Open(w.got, ct, tags, size)
	return err
}

// closedSlices is how many equal slices of its budget a closed-loop
// window is cut into. ops_per_s is the median of the slices' rates, so a
// host stall moves one slice, not the result.
const closedSlices = 8

// closed is what a closed-loop window did.
type closed struct {
	ops, failed int
	payload     uint64 // payload bytes moved by the first simOps requests
	start       time.Time
	budget      time.Duration
	sliceOps    [closedSlices]int
	sliceBusy   [closedSlices]time.Duration // summed request time, checks excluded
}

func newClosed(budget time.Duration) closed { return closed{start: time.Now(), budget: budget} }

// record counts one request that was busy for busy.
func (c *closed) record(busy time.Duration) {
	i := closedSlices - 1
	if c.budget > 0 {
		i = min(int(time.Since(c.start)*closedSlices/c.budget), i)
	}
	c.ops++
	c.sliceOps[i]++
	c.sliceBusy[i] += busy
}

func (c *closed) running() bool { return time.Since(c.start) < c.budget }

func (c closed) opsPerSec() float64 {
	var rates []float64
	for i, n := range c.sliceOps {
		if n > 0 {
			rates = append(rates, float64(n)/c.sliceBusy[i].Seconds())
		}
	}
	return median(rates)
}

// closedLoop sends g's requests one after another from a single client
// until budget has passed and at least minOps were sent; atMin runs
// right after request minOps. With one client the simulated counters
// depend only on the request sequence.
func (r *storageRun) closedLoop(w *storageWorker, g *gen, minOps int, budget time.Duration, atMin func(), res *result) closed {
	c := newClosed(budget)
	for c.ops < minOps || c.running() {
		o := g.next()
		w.prepare(o)
		sent, done, err := w.do(o)
		c.record(done.Sub(sent))
		if c.ops <= minOps {
			c.payload += uint64(r.spec.fileBytes)
		}
		if err != nil {
			c.failed++
			res.problem(err)
		}
		if c.ops == minOps && atMin != nil {
			atMin()
		}
	}
	return c
}

// verifyAll is the check after the measured windows: make the fleet
// durable and consistent, then read every file back and require exactly
// the newest acknowledged version. It returns how many files failed.
func (r *storageRun) verifyAll(res *result) int {
	if err := r.c.Sync(); err != nil {
		res.problem(fmt.Errorf("sync: %w", err))
		return len(r.files)
	}
	w, err := r.newWorker(nil)
	if err != nil {
		res.problem(err)
		return len(r.files)
	}
	bad := 0
	for i := range r.files {
		got, err := w.cl.Get(r.user(i), r.names[i], w.got)
		if err == nil {
			var v uint64
			v, err = checkPayload(got, i, r.spec.fileBytes)
			if want := r.files[i].acked.Load(); err == nil && v != want {
				err = fmt.Errorf("file %d: holds version %d, want %d", i, v, want)
			}
		}
		if err != nil {
			bad++
			res.problem(fmt.Errorf("final read: %w", err))
		}
	}
	return bad
}

// storageSnap is every public counter the per-layer table reads.
type storageSnap struct {
	cs                     sdp.ClusterStats
	store, tls             shield.RegionStats
	lookupHits, lookupMiss uint64
	cacheHits, cacheMiss   uint64
	oramAcc, oramBytes     uint64
	stashMax               int
	dramRead, dramWrite    uint64
	goStats
}

func (r *storageRun) snapshot() storageSnap {
	s := storageSnap{cs: r.c.Stats()}
	for i := range r.c.Shards() {
		n := r.c.Node(i)
		rep := n.Report()
		for _, rs := range rep.Regions {
			switch rs.Name {
			case "store":
				addRegion(&s.store, rs)
			case "tls":
				addRegion(&s.tls, rs)
			}
		}
		s.lookupHits += rep.Lookup.Hits
		s.lookupMiss += rep.Lookup.Misses
		h, m, _ := n.RespCacheStats()
		s.cacheHits += h
		s.cacheMiss += m
		if o := n.ORAM(); o != nil {
			acc, moved, stash := o.Stats()
			s.oramAcc += acc
			s.oramBytes += moved
			s.stashMax = max(s.stashMax, stash)
		}
		_, _, rb, wb := n.DRAM().Stats()
		s.dramRead += rb
		s.dramWrite += wb
	}
	s.goStats, _ = readGo()
	return s
}

func addRegion(dst *shield.RegionStats, s shield.RegionStats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Writebacks += s.Writebacks
	dst.BatchedWritebacks += s.BatchedWritebacks
	dst.Streamed += s.Streamed
	dst.StreamWindows += s.StreamWindows
	dst.BusyCycles += s.BusyCycles
	dst.DRAMCycles += s.DRAMCycles
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerCounters fills the per-layer counters from the window between
// snapshots b and e, which covered ops requests moving payload bytes.
// The cluster's stats were reset at b, so e's per-shard maximum is the
// window's.
func layerCounters(res *result, b, e storageSnap, ops int, payload uint64) {
	n := uint64(ops)
	st, tl := e.store, e.tls
	sub := func(x, y uint64) uint64 { return x - y }
	res.layer("sim_ops_per_s", float64(ops)/(float64(e.cs.MaxBusy)/sdp.LineRateParams().ClockHz))
	res.layer("sdp.retries_per_kop", 1000*ratio(sub(e.cs.Retries, b.cs.Retries), n))
	res.layer("sdp.fallback_reads_per_kop", 1000*ratio(sub(e.cs.FallbackReads, b.cs.FallbackReads), n))
	hits, miss := sub(e.cacheHits, b.cacheHits), sub(e.cacheMiss, b.cacheMiss)
	res.layer("sdp.resp_cache.hit_ratio", ratio(hits, hits+miss))
	res.layer("sdp.busy_cycles_per_op", ratio(sub(e.cs.BusyCycles, b.cs.BusyCycles), n))
	res.layer("sdp.max_busy_cycles_per_op", ratio(e.cs.MaxBusy, n))
	sh, sm := sub(st.Hits, b.store.Hits), sub(st.Misses, b.store.Misses)
	res.layer("shield.store.hit_ratio", ratio(sh, sh+sm))
	res.layer("shield.store.misses_per_op", ratio(sm, n))
	wbs := sub(st.Writebacks, b.store.Writebacks)
	res.layer("shield.store.writebacks_per_op", ratio(wbs, n))
	res.layer("shield.store.batched_writeback_frac", ratio(sub(st.BatchedWritebacks, b.store.BatchedWritebacks), wbs))
	streamed := sub(st.Streamed+tl.Streamed, b.store.Streamed+b.tls.Streamed)
	res.layer("shield.streamed_chunks_per_op", ratio(streamed, n))
	res.layer("shield.chunks_per_window", ratio(streamed, sub(st.StreamWindows+tl.StreamWindows, b.store.StreamWindows+b.tls.StreamWindows)))
	res.layer("shield.store.busy_cycles_per_op", ratio(sub(st.BusyCycles, b.store.BusyCycles), n))
	res.layer("shield.tls.busy_cycles_per_op", ratio(sub(tl.BusyCycles, b.tls.BusyCycles), n))
	res.layer("shield.dram_cycles_per_op", ratio(sub(st.DRAMCycles+tl.DRAMCycles, b.store.DRAMCycles+b.tls.DRAMCycles), n))
	lh, lm := sub(e.lookupHits, b.lookupHits), sub(e.lookupMiss, b.lookupMiss)
	res.layer("shield.lookup.hit_ratio", ratio(lh, lh+lm))
	res.layer("oram.accesses_per_op", ratio(sub(e.oramAcc, b.oramAcc), n))
	res.layer("oram.bytes_moved_per_payload_byte", ratio(sub(e.oramBytes, b.oramBytes), payload))
	res.layer("oram.stash_max", float64(e.stashMax))
	res.layer("mem.dram.read_bytes_per_payload_byte", ratio(sub(e.dramRead, b.dramRead), payload))
	res.layer("mem.dram.write_bytes_per_payload_byte", ratio(sub(e.dramWrite, b.dramWrite), payload))
	goLayers(res, b.goStats, e.goStats, ops)
}

func goLayers(res *result, b, e goStats, ops int) {
	res.layer("go.alloc_bytes_per_op", ratio(e.allocBytes-b.allocBytes, uint64(ops)))
	res.layer("go.gc_cycles_per_kop", 1000*ratio(e.gcCycles-b.gcCycles, uint64(ops)))
}

// runStorage runs one storage workload: set-up, a closed-loop capacity
// window with one client, an open-loop latency window, the final check,
// and the repeated set-ups that make setup_s a median.
func runStorage(spec *storageSpec, cfg runConfig) (*result, error) {
	res := newResult()
	t := time.Now()
	r, err := setupStorage(spec, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	firstSetup := time.Since(t).Seconds()

	mem := startSampler(nil)
	closedBudget, openWindow := cfg.split()
	w0, err := r.newWorker(nil)
	if err != nil {
		return nil, err
	}
	g0 := newGen(cfg.seed, 0, spec.mix, 0)
	r.c.ResetStats()
	base := r.snapshot()
	var simEnd storageSnap
	c := r.closedLoop(w0, g0, spec.simOps, closedBudget, func() { simEnd = r.snapshot() }, res)
	res.attempted += c.ops
	res.failed += c.failed
	res.e2e("ops_per_s", c.opsPerSec())
	layerCounters(res, base, simEnd, spec.simOps, c.payload)

	var recs []*recorder
	if cfg.trace {
		w0.rec = newRecorder(cfg.epoch, 1<<16)
		recs = append(recs, w0.rec)
		t := r.closedLoop(w0, g0, 0, closedBudget, nil, res)
		res.attempted += t.ops
		res.failed += t.failed
		res.layer("bench.trace_overhead_pct", 100*(1-t.opsPerSec()/c.opsPerSec()))
	}

	workers := openWorkers(spec.workers)
	ws := make([]*storageWorker, workers)
	gens := make([]*gen, workers)
	lat := make([]latencies, workers)
	for i := range lat {
		lat[i] = make(latencies, spec.tails.subs)
	}
	for i := range ws {
		var rec *recorder
		if cfg.trace {
			rec = newRecorder(cfg.epoch, 1<<16)
			recs = append(recs, rec)
		}
		if ws[i], err = r.newWorker(rec); err != nil {
			return nil, err
		}
		ws[i].reqs = uint64(i+1) << 40
		gens[i] = newGen(cfg.seed, uint64(1+i), spec.mix, spec.rate/float64(workers))
	}
	open := runOpen(openWindow, spec.tails.subs, gens, func(w int, o op) { ws[w].prepare(o) }, func(w int, o op, due time.Time, sub int) bool {
		_, done, err := ws[w].do(o)
		lat[w][sub].add(o.kind, ms(done.Sub(due)))
		if err != nil {
			res.problem(err)
		}
		return err == nil
	})
	res.e2e("mem_peak_MB", mem.finish())
	res.attempted += open.attempted
	res.failed += open.failed
	res.openLoop(open, spec.rate, workers, lat, spec.tails)

	res.failed += r.verifyAll(res)
	if cfg.trace {
		res.spans(recs)
	}
	setup, err := repeatSetups(firstSetup, func() error {
		_, err := setupStorage(spec, cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.e2e("setup_s", setup)
	return res, nil
}
