// Command shefbench is the repository's end-to-end benchmark. It runs
// one named workload against the ShEF stack for a given seed and prints
// every metric by name with its unit, then the output-check verdict and
// a one-line JSON result as the last line of standard output.
//
//	go run . -workload kv-hot -seed 1 -seconds 10 -trace 0
//
// Storage workloads (kv-hot, blob, oblivious) drive sdp.Client in
// process; the attest workload runs Data Owner sessions over loopback
// TCP against a hostapp.VendorServer. Each has a closed-loop capacity
// window with one client, then an open-loop window of Poisson arrivals
// at a fixed rate, timed from when each request was due. -trace 1 runs
// the traced variant, which prints the per-layer metrics instead and
// writes its spans under -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// setupRepeats is how many times a run sets up its workload; setup_s is
// the median. The first set-up is the one measured.
const setupRepeats = 7

// repeatSetups runs setup until setupRepeats set-ups are timed, first
// included, and returns the median time. It runs after the measured
// windows: a discarded fleet stays reachable through its engine sets'
// worker goroutines, so repeats made before would inflate mem_peak_MB
// and the garbage collector's work.
func repeatSetups(first float64, setup func() error) (float64, error) {
	times := []float64{first}
	for len(times) < setupRepeats {
		t := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times), nil
}

type unitName struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every untraced run reports. On
// the storage workloads get and put are the two request kinds; on attest
// get is the bitstream fetch, put the key provisioning and accelerator
// load.
var e2eMetrics = []unitName{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"get_p50_ms", "ms"},
	{"put_p50_ms", "ms"},
	{"mem_peak_MB", "MB"},
}

// layerMetrics are the per-layer metrics every traced run reports. A
// layer a workload does not exercise reads 0. The open loop's tails and
// session p50 (a session is any request on the storage workloads, the
// whole Data Owner session on attest) are here rather than end to end:
// on a virtualised host they are set by stalls of the host more than by
// the program, so they carry no bound.
var layerMetrics = []unitName{
	{"sim_ops_per_s", "1/s"},
	{"fail_frac", "ratio"},
	{"session_p50_ms", "ms"},
	{"get_tail_ms", "ms"},
	{"put_tail_ms", "ms"},
	{"session_tail_ms", "ms"},
	{"sdp.cluster.get_sealed.self_ms", "ms"},
	{"sdp.cluster.put_sealed.ms", "ms"},
	{"sdp.cluster.put.ms", "ms"},
	{"sdp.retries_per_kop", "count"},
	{"sdp.fallback_reads_per_kop", "count"},
	{"sdp.resp_cache.hit_ratio", "ratio"},
	{"sdp.busy_cycles_per_op", "cycles"},
	{"sdp.max_busy_cycles_per_op", "cycles"},
	{"sdp.client.seal.ms", "ms"},
	{"sdp.client.open.ms", "ms"},
	{"shield.store.hit_ratio", "ratio"},
	{"shield.store.misses_per_op", "count"},
	{"shield.store.writebacks_per_op", "count"},
	{"shield.store.batched_writeback_frac", "ratio"},
	{"shield.streamed_chunks_per_op", "count"},
	{"shield.chunks_per_window", "count"},
	{"shield.store.busy_cycles_per_op", "cycles"},
	{"shield.tls.busy_cycles_per_op", "cycles"},
	{"shield.dram_cycles_per_op", "cycles"},
	{"shield.lookup.hit_ratio", "ratio"},
	{"oram.accesses_per_op", "count"},
	{"oram.bytes_moved_per_payload_byte", "ratio"},
	{"oram.stash_max", "count"},
	{"mem.dram.read_bytes_per_payload_byte", "ratio"},
	{"mem.dram.write_bytes_per_payload_byte", "ratio"},
	{"hostapp.shed_frac", "ratio"},
	{"hostapp.queued_max", "count"},
	{"attest.fetch.ms", "ms"},
	{"attest.provision.ms", "ms"},
	{"attest.provision.first_byte_ms", "ms"},
	{"attest.bytes_per_session", "B"},
	{"boot.load.ms", "ms"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles_per_kop", "count"},
	{"bench.gen_lag_tail_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"kv-hot":    func(c runConfig) (*result, error) { return runStorage(kvHotSpec(), c) },
	"blob":      func(c runConfig) (*result, error) { return runStorage(blobSpec(), c) },
	"oblivious": func(c runConfig) (*result, error) { return runStorage(obliviousSpec(), c) },
	"attest":    runAttest,
}

type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	epoch   time.Time // shared time origin of every span in the run
}

// split divides the run's measured time between the closed-loop window
// (two of them when traced: untraced, then traced) and the open-loop
// window.
func (c runConfig) split() (closedWindow, openWindow time.Duration) {
	total := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		return total / 5, total * 3 / 5
	}
	return total * 2 / 5, total * 3 / 5
}

// openWorkers caps an open loop's worker count at the CPU count, so the
// offered concurrency does not exceed the CPUs.
func openWorkers(want int) int { return min(want, runtime.GOMAXPROCS(0)) }

// sample holds request times in ms, from when each was due.
type sample struct{ get, put, session []float64 }

func (l *sample) add(k opKind, v float64) {
	if k == opPut {
		l.put = append(l.put, v)
	} else {
		l.get = append(l.get, v)
	}
	l.session = append(l.session, v)
}

// latencies are one open-loop worker's samples, one per slice of the
// window (see tails).
type latencies []sample

// result collects one run's metrics and check outcome.
type result struct {
	attempted, failed int
	e2eVals           map[string]float64
	layerVals         map[string]float64
	notes             []string // human-readable extras: tails chosen, span counts

	mu       sync.Mutex // guards problems and nproblems: workers report concurrently
	problems []string
	nprob    int

	invalid  string // why the open loop's latencies do not describe a steady state
	spanRecs []*recorder
}

func newResult() *result {
	return &result{e2eVals: map[string]float64{}, layerVals: map[string]float64{}}
}

func (r *result) e2e(name string, v float64)   { r.e2eVals[name] = v }
func (r *result) layer(name string, v float64) { r.layerVals[name] = v }

// problem records a failed or wrong request; the first few are printed.
func (r *result) problem(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nprob++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, err.Error())
	}
}

// openLoop turns an open-loop window into latency metrics, unless the
// window ended with more unsent requests than its rate allows.
func (r *result) openLoop(o openResult, rate float64, workers int, ls []latencies, t tails) {
	if allowed := backlogAllowed(rate, workers); o.backlog > allowed {
		r.invalid = fmt.Sprintf("open loop fell behind: %d requests still due at the end of the window (allowed %d at %g/s)", o.backlog, allowed, rate)
	}
	slices := make([]sample, t.subs)
	for _, l := range ls {
		for i, s := range l {
			slices[i].get = append(slices[i].get, s.get...)
			slices[i].put = append(slices[i].put, s.put...)
			slices[i].session = append(slices[i].session, s.session...)
		}
	}
	for _, m := range []struct {
		name string
		pick func(*sample) []float64
		q    float64
		e2e  bool
	}{
		{"get_p50_ms", func(s *sample) []float64 { return s.get }, 0.5, true},
		{"get_tail_ms", func(s *sample) []float64 { return s.get }, t.get, false},
		{"put_p50_ms", func(s *sample) []float64 { return s.put }, 0.5, true},
		{"put_tail_ms", func(s *sample) []float64 { return s.put }, t.put, false},
		{"session_p50_ms", func(s *sample) []float64 { return s.session }, 0.5, false},
		{"session_tail_ms", func(s *sample) []float64 { return s.session }, t.session, false},
	} {
		per := make([]float64, len(slices))
		for i := range slices {
			per[i] = quantile(m.pick(&slices[i]), m.q)
		}
		if m.e2e {
			r.e2e(m.name, median(per))
		} else {
			r.layer(m.name, median(per))
		}
	}
	var gets, puts int
	for _, s := range slices {
		gets += len(s.get)
		puts += len(s.put)
	}
	r.layer("bench.gen_lag_tail_ms", quantile(o.lagMs, t.session))
	r.notes = append(r.notes, fmt.Sprintf("open loop: %g req/s over %d workers, %d slices; samples get=%d put=%d; tails get=p%g put=p%g session=p%g; backlog at end %d",
		rate, workers, t.subs, gets, puts, 100*t.get, 100*t.put, 100*t.session, o.backlog))
}

// spans keeps the traced run's recorders and turns their spans into the
// per-layer span metrics.
func (r *result) spans(recs []*recorder) {
	r.spanRecs = recs
	ss := &spanStats{}
	for _, rec := range recs {
		ss.collect(rec)
	}
	for _, m := range []struct {
		metric string
		name   spanName
		self   bool
	}{
		{"sdp.cluster.get_sealed.self_ms", spGetSealed, true},
		{"sdp.cluster.put_sealed.ms", spPutSealed, false},
		{"sdp.cluster.put.ms", spClusterPut, false},
		{"sdp.client.seal.ms", spSeal, false},
		{"sdp.client.open.ms", spOpen, false},
		{"attest.fetch.ms", spFetch, false},
		{"attest.provision.ms", spProvision, false},
		{"attest.provision.first_byte_ms", spFirstByte, false},
		{"boot.load.ms", spLoad, false},
	} {
		v, _ := ss.p50(m.name, m.self)
		r.layer(m.metric, v)
	}
	for name := range numSpanNames {
		if d, n := ss.p50(name, false); n > 0 {
			self, _ := ss.p50(name, true)
			r.notes = append(r.notes, fmt.Sprintf("span %-28s n=%-7d p50 %.4f ms, self %.4f ms", spanNames[name], n, d, self))
		}
	}
}

// metricOut is one metric as the JSON result line carries it.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// resultDoc is the document a run leaves under -out/results: the
// result line plus the host it came from and the run's notes.
type resultDoc struct {
	Workload string     `json:"workload"`
	Seconds  float64    `json:"seconds"`
	Trace    bool       `json:"trace"`
	Host     hostInfo   `json:"host"`
	Result   resultLine `json:"result"`
	Notes    []string   `json:"notes"`
	Problems []string   `json:"problems,omitempty"`
	Spans    string     `json:"spans,omitempty"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: attest, blob, kv-hot or oblivious")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured time of one run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for result documents and span files")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "shefbench: need -workload (attest, blob, kv-hot, oblivious), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	// The fingerprint runs the crypto-engine selection, so it comes
	// before set-up rather than inside the set-up time.
	host := fingerprint(*seed)
	hostJSON, _ := json.Marshal(host) // plain fields cannot fail to encode
	fmt.Printf("host: %s\n", hostJSON)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, epoch: time.Now()}
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shefbench: %s: %v\n", *name, err)
		return 1
	}
	if res.invalid != "" {
		fmt.Fprintf(os.Stderr, "shefbench: %s: run invalid, latencies not reported: %s\n", *name, res.invalid)
		return 3
	}
	res.layer("fail_frac", ratio(uint64(res.failed), uint64(res.attempted)))

	line := resultLine{
		Correct:   res.failed == 0 && res.nprob == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	report, vals := e2eMetrics, res.e2eVals
	if cfg.trace {
		report, vals = layerMetrics, res.layerVals
	}
	fmt.Printf("workload %s, seed %d, %gs measured, trace %d\n", *name, *seed, *seconds, *trace)
	for _, m := range report {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem(fmt.Errorf("metric %s is not a number", m.name))
			line.Correct = false
			v = 0
		}
		line.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		fmt.Printf("  %-40s %14.6g %s\n", m.name, v, m.unit)
	}
	if !cfg.trace {
		for _, n := range []string{"sim_ops_per_s", "fail_frac", "session_p50_ms", "get_tail_ms", "put_tail_ms", "session_tail_ms"} {
			fmt.Printf("  %-40s %14.6g (per-layer)\n", n, res.layerVals[n])
		}
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}

	doc := resultDoc{Workload: *name, Seconds: *seconds, Trace: cfg.trace, Host: host, Result: line, Notes: res.notes, Problems: res.problems}
	if cfg.trace {
		doc.Spans = filepath.Join(*out, "trace", fmt.Sprintf("%s-seed%d.tsv", *name, *seed))
		if err := writeOut(doc.Spans, func(p string) error { return writeSpans(p, res.spanRecs) }); err != nil {
			fmt.Fprintf(os.Stderr, "shefbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("  spans written to %s\n", doc.Spans)
	}
	docPath := filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := writeOut(docPath, func(p string) error {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(p, append(b, '\n'), 0o644)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "shefbench: writing result document: %v\n", err)
		return 1
	}

	if line.Correct {
		fmt.Printf("check: passed (%d requests, none failed or wrong)\n", res.attempted)
	} else {
		fmt.Printf("check: FAILED (%d of %d requests failed or were wrong; %d problems)\n", res.failed, res.attempted, res.nprob)
		for _, p := range res.problems {
			fmt.Println("  " + p)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shefbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// writeOut creates path's directory and writes the file with write.
func writeOut(path string, write func(string) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := write(path); err != nil {
		return errors.Join(err, os.Remove(path))
	}
	return nil
}
