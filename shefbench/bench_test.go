package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

func ops(seed uint64, stream uint64, m mix, rate float64, n int) []op {
	g := newGen(seed, stream, m, rate)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestOpSequenceDeterministic(t *testing.T) {
	for _, spec := range []*storageSpec{kvHotSpec(), blobSpec(), obliviousSpec()} {
		a := ops(7, 1, spec.mix, spec.rate, 5000)
		if b := ops(7, 1, spec.mix, spec.rate, 5000); !slices.Equal(a, b) {
			t.Errorf("%+v: same seed gave different sequences", spec.mix)
		}
		if b := ops(8, 1, spec.mix, spec.rate, 5000); slices.Equal(a, b) {
			t.Errorf("%+v: seeds 7 and 8 gave the same sequence", spec.mix)
		}
		if b := ops(7, 2, spec.mix, spec.rate, 5000); slices.Equal(a, b) {
			t.Errorf("%+v: streams 1 and 2 gave the same sequence", spec.mix)
		}
		puts := 0
		for _, o := range a {
			if o.kind == opPut {
				puts++
			}
		}
		if got := float64(puts) / float64(len(a)); got < spec.mix.putFrac*0.8 || got > spec.mix.putFrac*1.2 {
			t.Errorf("%+v: put share %.3f", spec.mix, got)
		}
	}
}

func TestPayloadCheck(t *testing.T) {
	p := make([]byte, 4096)
	fillPayload(p, 3, 17, 5)
	if v, err := checkPayload(p, 17, len(p)); err != nil || v != 5 {
		t.Fatalf("good payload: version %d, %v", v, err)
	}
	q := slices.Clone(p)
	fillPayload(q, 3, 17, 6)
	if slices.Equal(p, q) {
		t.Fatal("versions 5 and 6 have the same bytes")
	}
	if _, err := checkPayload(p, 18, len(p)); err == nil {
		t.Error("payload of file 17 accepted as file 18")
	}
	if _, err := checkPayload(p[:4000], 17, len(p)); err == nil {
		t.Error("truncated payload accepted")
	}
	p[100] ^= 1
	if _, err := checkPayload(p, 17, len(p)); err == nil {
		t.Error("corrupted payload accepted")
	}
}

// simOpsPerSec runs the capacity window's simulated prefix exactly as
// runStorage does and returns sim_ops_per_s.
func simOpsPerSec(t *testing.T, spec *storageSpec, seed uint64) float64 {
	t.Helper()
	r, err := setupStorage(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.newWorker(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	r.c.ResetStats()
	base := r.snapshot()
	var end storageSnap
	c := r.closedLoop(w, newGen(seed, 0, spec.mix, 0), spec.simOps, 0, func() { end = r.snapshot() }, res)
	if c.failed != 0 || res.nprob != 0 {
		t.Fatalf("%d failed requests: %v", c.failed, res.problems)
	}
	layerCounters(res, base, end, spec.simOps, c.payload)
	return res.layerVals["sim_ops_per_s"]
}

func TestSimOpsBitIdentical(t *testing.T) {
	for name, spec := range map[string]*storageSpec{"kv-hot": kvHotSpec(), "blob": blobSpec()} {
		a, b := simOpsPerSec(t, spec, 5), simOpsPerSec(t, spec, 5)
		if a != b || a == 0 {
			t.Errorf("%s: seed 5 gave sim_ops_per_s %v then %v", name, a, b)
		}
		if c := simOpsPerSec(t, spec, 6); c == a {
			t.Errorf("%s: seeds 5 and 6 gave the same sim_ops_per_s %v", name, a)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %v; the program runs %d workloads", names, len(workloads))
	}
	same := func(what string, listed []struct{ Name, Unit string }, printed []unitName) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(listed), len(printed))
			return
		}
		for i, m := range listed {
			if m.Name != printed[i].name || m.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, m.Name, m.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eMetrics)
	same("per_layer", doc.PerLayer, layerMetrics)
}
