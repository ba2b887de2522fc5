package accel

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"shef/internal/perf"
)

// TestAllWorkloadsFunctional runs every registered workload bare and
// shielded and verifies outputs (Check runs inside the harness). This is
// the end-to-end proof that the Shield is transparent to accelerators.
func TestAllWorkloadsFunctional(t *testing.T) {
	params := perf.Default()
	names := Designs()
	sort.Strings(names)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := New(name, smallParams(name))
			if err != nil {
				t.Fatal(err)
			}
			bare, err := RunBare(w, params, 1)
			if err != nil {
				t.Fatalf("bare: %v", err)
			}
			// Fresh instance: workloads may carry run state (e.g. the
			// bitcoin header is generated in Inputs).
			w2, _ := New(name, smallParams(name))
			sec, err := RunShielded(w2, V128x16, params, 1)
			if err != nil {
				t.Fatalf("shielded: %v", err)
			}
			ov := Overhead(sec, bare)
			if ov < 0.99 {
				t.Errorf("overhead %.2f < 1: shielded run faster than bare", ov)
			}
			if ov > 20 {
				t.Errorf("overhead %.2f implausibly high", ov)
			}
			t.Logf("%s: bare=%d cycles, shielded=%d cycles, overhead=%.2fx",
				name, bare.Cycles, sec.Cycles, ov)
		})
	}
}

// smallParams shrinks workloads for fast functional testing.
func smallParams(name string) map[string]string {
	switch name {
	case "vecadd":
		return map[string]string{"bytes": "65536"}
	case "matmul":
		return map[string]string{"n": "128"}
	case "conv":
		return map[string]string{"cin": "8", "cout": "16", "batch": "1"}
	case "digitrec":
		return map[string]string{"train": "2048", "tests": "64"}
	case "affine":
		return map[string]string{"dim": "128"}
	case "dnnweaver":
		return map[string]string{"batch": "8"}
	case "bitcoin":
		return map[string]string{"difficulty": "10"}
	}
	return nil
}

func TestRegistry(t *testing.T) {
	want := []string{"affine", "bitcoin", "conv", "digitrec", "dnnweaver", "matmul", "vecadd"}
	got := Designs()
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry has %v, want %v", got, want)
		}
	}
	if _, err := New("nonexistent", nil); err == nil {
		t.Fatal("unknown design instantiated")
	}
}

func TestParamValidation(t *testing.T) {
	bad := map[string][]map[string]string{
		"vecadd":    {{"bytes": "-1"}, {"bytes": "x"}},
		"matmul":    {{"n": "100"}, {"lanes": "0"}},
		"conv":      {{"cin": "0"}},
		"digitrec":  {{"train": "no"}},
		"affine":    {{"dim": "100"}},
		"dnnweaver": {{"batch": "-3"}},
		"bitcoin":   {{"difficulty": "99"}},
	}
	for name, cases := range bad {
		for _, p := range cases {
			if _, err := New(name, p); err == nil {
				t.Errorf("%s accepted %v", name, p)
			}
		}
	}
}

// TestVariantEffects asserts the first-order model properties Figure 6
// depends on: more S-box parallelism is never slower; AES-256 is never
// faster than AES-128.
func TestVariantEffects(t *testing.T) {
	params := perf.Default()
	w := func() Workload {
		v, _ := New("vecadd", map[string]string{"bytes": "262144"})
		return v
	}
	run := func(v Variant) uint64 {
		r, err := RunShielded(w(), v, params, 3)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	c4 := run(V128x4)
	c16 := run(V128x16)
	k256 := run(V256x16)
	if c16 > c4 {
		t.Errorf("16x S-box (%d) slower than 4x (%d)", c16, c4)
	}
	if k256 < c16 {
		t.Errorf("AES-256 (%d) faster than AES-128 (%d)", k256, c16)
	}
}

// TestComputeOverlap checks the time composition: a compute-dominated
// workload hides its memory time.
func TestComputeOverlap(t *testing.T) {
	if c := combine(100, 50, 500); c != 600 {
		t.Errorf("combine = %d, want 600", c)
	}
	if c := combine(100, 500, 50); c != 600 {
		t.Errorf("combine = %d, want 600", c)
	}
}

func TestOverheadZeroBase(t *testing.T) {
	if Overhead(RunResult{Cycles: 5}, RunResult{}) != 0 {
		t.Fatal("zero-base overhead should be 0")
	}
}

// TestRunsLeaveNoGoroutines runs the harness repeatedly and checks that
// the goroutine count returns to where it started: RunShielded retires
// its Shield's engine-set workers, and the bare baseline starts none.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	params := perf.Default()
	run := func() {
		w, _ := New("dnnweaver", smallParams("dnnweaver"))
		if _, err := RunShielded(w, V128x16, params, 1); err != nil {
			t.Fatal(err)
		}
		w, _ = New("dnnweaver", smallParams("dnnweaver"))
		if _, err := RunBare(w, params, 1); err != nil {
			t.Fatal(err)
		}
	}
	run() // one-time process state (crypto engine selection) settles first
	start := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		run()
	}
	// Retired workers exit asynchronously once their task channel closes.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after 5 runs, %d before: the harness leaks", n, start)
	}
}
