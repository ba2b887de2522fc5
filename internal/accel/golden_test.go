package accel

import (
	"sort"
	"testing"

	"shef/internal/perf"
)

// goldenCycles pins one workload's simulated cycle counts at seed 1 under
// perf.Default(): the bare baseline's total and memory-path cycles, and the
// shielded total for the V128x16 (HMAC) and V128x16-PMAC variants.
type goldenCycles struct {
	bare, bareMem    uint64
	shielded, shPMAC uint64
}

// baselineGolden is keyed by workload and size: "small" is the test size
// (smallParams), "paper" the workload's default size.
var baselineGolden = map[string]goldenCycles{
	"affine/paper":    {323464, 103464, 587168, 417184},
	"affine/small":    {248040, 28040, 342432, 299936},
	"bitcoin/paper":   {16629148, 0, 16669148, 16669148},
	"bitcoin/small":   {488260, 0, 528260, 528260},
	"conv/paper":      {257928, 37928, 379989, 356661},
	"conv/small":      {231732, 11732, 287460, 283308},
	"digitrec/paper":  {293432, 73432, 636360, 621512},
	"digitrec/small":  {236384, 3384, 276895, 276384},
	"dnnweaver/paper": {575068, 355068, 1941324, 1334484},
	"dnnweaver/small": {575068, 355068, 1941324, 861430},
	"matmul/paper":    {305248, 85248, 404256, 380704},
	"matmul/small":    {305248, 85248, 404256, 380704},
	"vecadd/paper":    {424288, 204288, 587976, 606408},
	"vecadd/small":    {232768, 12768, 290652, 287324},
}

// TestBaselineCyclesGolden guards the Figure 5/6 numerator and denominator:
// the bare baseline and the Shield share one line-buffer core, so a change
// to that core must not move either side's cycle count.
func TestBaselineCyclesGolden(t *testing.T) {
	params := perf.Default()
	names := Designs()
	sort.Strings(names)
	for _, name := range names {
		for _, size := range []string{"small", "paper"} {
			name, size := name, size
			t.Run(name+"/"+size, func(t *testing.T) {
				t.Parallel()
				var wp map[string]string
				if size == "small" {
					wp = smallParams(name)
				}
				run := func(f func(Workload) (RunResult, error)) RunResult {
					w, err := New(name, wp)
					if err != nil {
						t.Fatal(err)
					}
					r, err := f(w)
					if err != nil {
						t.Fatal(err)
					}
					return r
				}
				bare := run(func(w Workload) (RunResult, error) { return RunBare(w, params, 1) })
				sh := run(func(w Workload) (RunResult, error) { return RunShielded(w, V128x16, params, 1) })
				pm := run(func(w Workload) (RunResult, error) { return RunShielded(w, V128x16PMAC, params, 1) })
				got := goldenCycles{bare.Cycles, bare.MemCycles, sh.Cycles, pm.Cycles}
				want, ok := baselineGolden[name+"/"+size]
				if !ok {
					t.Fatalf("no golden entry: got %#v", got)
				}
				if got != want {
					t.Errorf("cycles moved:\n got %#v\nwant %#v", got, want)
				}
			})
		}
	}
}
