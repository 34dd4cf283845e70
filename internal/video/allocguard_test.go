package video

import (
	"context"
	"strings"
	"testing"

	"hebs/internal/core"
	"hebs/internal/noalloc"
)

// steadyStateAllocBudget is the checked-in steady-state clip cost:
// BENCH_pipeline.json records 23 allocs/op for video/steady16 (one
// warm 16-frame static clip through a shared engine), and this guard
// keeps that number from silently creeping. The budget is the
// irreducible per-clip bookkeeping — the Result and its frame slices,
// the per-clip span — not per-frame work: the per-frame loop itself
// is proven allocation-free by hebsvet's //hebs:noalloc gate. The
// hebscheck build holds the same budget: the walk's invariant
// assertions box their arguments only on failure.
const steadyStateAllocBudget = 23

// deltaSteadyAllocBudget is the same static clip with delta analysis
// on (BENCH_pipeline.json video/static16: every frame fuses). The
// tile scan of histogram.FrameDelta.Update allocates nothing, so the
// clip costs 7 allocs/op (measured).
const deltaSteadyAllocBudget = 7

// TestSteadyStateAllocGuard is the bench guard for the headline
// steady-state number, run as a test so `go test ./internal/video`
// catches an allocation regression without a benchmark round-trip. On
// failure it prints the module's //hebs:noalloc inventory (the
// `hebsvet -list` rendering): per-frame regressions show up as ~16×
// jumps and the function that started allocating is one of these —
// `go run ./cmd/hebsvet -v` names the exact escaping expression.
func TestSteadyStateAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard skipped in -short mode")
	}
	if raceEnabled {
		// The race runtime drops pooled items at random, so the count is
		// not deterministic there.
		t.Skip("allocation budget does not apply under -race")
	}
	cases := []struct {
		name   string
		delta  bool
		budget int64
		record string
	}{
		{"full", false, steadyStateAllocBudget, "video/steady16"},
		{"delta", true, deltaSteadyAllocBudget, "video/static16"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := steadyClip(t)
			pol := steadyPolicy()
			pol.DeltaAnalysis = tc.delta
			pol.Engine = core.NewEngine(core.EngineOptions{})
			ctx := context.Background()
			// Warm the pools and the plan cache outside the measurement.
			if _, err := ProcessContext(ctx, seq, pol); err != nil {
				t.Fatal(err)
			}
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ProcessContext(ctx, seq, pol); err != nil {
						b.Fatal(err)
					}
				}
			})
			allocs := res.AllocsPerOp()
			t.Logf("%d allocs/op (budget %d)", allocs, tc.budget)
			if allocs > tc.budget {
				inv, err := noalloc.Scan("../..")
				suspects := ""
				if err != nil {
					suspects = "(noalloc inventory unavailable: " + err.Error() + ")"
				} else {
					var sb strings.Builder
					inv.WriteList(&sb)
					suspects = sb.String()
				}
				t.Errorf("steady-state clip allocates %d objects/op; budget %d (BENCH_pipeline.json %s)\n"+
					"per-frame leaks show up as ~16x jumps; the //hebs:noalloc inventory below names the hot-path\n"+
					"functions to re-check with `go run ./cmd/hebsvet -v`:\n%s",
					allocs, tc.budget, tc.record, suspects)
			}
		})
	}
}
