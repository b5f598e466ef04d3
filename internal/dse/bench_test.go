// Twin benchmarks for the two scheduler baselines that exist only as
// unexported Options seams: enumeration-order dispatch (gridOrder) against
// bound-ordered dispatch, and the compute+weight-DRAM bound
// (computeDRAMBound) against the compulsory-traffic bound. Each twin runs
// the same weak-first pruning sweep, so the bench-compare gates compare two
// ns/op figures from one run. The names are the keys the BENCH_*.json
// files record.
package dse

import (
	"fmt"
	"testing"
	"time"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

// sweepBench returns three GArch72-class candidates (base, a NoC/D2D
// variant and a doubled-GLB variant) over freshly built tiny models; the
// root package's session benchmarks sweep the same grid.
func sweepBench() ([]arch.Config, []*dnn.Graph, Options) {
	v1 := arch.GArch72()
	v2 := arch.GArch72()
	v2.NoCBW, v2.D2DBW = 64, 32
	v2.Name = v2.String()
	v3 := arch.GArch72()
	v3.GLBPerCore *= 2
	v3.Name = v3.String()
	models := []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()}
	opt := DefaultOptions()
	opt.Batch = 8
	opt.SAIterations = 150
	opt.MaxGroupLayers = 7
	opt.BatchUnits = []int{1, 2}
	return []arch.Config{v1, v2, v3}, models, opt
}

// weakFirstBench puts five weakened GArch72 variants ahead of the three
// sweepBench candidates in grid order, with pruning on, 4-restart
// portfolios and pinned workers so the schedule does not depend on the
// host's core count.
func weakFirstBench(tag string, divs []float64, weaken func(*arch.Config, float64)) ([]arch.Config, []*dnn.Graph, Options) {
	strong, models, opt := sweepBench()
	var cands []arch.Config
	for _, div := range divs {
		w := arch.GArch72()
		weaken(&w, div)
		w.Name = fmt.Sprintf("%s-%s%d", w.Name, tag, int(div))
		cands = append(cands, w)
	}
	cands = append(cands, strong...)
	opt.Prune = true
	opt.Restarts = 4
	opt.Workers = 4
	return cands, models, opt
}

// schedulerBench weakens by down-clocking (same monetary cost, 64-256x lower
// peak throughput): the delay bound of every slow candidate is hopeless
// under MC*E*D once any full-speed candidate has finished, so grid order
// maps the slow tail before the incumbent exists while bound order prunes
// it unmapped.
func schedulerBench() ([]arch.Config, []*dnn.Graph, Options) {
	return weakFirstBench("slow", []float64{64, 96, 128, 192, 256}, func(c *arch.Config, div float64) { c.FreqGHz /= div })
}

// weakDRAMBench weakens by starving DRAM bandwidth (64-128x less at nearly
// the same monetary cost): the compute and weight-DRAM floors stay harmless,
// so the compute+weight-DRAM bound maps all five in full, but their
// compulsory activation traffic already exceeds any full-speed candidate's
// objective, so the compulsory-traffic bound prunes them unmapped.
func weakDRAMBench() ([]arch.Config, []*dnn.Graph, Options) {
	return weakFirstBench("dram", []float64{64, 80, 96, 112, 128}, func(c *arch.Config, div float64) { c.DRAMBW /= div })
}

// benchSweep times fresh-session sweeps under opt and reports the last
// sweep's pruned-candidate count.
func benchSweep(b *testing.B, cands []arch.Config, models []*dnn.Graph, opt Options) (*CandidateResult, SweepStats) {
	var best *CandidateResult
	var stats SweepStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses := NewSession()
		best = Best(ses.Run(cands, models, opt))
		if best == nil {
			b.Fatal("no feasible candidate")
		}
		stats = ses.LastSweepStats()
	}
	b.StopTimer()
	b.ReportMetric(float64(stats.PrunedCandidates), "pruned_candidates")
	return best, stats
}

// sameBest fails the benchmark when a twin's best differs from the
// baseline's: neither dispatch order nor a tighter bound may change it.
func sameBest(b *testing.B, what string, got *CandidateResult, cands []arch.Config, models []*dnn.Graph, baseline Options) {
	b.Helper()
	want := Best(Run(cands, models, baseline))
	if want == nil || got.Obj != want.Obj || got.Cfg.Name != want.Cfg.Name {
		b.Fatalf("%s best %s (%g) differs from baseline %s (%g)", what, got.Cfg.Name, got.Obj, want.Cfg.Name, want.Obj)
	}
}

// benchScheduler runs the down-clocked sweep in grid or bound order.
func benchScheduler(b *testing.B, grid bool) *CandidateResult {
	cands, models, opt := schedulerBench()
	opt.gridOrder = grid
	best, stats := benchSweep(b, cands, models, opt)
	b.ReportMetric(float64(stats.AbandonedRestarts), "abandoned_restarts")
	return best
}

// BenchmarkDSESweepGridFixed is the pre-scheduler baseline: grid dispatch
// order, full fixed 4-restart portfolios.
func BenchmarkDSESweepGridFixed(b *testing.B) { benchScheduler(b, true) }

// BenchmarkDSESweepOrdered dispatches in ascending lower-bound order with
// the same fixed portfolios: pruning soundness guarantees the same best
// result, the weak tail just never gets mapped.
func BenchmarkDSESweepOrdered(b *testing.B) {
	got := benchScheduler(b, false)
	cands, models, opt := schedulerBench()
	opt.gridOrder = true
	sameBest(b, "ordered sweep", got, cands, models, opt)
}

// benchBound runs the DRAM-starved sweep with or without the traffic terms
// of the bound, after arm adjusts the options.
func benchBound(b *testing.B, computeDRAM bool, arm func(*Options)) (*CandidateResult, SweepStats) {
	cands, models, opt := weakDRAMBench()
	opt.computeDRAMBound = computeDRAM
	if arm != nil {
		arm(&opt)
	}
	best, stats := benchSweep(b, cands, models, opt)
	b.ReportMetric(float64(stats.SAIterations), "sa_iterations")
	return best, stats
}

// BenchmarkDSESweepPR3Bound is the baseline: the compute + weight-DRAM
// bound cannot see the starved candidates' compulsory activation traffic,
// so the whole weak tail is mapped in full.
func BenchmarkDSESweepPR3Bound(b *testing.B) { benchBound(b, true, nil) }

// BenchmarkDSESweepTightBound runs the identical sweep under the
// compulsory-traffic bound: the weak tail is pruned without mapping, and —
// soundness, asserted here — the best candidate and objective are
// bit-identical to the compute + weight-DRAM bound's.
func BenchmarkDSESweepTightBound(b *testing.B) {
	got, _ := benchBound(b, false, nil)
	cands, models, opt := weakDRAMBench()
	opt.computeDRAMBound = true
	sameBest(b, "tight-bound sweep", got, cands, models, opt)
}

// BenchmarkDSESweepHardened re-runs the tight-bound weak-first sweep with
// the fault-tolerance machinery fully armed — a retry policy, a per-cell
// deadline (which moves every attempt onto the watchdog goroutine path),
// and no faults firing — so it measures exactly what hardening costs a
// healthy sweep vs BenchmarkDSESweepTightBound, its fault-free twin in the
// same run.
func BenchmarkDSESweepHardened(b *testing.B) {
	best, stats := benchBound(b, false, func(o *Options) {
		o.Retry = RetryPolicy{Max: 2, BaseDelay: time.Millisecond}
		o.CellTimeout = time.Minute
	})
	if stats.Retries != 0 || stats.Panics != 0 || stats.DeadlineExceeded != 0 {
		b.Fatalf("fault-free hardened sweep recorded faults: %+v", stats)
	}
	cands, models, opt := weakDRAMBench()
	sameBest(b, "hardened sweep", best, cands, models, opt)
}
