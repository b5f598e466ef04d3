// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`), plus micro-benchmarks of
// the framework's hot paths and ablations of its design choices. Each
// figure benchmark reports the headline quantities of the corresponding
// paper result as custom metrics.
package gemini

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/experiments"
	"gemini/internal/fleet"
	"gemini/internal/graphpart"
	"gemini/internal/noc"
	"gemini/internal/sa"
	"gemini/internal/space"
)

func benchOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.SAIterations = 100
	o.Batches = []int{2}
	return o
}

// BenchmarkTableI_SpaceEnumeration regenerates the Table I candidate grids.
func BenchmarkTableI_SpaceEnumeration(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(dse.Space72().Enumerate()) + len(dse.Space128().Enumerate()) + len(dse.Space512().Enumerate())
	}
	b.ReportMetric(float64(n), "candidates")
}

// BenchmarkFig5_OverallComparison regenerates the Fig. 5 comparison and
// reports the headline gains (paper: 1.98x perf, 1.41x energy, +14.3% MC).
func BenchmarkFig5_OverallComparison(b *testing.B) {
	var r *experiments.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig5(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PerfGain, "perf_gain_x")
	b.ReportMetric(r.EnergyGain, "energy_gain_x")
	b.ReportMetric(100*r.MCIncrease, "mc_increase_%")
}

// BenchmarkVIB2_TorusComparison regenerates the Sec. VI-B2 folded-torus
// comparison (paper: 1.74x perf, 1.13x energy, -40.1% MC).
func BenchmarkVIB2_TorusComparison(b *testing.B) {
	var r *experiments.TArchResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.TArch(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PerfGain, "perf_gain_x")
	b.ReportMetric(r.EnergyGain, "energy_gain_x")
	b.ReportMetric(-100*r.MCReduction, "mc_delta_%")
}

// BenchmarkFig6_DesignSpaceScatter regenerates the Fig. 6 EDP/MC scatter.
func BenchmarkFig6_DesignSpaceScatter(b *testing.B) {
	var r *experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Points)), "candidates")
	if ch, ok := r.OptimaChiplets["128TOPs-tiny/MC*E*D"]; ok {
		b.ReportMetric(float64(ch), "optimum_chiplets_128T")
	}
}

// BenchmarkFig7_ObjectiveOptima regenerates the Fig. 7 four-objective
// analysis (reports the MC*E*D optimum's pipeline length).
func BenchmarkFig7_ObjectiveOptima(b *testing.B) {
	var r *experiments.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		if row.Objective == "MC*E*D" {
			b.ReportMetric(row.AvgLayersPerGroup, "layers_per_stage")
			b.ReportMetric(float64(row.Cores), "optimum_cores")
		}
	}
}

// BenchmarkFig8_ChipletReuse regenerates the Fig. 8 reuse study (paper:
// joint-optimal gap ~+34%).
func BenchmarkFig8_ChipletReuse(b *testing.B) {
	var r *experiments.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.JointGap, "joint_gap_%")
}

// BenchmarkFig9_TrafficHeatmap regenerates the Fig. 9 heatmap comparison
// (paper: -34.2% hops, -74% D2D hops on the hot links).
func BenchmarkFig9_TrafficHeatmap(b *testing.B) {
	var r *experiments.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.HopReduction, "hop_reduction_%")
	b.ReportMetric(100*r.D2DReduction, "d2d_reduction_%")
}

// BenchmarkFig8a_ChipletGranularity regenerates the Fig. 8(a) granularity
// sweep (paper insight 1: moderate counts win, 36 chiplets lose).
func BenchmarkFig8a_ChipletGranularity(b *testing.B) {
	var r *experiments.GranularityResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.ChipletGranularity(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.BestChiplets), "best_chiplets")
	for _, row := range r.Rows {
		if row.Chiplets == 36 {
			b.ReportMetric(row.MCED, "mced_36chiplets_norm")
		}
	}
}

// BenchmarkIVB_SpaceSize regenerates the Sec. IV-B space-size table.
func BenchmarkIVB_SpaceSize(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		adv = space.LogAdvantage(36, 8)
	}
	b.ReportMetric(adv, "log10_advantage_M36_N8")
}

// --- DSE session benchmarks (BENCH_2): cold vs warm shared cache,
// single-seed vs portfolio restarts. ---

// sweepBench returns a small GArch72-class candidate sweep. Candidates and
// models are rebuilt per call; callers that want warm-cache behavior must
// hold on to one return value (cache keys include graph identity).
func sweepBench() ([]arch.Config, []*dnn.Graph, dse.Options) {
	v1 := arch.GArch72()
	v2 := arch.GArch72()
	v2.NoCBW, v2.D2DBW = 64, 32
	v2.Name = v2.String()
	v3 := arch.GArch72()
	v3.GLBPerCore *= 2
	v3.Name = v3.String()
	models := []*dnn.Graph{dnn.TinyCNN(), dnn.TinyTransformer()}
	opt := dse.DefaultOptions()
	opt.Batch = 8
	opt.SAIterations = 150
	opt.MaxGroupLayers = 7
	opt.BatchUnits = []int{1, 2}
	return []arch.Config{v1, v2, v3}, models, opt
}

// BenchmarkDSESessionSweepCold measures the GArch72 sweep on a fresh
// session each iteration: every candidate pays cold route tables, memos and
// group evaluations. Seeds vary per iteration exactly as in the warm bench,
// so the two are directly comparable.
func BenchmarkDSESessionSweepCold(b *testing.B) {
	cands, models, opt := sweepBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i) + 1
		ses := dse.NewSession()
		if dse.Best(ses.Run(cands, models, opt)) == nil {
			b.Fatal("no feasible candidate")
		}
	}
}

// BenchmarkDSESessionSweepWarm measures the same sweep re-run on one
// long-lived session. Seeds vary per iteration so the SA search genuinely
// re-runs (checkpoint cells miss) — the speedup over the cold bench is the
// shared evaluation cache, not result replay.
func BenchmarkDSESessionSweepWarm(b *testing.B) {
	cands, models, opt := sweepBench()
	ses := dse.NewSession()
	opt.Seed = 1 << 20 // prime the cache with a seed the loop never uses
	if dse.Best(ses.Run(cands, models, opt)) == nil {
		b.Fatal("no feasible candidate")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i) + 1
		if dse.Best(ses.Run(cands, models, opt)) == nil {
			b.Fatal("no feasible candidate")
		}
	}
	b.StopTimer()
	st := ses.CacheStats()
	b.ReportMetric(100*st.HitRate(), "cache_hit_%")
}

// benchRestarts measures a fresh-session sweep at the given SA portfolio
// width; restarts after the first race over the session's warm cache.
func benchRestarts(b *testing.B, restarts int) {
	cands, models, opt := sweepBench()
	opt.Restarts = restarts
	for i := 0; i < b.N; i++ {
		ses := dse.NewSession()
		if dse.Best(ses.Run(cands, models, opt)) == nil {
			b.Fatal("no feasible candidate")
		}
	}
}

// BenchmarkDSESweepRestarts1 is the single-seed baseline sweep.
func BenchmarkDSESweepRestarts1(b *testing.B) { benchRestarts(b, 1) }

// BenchmarkDSESweepRestarts4 runs a 4-seed SA portfolio per (candidate,
// model) cell; the shared cache keeps the cost well under 4x restarts=1.
func BenchmarkDSESweepRestarts4(b *testing.B) { benchRestarts(b, 4) }

// --- Micro-benchmarks of the framework's hot paths. ---

// BenchmarkSAOptimize measures the full Mapping Engine hot loop — one SA
// search over the DP-partitioned resnet50 LP SPM on GArch72 — the path every
// DSE candidate and every figure pays. A fresh Evaluator per run mirrors
// dse.MapModel, so per-run route-table and memo build costs are included.
func BenchmarkSAOptimize(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	part, err := graphpart.Partition(g, &cfg, eval.New(&cfg), 64, graphpart.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opt := sa.DefaultOptions()
	opt.Iterations = 200
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := sa.Optimize(part.Scheme, eval.New(&cfg), opt); !r.Eval.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkEvaluateGroup measures repeated evaluation of one resnet50 layer
// group on a shared Evaluator — the SA engine's per-iteration unit of work,
// dominated by rejected-then-retried states that revisit identical groups.
func BenchmarkEvaluateGroup(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	ev := eval.New(&cfg)
	part, err := graphpart.Partition(g, &cfg, ev, 64, graphpart.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gr := ev.EvaluateGroup(part.Scheme, i%len(part.Scheme.Groups)); !gr.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func benchScheme(b *testing.B) (*core.Scheme, *arch.Config) {
	b.Helper()
	cfg := arch.GArch72()
	g := dnn.TinyTransformer()
	ids := make([]int, len(g.Layers))
	for i := range ids {
		ids[i] = i
	}
	s, err := core.StripeScheme(g, &cfg, [][]int{ids}, []int{2}, 8)
	if err != nil {
		b.Fatal(err)
	}
	return s, &cfg
}

func BenchmarkAnalyzeGroup(b *testing.B) {
	s, cfg := benchScheme(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(s, 0, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateScheme(b *testing.B) {
	s, cfg := benchScheme(b)
	ev := eval.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := ev.Evaluate(s); !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkSAStep(b *testing.B) {
	s, cfg := benchScheme(b)
	ev := eval.New(cfg)
	opt := sa.DefaultOptions()
	opt.Iterations = b.N
	b.ResetTimer()
	sa.Optimize(s, ev, opt)
}

// BenchmarkGraphPartitionResNet50Miss times the DP partitioner from
// scratch: every iteration gets a fresh evaluator, so every segment the DP
// scores is a first-time group evaluation and ns/op does not depend on b.N.
func BenchmarkGraphPartitionResNet50Miss(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	opt := graphpart.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphpart.Partition(g, &cfg, eval.New(&cfg), 64, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphPartitionResNet50Hit times the DP partitioner against an
// evaluator primed by one untimed run, so every segment is a memo hit and
// the time is the DP's own overhead: stripe building, fingerprinting and
// the memo lookup.
func BenchmarkGraphPartitionResNet50Hit(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	ev := eval.New(&cfg)
	opt := graphpart.DefaultOptions()
	if _, err := graphpart.Partition(g, &cfg, ev, 64, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphpart.Partition(g, &cfg, ev, 64, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapTransformerFull(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.Transformer()
	opt := dse.DefaultOptions()
	opt.SAIterations = 300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.MapModel(&cfg, g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoCRoute(b *testing.B) {
	cfg := arch.Grayskull()
	net := noc.New(&cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Route(arch.CoreID(i%cfg.Cores()), arch.CoreID((i*7+13)%cfg.Cores()))
	}
}

func BenchmarkMonetaryCost(b *testing.B) {
	cfg := arch.GArch72()
	for i := 0; i < b.N; i++ {
		MonetaryCost(&cfg)
	}
}

// --- Ablations of design choices called out in DESIGN.md. ---

// BenchmarkAblation_MulticastVsUnicast quantifies the traffic saved by the
// NoC multicast trees the analyzer emits, on a channel-partitioned consumer
// (every consumer core needs the producer's full output).
func BenchmarkAblation_MulticastVsUnicast(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.TinyCNN()
	s, err := core.StripeScheme(g, &cfg, [][]int{{0, 1}}, []int{1}, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Re-partition the consumer conv across output channels so all of its
	// cores need the identical producer region.
	ms := s.Groups[0].MSs[1]
	k := len(ms.CG)
	if k > g.Layer(1).OK {
		k = g.Layer(1).OK
	}
	ms.CG = ms.CG[:k]
	ms.Part = core.Part{H: 1, W: 1, B: 1, K: k}
	an, err := core.Analyze(s, 0, &cfg)
	if err != nil {
		b.Fatal(err)
	}
	net := noc.New(&cfg)
	var multi, uni float64
	for i := 0; i < b.N; i++ {
		tm := net.NewTraffic()
		tu := net.NewTraffic()
		for _, f := range an.ActFlows {
			tm.AddMulticast(f.Src, f.Dsts, f.Bytes)
			for _, d := range f.Dsts {
				tu.AddUnicast(f.Src, d, f.Bytes)
			}
		}
		mo, md, _ := tm.TotalBytes()
		uo, ud, _ := tu.TotalBytes()
		multi, uni = mo+md, uo+ud
	}
	b.ReportMetric(uni/multi, "unicast_over_multicast_x")
}

// BenchmarkAblation_D2DEnergyModels compares the clock-forwarding (GRS) and
// clock-embedded (SerDes) D2D energy models of Sec. V-B2.
func BenchmarkAblation_D2DEnergyModels(b *testing.B) {
	s, cfg := benchScheme(b)
	grs := eval.New(cfg)
	sd := eval.New(cfg)
	sd.Params.D2DModel = eval.SerDes
	var rg, rs eval.Result
	for i := 0; i < b.N; i++ {
		rg = grs.Evaluate(s)
		rs = sd.Evaluate(s)
	}
	b.ReportMetric(rs.Energy.D2D/rg.Energy.D2D, "serdes_over_grs_x")
}

// BenchmarkAblation_SAOperators measures how much each exploration budget
// buys over the stripe baseline (the value of the five-operator SA).
func BenchmarkAblation_SAOperators(b *testing.B) {
	s, cfg := benchScheme(b)
	ev := eval.New(cfg)
	var impr float64
	for i := 0; i < b.N; i++ {
		opt := sa.DefaultOptions()
		opt.Iterations = 400
		r := sa.Optimize(s, ev, opt)
		impr = r.Improvement()
	}
	b.ReportMetric(impr, "sa_improvement_x")
}

// BenchmarkAblation_OperatorSubsets compares the full five-operator SA
// against searches restricted to single operator families, quantifying the
// paper's claim that the operator set jointly spans the space.
func BenchmarkAblation_OperatorSubsets(b *testing.B) {
	s, cfg := benchScheme(b)
	ev := eval.New(cfg)
	run := func(ops []core.Op) float64 {
		opt := sa.DefaultOptions()
		opt.Iterations = 400
		opt.Ops = ops
		return sa.Optimize(s, ev, opt).Improvement()
	}
	var full, partOnly, swapOnly float64
	for i := 0; i < b.N; i++ {
		full = run(nil)
		partOnly = run([]core.Op{core.OpPart})
		swapOnly = run([]core.Op{core.OpSwapIntra, core.OpSwapInter})
	}
	b.ReportMetric(full, "full_improvement_x")
	b.ReportMetric(partOnly, "part_only_x")
	b.ReportMetric(swapOnly, "swaps_only_x")
}

// BenchmarkAblation_GraphPartitionDP compares the DP partitioner against a
// naive fixed-size chunking of the layer list.
func BenchmarkAblation_GraphPartitionDP(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.TinyTransformer()
	ev := eval.New(&cfg)
	var ratio float64
	for i := 0; i < b.N; i++ {
		dp, err := graphpart.Partition(g, &cfg, ev, 8, graphpart.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		var chunks [][]int
		var bus []int
		for lo := 0; lo < len(g.Layers); lo += 6 {
			hi := lo + 6
			if hi > len(g.Layers) {
				hi = len(g.Layers)
			}
			ids := make([]int, 0, hi-lo)
			for id := lo; id < hi; id++ {
				ids = append(ids, id)
			}
			chunks = append(chunks, ids)
			bus = append(bus, 1)
		}
		naive, err := core.StripeScheme(g, &cfg, chunks, bus, 8)
		if err != nil {
			b.Fatal(err)
		}
		rd := ev.Evaluate(dp.Scheme)
		rn := ev.Evaluate(naive)
		ratio = eval.Cost(rn, 1, 1) / eval.Cost(rd, 1, 1)
	}
	b.ReportMetric(ratio, "naive_over_dp_cost_x")
}

// --- Pruning engine v2 benchmarks (BENCH_5): in-loop abandonment and
// disk-backed cache warmth. The compulsory-traffic bound twins live in
// internal/dse, behind the package's baseline seams. ---

// BenchmarkDSESweepInLoopAbandon measures the in-loop abandonment mechanism
// on a dominated cell at a deterministic domination point: a 4-restart
// portfolio whose candidate becomes dominated a third of the way into the
// second restart. The Dominated hook stops it within one polling stride;
// the between-restart baseline (same domination point exposed only through
// the Stop gate) burns the rest of the restart first. The strict iteration
// reduction is asserted in-bench and both counts are reported.
func BenchmarkDSESweepInLoopAbandon(b *testing.B) {
	cfg := arch.GArch72()
	g := dnn.TinyCNN()
	part, err := graphpart.Partition(g, &cfg, eval.New(&cfg), 8, graphpart.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opt := sa.DefaultOptions()
	opt.Iterations = 150
	const restarts = 4
	// Domination lands mid-restart 2: after all polls of restart 1 plus a
	// third of restart 2's.
	pollsPerRestart := opt.Iterations/sa.CheckEvery - 1
	fireAfter := pollsPerRestart + pollsPerRestart/3 + 1

	runPortfolio := func(inLoop bool) sa.Portfolio {
		polls := 0
		o := opt
		ao := sa.AdaptiveOptions{}
		dominated := func() bool {
			polls++
			return polls > fireAfter
		}
		if inLoop {
			o.Dominated = func(float64) bool { return dominated() }
		} else {
			// Between-restart checks only: poll on the same schedule (the
			// Stop gate runs once per restart boundary), so the domination
			// point is identical but only boundaries can act on it.
			o.Dominated = func(float64) bool { dominated(); return false }
			ao.Stop = func() bool { return polls > fireAfter }
		}
		return sa.MultiStartAdaptive(part.Scheme, eval.New(&cfg), o, restarts, ao)
	}

	var inLoop sa.Portfolio
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inLoop = runPortfolio(true)
	}
	b.StopTimer()
	boundary := runPortfolio(false)
	if !inLoop.Abandoned || !boundary.Abandoned {
		b.Fatalf("dominated portfolio not abandoned: in-loop %v, boundary %v", inLoop.Abandoned, boundary.Abandoned)
	}
	if inLoop.Iterations >= boundary.Iterations {
		b.Fatalf("in-loop abandonment saved nothing: %d vs %d iterations", inLoop.Iterations, boundary.Iterations)
	}
	b.ReportMetric(float64(inLoop.Iterations), "sa_iterations")
	b.ReportMetric(float64(boundary.Iterations), "boundary_sa_iterations")
}

// BenchmarkDSESweepDiskWarm is BenchmarkDSESessionSweepWarm with the warmth
// coming from a predecessor process's disk spill instead of this process's
// own priming run: a fresh session loads the spill, then re-runs the sweep
// with per-iteration seeds. The bench-compare gate holds it within 1.5x of
// the in-process warm sweep — the claim is that cross-process warmth costs
// almost nothing over in-process warmth. The background saver is exercised
// by the priming run (and its correctness by the race tests), but excluded
// from the timed loop: its cost amortizes over real sweep durations, not
// over a benchmark iteration shorter than one cache serialization. After
// timing, a second fresh session replays the priming sweep from the spill
// and must recompute zero group evaluations — the
// killed-and-restarted-process guarantee.
func BenchmarkDSESweepDiskWarm(b *testing.B) {
	cands, models, opt := sweepBench()
	dir := b.TempDir()
	prime := opt
	prime.Seed = 1 << 20 // prime the spill with a seed the loop never uses
	prime.CacheDir = dir
	if dse.Best(dse.NewSession().Run(cands, models, prime)) == nil {
		b.Fatal("no feasible candidate")
	}

	ses := dse.NewSession()
	if n, err := ses.WarmDiskCache(dir); err != nil || n == 0 {
		b.Fatalf("disk warm failed: n=%d err=%v", n, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i) + 1
		if dse.Best(ses.Run(cands, models, opt)) == nil {
			b.Fatal("no feasible candidate")
		}
	}
	b.StopTimer()
	st := ses.CacheStats()
	if st.DiskLoaded == 0 || st.DiskHits == 0 {
		b.Fatalf("sweep was not disk-warmed: %+v", st)
	}
	b.ReportMetric(100*st.HitRate(), "cache_hit_%")
	b.ReportMetric(float64(st.DiskHits), "disk_hits")

	// Restart proof: a third session warms from the final spill and replays
	// the priming sweep — every group evaluation must hit.
	replay := dse.NewSession()
	if n, err := replay.WarmDiskCache(dir); err != nil || n == 0 {
		b.Fatalf("replay warm failed: n=%d err=%v", n, err)
	}
	prime.CacheDir = "" // replay measures pure warmth: no re-spill
	if dse.Best(replay.Run(cands, models, prime)) == nil {
		b.Fatal("replay found no feasible candidate")
	}
	if rst := replay.CacheStats(); rst.Misses != 0 {
		b.Fatalf("restarted session recomputed %d group evaluations, want 0", rst.Misses)
	}
}

// --- Search engine v3 benchmarks (BENCH_8): racing restart allocation and
// the per-cut bisection delay bound. ---

// racingBench returns the racing workload: eight GArch72 variants spanning a
// wide quality range (degraded NoC, D2D and DRAM bandwidth, doubled GLB),
// pruning off so the only work-saver under test is the restart race itself.
// Workers are pinned so the schedule does not depend on the host's core
// count.
func racingBench() ([]arch.Config, []*dnn.Graph, dse.Options) {
	muts := []func(c *arch.Config){
		func(c *arch.Config) {},
		func(c *arch.Config) { c.NoCBW, c.D2DBW = 64, 32 },
		func(c *arch.Config) { c.GLBPerCore *= 2 },
		func(c *arch.Config) { c.DRAMBW /= 2 },
		func(c *arch.Config) { c.DRAMBW /= 4 },
		func(c *arch.Config) { c.NoCBW, c.D2DBW = 32, 16 },
		func(c *arch.Config) { c.GLBPerCore *= 2; c.DRAMBW /= 2 },
		func(c *arch.Config) { c.NoCBW, c.D2DBW = 64, 32; c.DRAMBW /= 2 },
	}
	var cands []arch.Config
	for i, mut := range muts {
		c := arch.GArch72()
		mut(&c)
		c.Name = fmt.Sprintf("%s-v%d", c.String(), i)
		cands = append(cands, c)
	}
	opt := dse.DefaultOptions()
	opt.Batch = 8
	opt.SAIterations = 150
	opt.MaxGroupLayers = 7
	opt.BatchUnits = []int{1, 2}
	opt.Restarts = 4
	opt.Workers = 4
	opt.Prune = false
	return cands, []*dnn.Graph{dnn.TinyCNN()}, opt
}

// BenchmarkDSESweepRacing times the successive-halving sweep over the
// racing workload and asserts the tentpole claim in-bench: the race spends
// at least 1.5x fewer total SA iterations than its uniform twin while
// finding the bit-identical best candidate (finalists run the full
// portfolio width, so racing may only cheapen the losers). Both iteration
// counts are reported; a BENCH_8 twin gate holds the ratio.
func BenchmarkDSESweepRacing(b *testing.B) {
	cands, models, opt := racingBench()
	opt.Racing = true
	var best *dse.CandidateResult
	var stats dse.SweepStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses := dse.NewSession()
		best = dse.Best(ses.Run(cands, models, opt))
		if best == nil {
			b.Fatal("no feasible candidate")
		}
		stats = ses.LastSweepStats()
	}
	b.StopTimer()
	opt.Racing = false
	ses := dse.NewSession()
	want := dse.Best(ses.Run(cands, models, opt))
	ustats := ses.LastSweepStats()
	if want == nil || best.Obj != want.Obj || best.Cfg.Name != want.Cfg.Name {
		b.Fatalf("racing best %s (%g) differs from uniform %s (%g): the race changed the winner",
			best.Cfg.Name, best.Obj, want.Cfg.Name, want.Obj)
	}
	if float64(ustats.SAIterations) < 1.5*float64(stats.SAIterations) {
		b.Fatalf("racing saved too little: %d SA iterations vs uniform %d (want >= 1.5x fewer)",
			stats.SAIterations, ustats.SAIterations)
	}
	b.ReportMetric(float64(stats.SAIterations), "sa_iterations")
	b.ReportMetric(float64(ustats.SAIterations), "uniform_sa_iterations")
}

// cutBoundBench returns the cut-bound pruning workload: two healthy
// candidates plus four whose D2D links starve the chiplet bisection (the
// aggregate link sum stays huge, so the compulsory bound cannot see the
// choke point), under a single dominant-FC-weight model whose one explicit
// weight flow must cross the bisection. Weak candidates come FIRST in grid
// order; the bound dispatch order and pruning are on.
func cutBoundBench(b *testing.B) ([]arch.Config, []*dnn.Graph, dse.Options) {
	var cands []arch.Config
	for _, bw := range []float64{1, 1.5, 2, 2.5} {
		w := arch.GArch72()
		w.D2DBW = bw
		w.Name = w.String()
		cands = append(cands, w)
	}
	strong := arch.GArch72()
	glb := arch.GArch72()
	glb.GLBPerCore *= 2
	glb.Name = glb.String()
	cands = append(cands, strong, glb)

	bld := dnn.NewBuilder("bigfc")
	in := bld.Input(1, 1, 8192)
	bld.FC("fc", in, 8192)
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	opt := dse.DefaultOptions()
	opt.Batch = 8
	opt.SAIterations = 150
	opt.Restarts = 2
	opt.Workers = 4
	opt.Prune = true
	return cands, []*dnn.Graph{g}, opt
}

// benchCutBoundLevel runs the cut-bound workload at one bound level.
func benchCutBoundLevel(b *testing.B, level dse.BoundLevel) (*dse.CandidateResult, dse.SweepStats) {
	cands, models, opt := cutBoundBench(b)
	opt.Bound = level
	var best *dse.CandidateResult
	var stats dse.SweepStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses := dse.NewSession()
		best = dse.Best(ses.Run(cands, models, opt))
		if best == nil {
			b.Fatal("no feasible candidate")
		}
		stats = ses.LastSweepStats()
	}
	b.StopTimer()
	return best, stats
}

// BenchmarkDSESweepCutBound runs the D2D-starved sweep under the per-cut
// bisection bound and asserts the tentpole claim in-bench: the cut bound
// prunes strictly more multi-chiplet candidates than BoundCompulsory on the
// identical sweep, and both find the bit-identical best. Both pruned counts
// are reported; a BENCH_8 twin gate holds the gap.
func BenchmarkDSESweepCutBound(b *testing.B) {
	best, stats := benchCutBoundLevel(b, dse.BoundCut)
	cands, models, opt := cutBoundBench(b)
	opt.Bound = dse.BoundCompulsory
	ses := dse.NewSession()
	want := dse.Best(ses.Run(cands, models, opt))
	cstats := ses.LastSweepStats()
	if want == nil || best.Obj != want.Obj || best.Cfg.Name != want.Cfg.Name {
		b.Fatalf("cut-bound sweep best %s (%g) differs from compulsory %s (%g): the cut bound is unsound",
			best.Cfg.Name, best.Obj, want.Cfg.Name, want.Obj)
	}
	if stats.PrunedCandidates <= cstats.PrunedCandidates {
		b.Fatalf("cut bound pruned %d candidates, compulsory pruned %d: the bisection floor bought nothing",
			stats.PrunedCandidates, cstats.PrunedCandidates)
	}
	b.ReportMetric(float64(stats.PrunedCandidates), "pruned_candidates")
	b.ReportMetric(float64(cstats.PrunedCandidates), "compulsory_pruned_candidates")
}

// --- Distributed fleet benchmarks (BENCH_10): shard the grid, broadcast
// the incumbent, merge checkpoints. ---

// fleetBenchSpec is the fleet benchmark workload: four full-speed GArch72
// variants (NoC 32-96 GB/s) plus four DRAM-starved twins whose
// compulsory-traffic lower bound exceeds any full-speed candidate's
// achieved objective. The full-speed half leads the grid in enumeration
// order, so the modulo-sharded fleet leases real work first and the
// incumbent it broadcasts prunes the starved half pre-cell — exactly the
// work an operator saves by pointing idle machines at one coordinator
// instead of splitting the grid into independent sweeps.
func fleetBenchSpec(b *testing.B) (dse.Spec, []arch.Config) {
	b.Helper()
	raw := `{
		"id": "bench-fleet",
		"space": {"tops": 72, "cuts": [1], "dram_per_tops": [2, 0.007],
		          "noc_gbps": [32, 48, 64, 96], "d2d_ratios": [0.5],
		          "glb_kb": [1024], "macs": [1024]},
		"models": ["tinycnn"],
		"sa_iterations": 300,
		"prune": true
	}`
	var spec dse.Spec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		b.Fatalf("fleet bench spec: %v", err)
	}
	if err := spec.Validate(); err != nil {
		b.Fatalf("fleet bench spec: %v", err)
	}
	cands, err := spec.Candidates()
	if err != nil {
		b.Fatalf("fleet bench candidates: %v", err)
	}
	// The prune story depends on grid order: the full-speed half must
	// enumerate first so shard 0 is real work, not a starved candidate.
	for i, c := range cands {
		if strong := c.DRAMBW > 100; strong != (i < len(cands)/2) {
			b.Fatalf("candidate %d (%s, DRAM %.1f GB/s) breaks the strong-first grid order", i, c.Name, c.DRAMBW)
		}
	}
	return spec, cands
}

// runFleetBench drains one fleet sweep of the benchmark grid — coordinator
// plus `workers` loopback worker loops, one shard per candidate, each
// worker pinned to one in-shard slot — and returns the drain wall time and
// the coordinator's final status. share=false runs the no-incumbent-sharing
// twin: the same shards as N independent single-candidate sweeps.
func runFleetBench(b *testing.B, spec dse.Spec, shards, workers int, share bool) (time.Duration, fleet.SweepStatus) {
	b.Helper()
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{LeaseTTL: time.Minute})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	body, err := json.Marshal(fleet.SubmitRequest{Spec: spec, Shards: shards})
	if err != nil {
		b.Fatalf("marshal submit: %v", err)
	}
	resp, err := http.Post(srv.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatalf("submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("submit answered %d", resp.StatusCode)
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fleet.RunWorker(context.Background(), fleet.WorkerConfig{
				Coordinator:    srv.URL,
				Name:           fmt.Sprintf("bench-w%d", i),
				Workers:        1,
				DisableSharing: !share,
				ExitWhenIdle:   true,
			})
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			b.Fatalf("fleet worker: %v", err)
		}
	}
	st, ok := coord.Status(spec.ID)
	if !ok || st.State != "done" {
		b.Fatalf("fleet sweep did not drain: %+v", st)
	}
	if !st.Incumbent.Found {
		b.Fatalf("fleet sweep found no feasible best")
	}
	return wall, st
}

// BenchmarkFleetSweep is the distributed-fleet twin run. Per iteration it
// drains the identical 8-shard grid twice: once as N independent shards
// (one worker, incumbent sharing off — what splitting the grid across
// machines without a coordinator buys) and once as the 2-worker fleet with
// the incumbent broadcast on. The fleet prunes the starved half of the
// grid pre-cell off the broadcast incumbent, so it wins on one core by
// skipped work alone and adds near-linear scaling on top when the workers
// have real cores to spread over. Soundness is asserted in-bench: all runs
// end at the bit-identical best, and the fleet's total SA iteration count
// is strictly below the independent twin's. Two BENCH_10 twin gates hold
// the wall-clock ratio and the strict iteration inequality.
func BenchmarkFleetSweep(b *testing.B) {
	spec, cands := fleetBenchSpec(b)
	shards := len(cands)
	var indepNs, fleetNs time.Duration
	var stIndep, stFleet fleet.SweepStatus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d1, s1 := runFleetBench(b, spec, shards, 1, false)
		d2, s2 := runFleetBench(b, spec, shards, 2, true)
		indepNs += d1
		fleetNs += d2
		stIndep, stFleet = s1, s2
		if stFleet.Incumbent != stIndep.Incumbent {
			b.Fatalf("fleet best %+v differs from independent-shards best %+v: incumbent sharing is unsound",
				stFleet.Incumbent, stIndep.Incumbent)
		}
	}
	b.StopTimer()

	// The deterministic iteration twin: one sequential sharing worker, so
	// each lease already carries every earlier shard's fold and the pruned
	// set does not depend on scheduling.
	_, stSeq := runFleetBench(b, spec, shards, 1, true)
	if stSeq.Incumbent != stIndep.Incumbent {
		b.Fatalf("sequential fleet best %+v differs from independent-shards best %+v",
			stSeq.Incumbent, stIndep.Incumbent)
	}
	if stSeq.Stats.PrunedCandidates == 0 {
		b.Fatalf("broadcast incumbent pruned nothing: %+v", stSeq.Stats)
	}
	if stSeq.Stats.SAIterations >= stIndep.Stats.SAIterations {
		b.Fatalf("fleet spent %d SA iterations, independent shards %d: want strictly fewer",
			stSeq.Stats.SAIterations, stIndep.Stats.SAIterations)
	}
	if stFleet.Stats.SAIterations >= stIndep.Stats.SAIterations {
		b.Fatalf("racing fleet spent %d SA iterations, independent shards %d: want strictly fewer",
			stFleet.Stats.SAIterations, stIndep.Stats.SAIterations)
	}

	b.ReportMetric(float64(indepNs.Nanoseconds())/float64(b.N), "one_worker_ns")
	b.ReportMetric(float64(fleetNs.Nanoseconds())/float64(b.N), "two_worker_ns")
	b.ReportMetric(float64(stSeq.Stats.SAIterations), "sa_iterations")
	b.ReportMetric(float64(stIndep.Stats.SAIterations), "solo_sa_iterations")
}
