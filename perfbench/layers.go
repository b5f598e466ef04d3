package main

import (
	"fmt"
	"math"
	"time"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
	"gemini/internal/intracore"
	"gemini/internal/noc"
	"gemini/internal/sa"
)

// perLayerMetrics lists every per-layer metric a traced run reports, with
// its unit. Metrics of layers a workload does not exercise read 0.
var perLayerMetrics = [][2]string{
	{"graphpart.calls", "count"}, {"graphpart.busy_s", "s"}, {"graphpart.share", "frac"},
	{"graphpart.eval_misses", "count"},
	{"eval.hits", "count"}, {"eval.misses", "count"}, {"eval.hit_ratio", "frac"},
	{"eval.miss_us", "us"}, {"eval.hit_us", "us"}, {"eval.compute_share", "frac"},
	{"core.analyze_us", "us"}, {"noc.accumulate_us", "us"}, {"intracore.explore_us", "us"},
	{"sa.restarts", "count"}, {"sa.iterations", "count"}, {"sa.busy_s", "s"}, {"sa.iters_per_s", "1/s"},
	{"dse.pre_dispatch_s", "s"}, {"dse.cell_s_p50", "s"}, {"dse.rungs", "count"},
	{"dse.pruned_candidates", "count"}, {"dse.abandoned_restarts", "count"}, {"dse.resumed_cells", "count"},
	{"dse.checkpoint_save_s", "s"}, {"dse.checkpoint_load_s", "s"}, {"dse.checkpoint_bytes", "B"},
	{"eval.disk_save_s", "s"}, {"eval.disk_load_s", "s"}, {"eval.disk_bytes", "B"},
	{"serve.queue_wait_ms_p50", "ms"}, {"serve.run_ms_p50", "ms"}, {"serve.persist_ms_p50", "ms"},
	{"serve.handler_ms_p50", "ms"}, {"serve.rejected", "count"}, {"serve.preempted", "count"},
	{"fleet.lease_ms_p50", "ms"}, {"fleet.lease_calls", "count"}, {"fleet.empty_leases", "count"},
	{"fleet.renew_calls", "count"}, {"fleet.incumbent_calls", "count"}, {"fleet.incumbent_ms_p50", "ms"},
	{"fleet.checkpoint_ms_p50", "ms"}, {"fleet.sa_iterations", "count"}, {"fleet.pruned_candidates", "count"},
	{"trace.coverage", "frac"},
}

// layerStats accumulates per-layer measurements over a traced run's
// operations. Counts are totals; reportLayers divides them per operation.
type layerStats struct {
	partCalls, partMisses  int
	partBusy, replayWall   time.Duration
	rerun, evalCompute     time.Duration // cached re-runs; eval time they save
	saRestarts, saIters    int
	saBusy                 time.Duration
	hits, misses           int64
	rungs, pruned, abandon int
	resumed                int

	preDispatch, cellS            []float64
	ckptSave, ckptLoad, ckptBytes []float64
	analyzeUS, nocUS, exploreUS   []float64
	missUS, hitUS                 []float64
	diskSave, diskLoad, diskBytes []float64
}

// addSweep folds one sweep's scheduler and cache accounting.
func (ls *layerStats) addSweep(out sweepOutcome) {
	ls.hits += out.hits
	ls.misses += out.misses
	ls.rungs += out.rungs
	ls.pruned += out.stats.PrunedCandidates
	ls.abandon += out.stats.AbandonedRestarts
	ls.resumed += out.stats.ResumedCells
}

// reportLayers publishes the per-layer metrics of a traced run.
func (r *run) reportLayers(ls *layerStats, ops int) {
	if r.trace == nil {
		return
	}
	n := float64(max(ops, 1))
	for _, m := range perLayerMetrics {
		r.put(m[0], 0, m[1])
	}
	put := func(name string, v float64) { r.put(name, v, r.metrics[name].Unit) }
	put("graphpart.calls", float64(ls.partCalls)/n)
	put("graphpart.busy_s", ls.partBusy.Seconds()/n)
	put("graphpart.eval_misses", float64(ls.partMisses)/n)
	if replay := ls.replayWall - ls.rerun; replay > 0 {
		put("graphpart.share", ls.partBusy.Seconds()/replay.Seconds())
		put("eval.compute_share", ls.evalCompute.Seconds()/replay.Seconds())
	}
	put("eval.hits", float64(ls.hits)/n)
	put("eval.misses", float64(ls.misses)/n)
	if ls.hits+ls.misses > 0 {
		put("eval.hit_ratio", float64(ls.hits)/float64(ls.hits+ls.misses))
	}
	put("eval.miss_us", quantile(ls.missUS, 0.5))
	put("eval.hit_us", quantile(ls.hitUS, 0.5))
	put("core.analyze_us", quantile(ls.analyzeUS, 0.5))
	put("noc.accumulate_us", quantile(ls.nocUS, 0.5))
	put("intracore.explore_us", quantile(ls.exploreUS, 0.5))
	put("sa.restarts", float64(ls.saRestarts)/n)
	put("sa.iterations", float64(ls.saIters)/n)
	put("sa.busy_s", ls.saBusy.Seconds()/n)
	if ls.saBusy > 0 {
		put("sa.iters_per_s", float64(ls.saIters)/ls.saBusy.Seconds())
	}
	put("dse.pre_dispatch_s", mean(ls.preDispatch))
	put("dse.cell_s_p50", quantile(ls.cellS, 0.5))
	put("dse.rungs", float64(ls.rungs)/n)
	put("dse.pruned_candidates", float64(ls.pruned)/n)
	put("dse.abandoned_restarts", float64(ls.abandon)/n)
	put("dse.resumed_cells", float64(ls.resumed)/n)
	put("dse.checkpoint_save_s", quantile(ls.ckptSave, 0.5))
	put("dse.checkpoint_load_s", quantile(ls.ckptLoad, 0.5))
	put("dse.checkpoint_bytes", quantile(ls.ckptBytes, 0.5))
	put("eval.disk_save_s", quantile(ls.diskSave, 0.5))
	put("eval.disk_load_s", quantile(ls.diskLoad, 0.5))
	put("eval.disk_bytes", quantile(ls.diskBytes, 0.5))
}

// replayer re-runs a sweep's settled cells through the pipeline's layers
// one call at a time — graphpart.Partition, then sa.MultiStartRange over the
// cell's settled restart window — on its own evaluators and shared cache,
// exactly as the dse session composes them.
type replayer struct {
	models map[string]*dnn.Graph
	cache  *eval.Cache
	evals  map[uint64]*eval.Evaluator
}

func newReplayer(models []*dnn.Graph) *replayer {
	rp := &replayer{models: map[string]*dnn.Graph{}, cache: eval.NewCache(), evals: map[uint64]*eval.Evaluator{}}
	for _, g := range models {
		rp.models[g.Name] = g
	}
	return rp
}

func (rp *replayer) evaluator(cfg *arch.Config) *eval.Evaluator {
	fp := eval.ConfigFingerprint(cfg)
	ev := rp.evals[fp]
	if ev == nil {
		c := *cfg
		ev = eval.NewWithCache(&c, rp.cache)
		rp.evals[fp] = ev
	}
	return ev
}

// replayedScheme is one replayed cell's best mapping, the input of the
// layer micro-measurements.
type replayedScheme struct {
	cfg    *arch.Config
	scheme *core.Scheme
}

// replay reproduces every settled cell of a sweep and checks it bit for bit:
// each cell's energy and delay, and each feasible candidate's objective
// recomputed from the replayed cells.
func (rp *replayer) replay(t *tracer, results []dse.CandidateResult, opt dse.Options, ls *layerStats, parent, op int) ([]replayedScheme, error) {
	start := time.Now()
	defer func() { ls.replayWall += time.Since(start) }()
	gp := graphpart.DefaultOptions()
	gp.Beta, gp.Gamma = opt.Objective.Beta, opt.Objective.Gamma
	if opt.MaxGroupLayers > 0 {
		gp.MaxGroupLayers = opt.MaxGroupLayers
	}
	if len(opt.BatchUnits) > 0 {
		gp.BatchUnits = opt.BatchUnits
	}
	so := sa.DefaultOptions()
	so.Iterations = opt.SAIterations
	so.Seed = opt.Seed
	so.Beta, so.Gamma = opt.Objective.Beta, opt.Objective.Gamma

	var schemes []replayedScheme
	for ci := range results {
		cr := &results[ci]
		if !cr.Feasible {
			continue
		}
		ev := rp.evaluator(&cr.Cfg)
		var sumLogE, sumLogD float64
		for _, mr := range cr.PerModel {
			g := rp.models[mr.Model]
			missesBefore := rp.cache.Stats().Misses
			t0 := time.Now()
			part, err := graphpart.Partition(g, ev.Cfg, ev, opt.Batch, gp)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("replay partition %s/%s: %w", cr.Cfg.Name, g.Name, err)
			}
			partMisses := rp.cache.Stats().Misses - missesBefore
			pf := sa.MultiStartRange(part.Scheme, ev, so, 0, mr.Restarts, sa.AdaptiveOptions{})
			t2 := time.Now()
			// Differential eval cost: the same two calls again find every
			// group in the cache, so the time they save is what computing
			// the missed evaluations cost.
			if _, err := graphpart.Partition(g, ev.Cfg, ev, opt.Batch, gp); err != nil {
				return nil, err
			}
			t3 := time.Now()
			sa.MultiStartRange(part.Scheme, ev, so, 0, mr.Restarts, sa.AdaptiveOptions{})
			t4 := time.Now()
			t.add("graphpart.Partition", t0, t1, parent, op, 0)
			t.add("sa.MultiStartRange", t1, t2, parent, op, 0)
			t.add("graphpart.Partition.cached", t2, t3, parent, op, 0)
			t.add("sa.MultiStartRange.cached", t3, t4, parent, op, 0)
			ls.partCalls++
			ls.partMisses += int(partMisses)
			ls.partBusy += t1.Sub(t0)
			ls.saRestarts += len(pf.Costs)
			ls.saIters += pf.Iterations
			ls.saBusy += t2.Sub(t1)
			ls.rerun += t4.Sub(t2)
			ls.evalCompute += max(0, t1.Sub(t0)-t3.Sub(t2)) + max(0, t2.Sub(t1)-t4.Sub(t3))

			e, d := pf.Best.Eval.Energy.Total(), pf.Best.Eval.Delay
			if math.Float64bits(e) != math.Float64bits(mr.Energy) || math.Float64bits(d) != math.Float64bits(mr.Delay) {
				return nil, fmt.Errorf("replay of cell %s/%s gives E=%g D=%g, sweep settled E=%g D=%g",
					cr.Cfg.Name, g.Name, e, d, mr.Energy, mr.Delay)
			}
			sumLogE += math.Log(e)
			sumLogD += math.Log(d)
			schemes = append(schemes, replayedScheme{cfg: ev.Cfg, scheme: pf.Best.Scheme})
		}
		n := float64(len(cr.PerModel))
		obj := dse.Score(cr.MC.Total(), math.Exp(sumLogE/n), math.Exp(sumLogD/n), opt.Objective)
		if math.Float64bits(obj) != math.Float64bits(cr.Obj) {
			return nil, fmt.Errorf("replayed objective of %s is %.17g, sweep reported %.17g", cr.Cfg.Name, obj, cr.Obj)
		}
	}
	return schemes, nil
}

// measureLayers times the innermost layers per call on the replay's own
// groups: core.AnalyzeInto, the noc.Traffic accumulation of the parsed
// flows, intracore.Explore of every occupied core, and eval.EvaluateGroup
// on a cold (miss) and then warm (hit) shared cache.
func (r *run) measureLayers(schemes []replayedScheme, ls *layerStats, parent, op int) error {
	an := new(core.Analysis)
	var analyze, accumulate, explore, miss, hit time.Duration
	var groups, cores int
	nets := map[*arch.Config]*noc.Traffic{}
	for _, rs := range schemes {
		tr := nets[rs.cfg]
		if tr == nil {
			tr = noc.New(rs.cfg).NewTraffic()
			nets[rs.cfg] = tr
		}
		cp := intracore.Core{MACs: rs.cfg.MACsPerCore, GLB: rs.cfg.GLBPerCore, FreqGHz: rs.cfg.FreqGHz}
		ev := eval.NewWithCache(rs.cfg, eval.NewCache())
		for gi := range rs.scheme.Groups {
			t0 := time.Now()
			if err := core.AnalyzeInto(an, rs.scheme, gi, rs.cfg); err != nil {
				return fmt.Errorf("analyze group %d on %s: %w", gi, rs.cfg.Name, err)
			}
			t1 := time.Now()
			tr.Reset()
			for _, f := range an.ActFlows {
				tr.AddMulticast(f.Src, f.Dsts, f.Bytes)
			}
			for _, f := range an.ActDRAM {
				if f.Write {
					tr.AddDRAMWrite(f.Ctrl, f.Cores[0], f.Bytes)
				} else {
					tr.AddDRAMReadMulticast(f.Ctrl, f.Cores, f.Bytes)
				}
			}
			for _, f := range an.WeightFlows {
				tr.AddDRAMReadMulticast(f.Ctrl, f.Cores, f.Bytes)
			}
			_ = tr.BottleneckTime()
			t2 := time.Now()
			for _, w := range an.Works {
				intracore.Explore(w, cp)
				cores++
			}
			t3 := time.Now()
			ev.EvaluateGroup(rs.scheme, gi)
			t4 := time.Now()
			ev.EvaluateGroup(rs.scheme, gi)
			t5 := time.Now()
			analyze += t1.Sub(t0)
			accumulate += t2.Sub(t1)
			explore += t3.Sub(t2)
			miss += t4.Sub(t3)
			hit += t5.Sub(t4)
			groups++
		}
	}
	if groups == 0 {
		return nil
	}
	us := func(d time.Duration, n int) float64 {
		return float64(d) / float64(time.Microsecond) / float64(max(n, 1))
	}
	ls.analyzeUS = append(ls.analyzeUS, us(analyze, groups))
	ls.nocUS = append(ls.nocUS, us(accumulate, groups))
	ls.exploreUS = append(ls.exploreUS, us(explore, cores))
	ls.missUS = append(ls.missUS, us(miss, groups))
	ls.hitUS = append(ls.hitUS, us(hit, groups))
	// The five measurements interleave per group; each span carries its
	// layer's share of the loop, laid end to end, so self time sums right.
	t := time.Now().Add(-(analyze + accumulate + explore + miss + hit))
	for _, m := range []struct {
		name string
		d    time.Duration
		n    int
	}{
		{"core.AnalyzeInto", analyze, groups}, {"noc.Traffic", accumulate, groups},
		{"intracore.Explore", explore, cores}, {"eval.EvaluateGroup.miss", miss, groups},
		{"eval.EvaluateGroup.hit", hit, groups},
	} {
		r.trace.add(m.name, t, t.Add(m.d), parent, op, m.n)
		t = t.Add(m.d)
	}
	return nil
}
