package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
)

// Seed streams: each generated input draws from its own stream of the
// workload seed.
const (
	streamColdSA = iota + 1
	streamWarmPrime
	streamWarmSA
	streamFleetSA
)

// coldSpec is the cold_sweep grid: a sub-grid of the reduced 72 TOPs Table I
// space (36-core arrays, monolithic and 3-way cuts) at the spec defaults —
// batch 64, one SA restart, no pruning, no racing. Candidates of similar
// cost keep the time to the first result long enough to measure steadily.
const coldSpec = `{
	"space": {"tops": 72, "reduced": true, "cuts": [1, 3], "noc_gbps": [64],
	          "glb_kb": [2048], "macs": [1024]},
	"models": ["resnet50", "transformer"]
}`

// parseSpec decodes and validates a JSON sweep spec.
func parseSpec(raw string) (dse.Spec, error) {
	var spec dse.Spec
	dec := json.NewDecoder(bytes.NewReader([]byte(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	return spec, spec.Validate()
}

// bestOf is the identity and objective of a sweep's winner, the value every
// output check compares bit for bit.
type bestOf struct {
	name string
	fp   uint64 // eval.ConfigFingerprint; candidate names are not unique
	obj  float64
}

func bestOfResults(res []dse.CandidateResult) (bestOf, error) {
	b := dse.Best(res)
	if b == nil || !b.Feasible {
		return bestOf{}, fmt.Errorf("sweep found no feasible candidate")
	}
	return bestOf{name: b.Cfg.Name, fp: eval.ConfigFingerprint(&b.Cfg), obj: b.Obj}, nil
}

func (b bestOf) same(o bestOf) error {
	if b.fp != o.fp || math.Float64bits(b.obj) != math.Float64bits(o.obj) {
		return fmt.Errorf("best %s (obj %.17g) differs from reference %s (obj %.17g)", b.name, b.obj, o.name, o.obj)
	}
	return nil
}

// sweepOutcome is one Session.RunContext call seen from outside.
type sweepOutcome struct {
	results      []dse.CandidateResult
	stats        dse.SweepStats
	best         bestOf
	firstResult  time.Duration
	done         time.Duration
	hits, misses int64 // session eval-cache traffic during the sweep
	rungs        int
}

// sweep runs one sweep on ses. OnResult (and in a traced run Dispatch and
// OnRung) are pass-through hooks: they only observe, so the results are
// bit-identical to an unhooked sweep. In a traced run every cell the
// single worker pulls from the feed becomes a dse.cell span.
func (r *run) sweep(ses *dse.Session, cands []arch.Config, models []*dnn.Graph, opt dse.Options, ls *layerStats, parent, op int) (sweepOutcome, error) {
	var out sweepOutcome
	before := ses.CacheStats()
	start := time.Now()
	var first sync.Once
	opt.OnResult = func(dse.CandidateResult) {
		first.Do(func() { out.firstResult = time.Since(start) })
	}
	opt.OnRung = func(dse.RungStats) { out.rungs++ }
	id := r.trace.begin("dse.Session.RunContext", parent, op)
	if r.trace != nil {
		feeds := &feedTracer{r: r, parent: id, op: op, start: start, cell: -1}
		opt.Dispatch = func(d dse.Dispatcher) dse.Dispatcher { return &tracedFeed{inner: d, t: feeds} }
		defer func() {
			ls.preDispatch = append(ls.preDispatch, feeds.preDispatch.Seconds())
			ls.cellS = append(ls.cellS, feeds.cells...)
		}()
	}
	res, stats, err := ses.RunContext(context.Background(), cands, models, opt)
	out.done = time.Since(start)
	r.trace.end(id)
	if err != nil {
		return out, err
	}
	after := ses.CacheStats()
	out.results, out.stats = res, stats
	out.hits, out.misses = after.Hits-before.Hits, after.Misses-before.Misses
	for _, cr := range res {
		if cr.Err != nil {
			return out, fmt.Errorf("candidate %s: %w", cr.Cfg.Name, cr.Err)
		}
	}
	if stats.Canceled || stats.Panics > 0 {
		return out, fmt.Errorf("sweep canceled=%t panics=%d", stats.Canceled, stats.Panics)
	}
	out.best, err = bestOfResults(res)
	ls.addSweep(out)
	return out, err
}

// feedTracer turns the scheduler's feed pulls into cell spans. Traced runs
// use one sweep worker, so consecutive pulls bracket exactly one cell.
type feedTracer struct {
	mu          sync.Mutex
	r           *run
	parent, op  int
	start       time.Time
	pulled      bool
	preDispatch time.Duration
	cell        int
	cellStart   time.Time
	cells       []float64
}

type tracedFeed struct {
	inner dse.Dispatcher
	t     *feedTracer
}

func (f *tracedFeed) Next() (int, bool) {
	k, ok := f.inner.Next()
	t := f.t
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.pulled {
		t.pulled = true
		t.preDispatch = now.Sub(t.start)
		t.r.trace.add("dse.pre_dispatch", t.start, now, t.parent, t.op, 0)
	}
	if t.cell >= 0 {
		t.r.trace.end(t.cell)
		t.cells = append(t.cells, now.Sub(t.cellStart).Seconds())
		t.cell = -1
	}
	if ok {
		t.cell = t.r.trace.begin("dse.cell", t.parent, t.op)
		t.cellStart = now
	}
	return k, ok
}

// checkpointRoundTrip measures the dse persistence layer on the session's
// own cells: SaveCheckpoint, then LoadCheckpoint into a fresh session.
func (r *run) checkpointRoundTrip(ses *dse.Session, ls *layerStats, parent, op int) error {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := ses.SaveCheckpoint(&buf); err != nil {
		return fmt.Errorf("checkpoint save: %w", err)
	}
	t1 := time.Now()
	if err := dse.NewSession().LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("checkpoint load: %w", err)
	}
	t2 := time.Now()
	r.trace.add("dse.SaveCheckpoint", t0, t1, parent, op, 0)
	r.trace.add("dse.LoadCheckpoint", t1, t2, parent, op, 0)
	ls.ckptSave = append(ls.ckptSave, t1.Sub(t0).Seconds())
	ls.ckptLoad = append(ls.ckptLoad, t2.Sub(t1).Seconds())
	ls.ckptBytes = append(ls.ckptBytes, float64(buf.Len()))
	return nil
}

// tracedSweepOp is the traced tail every sweep operation shares: replay the
// sweep's settled cells through the layers, time the layers on the replay's
// own groups and round-trip the session's checkpoint.
func (r *run) tracedSweepOp(ses *dse.Session, rp *replayer, out sweepOutcome, opt dse.Options, ls *layerStats, root, op int) error {
	if r.trace == nil {
		return nil
	}
	id := r.trace.begin("replay", root, op)
	schemes, err := rp.replay(r.trace, out.results, opt, ls, id, op)
	r.trace.end(id)
	if err != nil {
		return err
	}
	lid := r.trace.begin("layers", root, op)
	err = r.measureLayers(schemes, ls, lid, op)
	r.trace.end(lid)
	if err != nil {
		return err
	}
	return r.checkpointRoundTrip(ses, ls, root, op)
}

// runColdSweep is the cold_sweep workload: every operation is a fresh
// session sweeping the cold grid, so every cell runs the DP partition and
// misses the eval cache — what a first-time gemini-dse user pays.
func runColdSweep(r *run) error {
	spec, err := parseSpec(coldSpec)
	if err != nil {
		return err
	}
	spec.Seed = r.saSeed(streamColdSA, 0)
	var (
		cands  []arch.Config
		models []*dnn.Graph
		ref    bestOf
	)
	opt := spec.Options()
	opt.Workers = r.workers
	err = r.setup(func(int) error {
		var err error
		if cands, err = spec.Candidates(); err != nil {
			return err
		}
		if models, err = spec.Graphs(); err != nil {
			return err
		}
		// The reference is an independent sweep of the same spec in a
		// fresh session; every operation must reproduce it bit for bit.
		res, _, err := dse.NewSession().RunContext(context.Background(), cands, models, opt)
		if err != nil {
			return err
		}
		ref, err = bestOfResults(res)
		return err
	})
	if err != nil {
		return err
	}
	var times opTimes
	ls := &layerStats{}
	var rp *replayer
	ops := r.loop(bestObjOps, func(i, root int) error {
		ses := dse.NewSession()
		out, err := r.sweep(ses, cands, models, opt, ls, root, i)
		if err != nil {
			return err
		}
		if err := out.best.same(ref); err != nil {
			return err
		}
		times.add(out.stats.Cells, out.firstResult, out.done, out.best.obj)
		if r.trace != nil {
			rp = newReplayer(models)
		}
		return r.tracedSweepOp(ses, rp, out, opt, ls, root, i)
	})
	r.report(&times)
	if err := r.spillReplayCache(rp, ls, ops); err != nil {
		return err
	}
	r.reportLayers(ls, ops)
	return nil
}

// spillReplayCache times the eval disk layer once, after the window, on the
// traced replay's cache — the groups a session of this workload holds. The
// workload itself runs without CacheDir.
func (r *run) spillReplayCache(rp *replayer, ls *layerStats, ops int) error {
	if r.trace == nil {
		return nil
	}
	id := r.trace.begin("op", -1, ops)
	defer r.trace.end(id)
	path := filepath.Join(r.out, fmt.Sprintf("evalcache-%s-seed%d.ndjson", r.workload, r.seed))
	return r.diskRoundTrip(rp.cache, path, ls, id, ops)
}

// warmGrid is the warm_resweep grid: three DRAM-starved variants lead the
// enumeration (weak-first, as in the repository's pruning benchmarks) ahead
// of eight nine-core 72 TOPs candidates spanning cuts and NoC bandwidth.
const warmSpec = `{
	"space": {"tops": 72, "reduced": true, "cuts": [1, 3], "noc_gbps": [32, 64],
	          "glb_kb": [2048], "macs": [4096]},
	"models": ["resnet50", "transformer"],
	"restarts": 4, "racing": true, "prune": true
}`

// warmMinOps is the least number of warm_resweep operations a run makes.
// The session grows with every operation, so peak memory is read after a
// fixed count of them.
const warmMinOps = 10

func warmGrid(spec dse.Spec) ([]arch.Config, error) {
	strong, err := spec.Candidates()
	if err != nil {
		return nil, err
	}
	var cands []arch.Config
	for _, div := range []float64{64, 96, 128} {
		w := strong[0]
		w.DRAMBW /= div
		w.Name = fmt.Sprintf("%s-dram%d", w.Name, int(div))
		cands = append(cands, w)
	}
	return append(cands, strong...), nil
}

// runWarmResweep is the warm_resweep workload — the operator's iterate loop.
// One long-lived session is primed in set-up; each operation re-sweeps the
// weak-first grid with four racing restarts and pruning under the next SA
// seed of a fixed sequence, so eval is mostly cache hits and the time goes
// to repeated partitioning, the SA loop and the dse scheduler. Every run
// replays the identical seed sequence from the identical primed state.
func runWarmResweep(r *run) error {
	spec, err := parseSpec(warmSpec)
	if err != nil {
		return err
	}
	var (
		cands    []arch.Config
		models   []*dnn.Graph
		sessions []*dse.Session
	)
	opt := spec.Options()
	opt.Workers = r.workers
	prime := dse.DefaultOptions()
	prime.Workers = r.workers
	prime.Seed = r.saSeed(streamWarmPrime, 0)
	err = r.setup(func(int) error {
		var err error
		if cands, err = warmGrid(spec); err != nil {
			return err
		}
		if models, err = spec.Graphs(); err != nil {
			return err
		}
		ses := dse.NewSession()
		if _, _, err := ses.RunContext(context.Background(), cands, models, prime); err != nil {
			return err
		}
		// Keep the last two primed sessions: one is measured, the other
		// computes the references.
		sessions = append(sessions[max(0, len(sessions)-1):], ses)
		return nil
	})
	if err != nil {
		return err
	}
	// The last primed session is measured; an earlier, identically primed
	// one computes the references after the window.
	ses, refSes := sessions[len(sessions)-1], sessions[len(sessions)-2]
	sessions = nil
	rp := newReplayer(models)
	if r.trace != nil {
		// Bring the replay's own cache to the primed state too, so its
		// partition hit/miss counts mirror the measured session's.
		res, _, err := dse.NewSession().RunContext(context.Background(), cands, models, prime)
		if err != nil {
			return err
		}
		if _, err := rp.replay(nil, res, prime, &layerStats{}, -1, -1); err != nil {
			return fmt.Errorf("priming replay: %w", err)
		}
	}
	var times opTimes
	bests := map[int]bestOf{} // by operation, for the check after the window
	ls := &layerStats{}
	ops := r.loop(warmMinOps, func(i, root int) error {
		o := opt
		o.Seed = r.saSeed(streamWarmSA, i)
		out, err := r.sweep(ses, cands, models, o, ls, root, i)
		if err != nil {
			return err
		}
		bests[i] = out.best
		times.add(out.stats.Cells, out.firstResult, out.done, out.best.obj)
		return r.tracedSweepOp(ses, rp, out, o, ls, root, i)
	})
	if err := r.spillReplayCache(rp, ls, ops); err != nil {
		return err
	}
	// Output check: the reference session replays the same seed sequence
	// from the same primed state; each best must match bit for bit. The
	// measured session is dropped first, so the two caches never coexist.
	ses = nil
	for i := range ops {
		got, ok := bests[i]
		if !ok {
			continue // the operation already failed
		}
		o := opt
		o.Seed = r.saSeed(streamWarmSA, i)
		res, _, err := refSes.RunContext(context.Background(), cands, models, o)
		if err == nil {
			var want bestOf
			if want, err = bestOfResults(res); err == nil {
				err = got.same(want)
			}
		}
		if err != nil {
			r.failOp(i, err)
		}
	}
	r.report(&times)
	r.reportLayers(ls, ops)
	return nil
}
