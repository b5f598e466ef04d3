package dse

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// TestOrderedMatchesGridWithoutPruning pins the determinism satellite: with
// pruning off, the bound-ordered schedule changes only dispatch order, so
// the sorted result set must be bit-identical to grid order.
func TestOrderedMatchesGridWithoutPruning(t *testing.T) {
	cands := testCands()
	big, err := ScaleUp(cands[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	cands = append(cands, big)
	models := []*dnn.Graph{testCNN, testTF}

	bound := testOptions()
	bound.Prune = false
	grid := bound
	grid.gridOrder = true

	want := NewSession().Run(cands, models, grid)
	got := NewSession().Run(cands, models, bound)
	resultsEqual(t, want, got, "bound-ordered vs grid")
}

// TestBoundOrderDispatchesCheapFirst: the dispatch permutation must sort
// candidates by ascending objective lower bound.
func TestBoundOrderDispatchesCheapFirst(t *testing.T) {
	base := arch.GArch72()
	big, err := ScaleUp(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Objective = Objective{Alpha: 8, Beta: 1, Gamma: 1}

	// big first in grid order; the scheduler must flip them (its 4x MC at
	// alpha=8 dwarfs its slightly better delay bound).
	ses := NewSession()
	sc := ses.newScheduler(context.Background(), []arch.Config{big, base}, []*dnn.Graph{testCNN}, opt)
	if sc.states[0].lb <= sc.states[1].lb {
		t.Fatalf("bound of big (%g) should exceed base (%g)", sc.states[0].lb, sc.states[1].lb)
	}
	if sc.order[0] != 1 || sc.order[1] != 0 {
		t.Errorf("dispatch order = %v, want [1 0]", sc.order)
	}
}

// TestCheckpointSeededIncumbentPrunes pins the resume satellite: a sweep
// resumed from a checkpoint that already contains a feasible candidate must
// prune a dominated candidate from task one — even in grid order with the
// dominated candidate dispatched first.
func TestCheckpointSeededIncumbentPrunes(t *testing.T) {
	base := arch.GArch72()
	big, err := ScaleUp(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Workers = 1
	opt.Prune = true
	opt.gridOrder = true
	opt.Objective = Objective{Alpha: 8, Beta: 1, Gamma: 1}
	models := []*dnn.Graph{testCNN}

	// Session A maps only the base candidate and checkpoints it.
	a := NewSession()
	if Best(a.Run([]arch.Config{base}, models, opt)) == nil {
		t.Fatal("base infeasible")
	}
	var ckpt bytes.Buffer
	if err := a.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Without the checkpoint, grid order runs big first against an infinite
	// incumbent: nothing can be pruned.
	cold := NewSession()
	coldRes := cold.Run([]arch.Config{big, base}, models, opt)
	for i := range coldRes {
		if coldRes[i].Pruned {
			t.Fatalf("cold sweep pruned %s; the seeding test needs a workload only the seed can prune", coldRes[i].Cfg.Name)
		}
	}

	// Resumed session: the checkpointed base seeds the incumbent before the
	// first task, so big is pruned without being mapped.
	calls := 0
	orig := mapModelFn
	mapModelFn = func(ev *eval.Evaluator, cfg *arch.Config, g *dnn.Graph, o Options, stop func() bool, from, to int) (*MapResult, error) {
		calls++
		return orig(ev, cfg, g, o, stop, from, to)
	}
	defer func() { mapModelFn = orig }()

	b := NewSession()
	if err := b.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	rs := b.Run([]arch.Config{big, base}, models, opt)
	if calls != 0 {
		t.Errorf("resumed sweep invoked MapModel %d times (big should be pruned, base restored)", calls)
	}
	if rs[0].Cfg.Name != base.Name || !rs[0].Feasible {
		t.Fatalf("base should win: %s (%s)", rs[0].Cfg.Name, rs[0].Status())
	}
	if !rs[1].Pruned {
		t.Fatalf("big not pruned on resume: %s", rs[1].Status())
	}

	st := b.LastSweepStats()
	if math.IsInf(st.SeededIncumbent, 1) {
		t.Error("stats did not record the seeded incumbent")
	}
	if st.SeededIncumbent != rs[0].Obj {
		t.Errorf("seeded incumbent %g, want base objective %g", st.SeededIncumbent, rs[0].Obj)
	}
	if st.PrunedCandidates != 1 {
		t.Errorf("stats pruned = %d, want 1", st.PrunedCandidates)
	}
	if len(st.Trajectory) == 0 || st.Trajectory[0].Candidate != "(checkpoint seed)" {
		t.Errorf("trajectory missing checkpoint seed: %+v", st.Trajectory)
	}
}

// TestAbandonedCellPrunesCandidate pins the live-incumbent plumbing: a cell
// whose portfolio reports abandonment must turn into a pruned candidate,
// count its saved restarts, and leave no checkpoint record behind.
func TestAbandonedCellPrunesCandidate(t *testing.T) {
	base := arch.GArch72()
	doomed := arch.GArch72()
	doomed.Name = "doomed-arch"
	doomed.NoCBW = 48 // structurally distinct so cells do not alias

	orig := mapModelFn
	mapModelFn = func(ev *eval.Evaluator, cfg *arch.Config, g *dnn.Graph, o Options, stop func() bool, from, to int) (*MapResult, error) {
		if cfg.Name == "doomed-arch" {
			return nil, &abandonedError{done: 1, planned: 4}
		}
		return orig(ev, cfg, g, o, stop, from, to)
	}
	defer func() { mapModelFn = orig }()

	opt := testOptions()
	opt.Prune = true
	opt.Restarts = 4
	ses := NewSession()
	rs := ses.Run([]arch.Config{base, doomed}, []*dnn.Graph{testCNN}, opt)

	var dr *CandidateResult
	for i := range rs {
		if rs[i].Cfg.Name == "doomed-arch" {
			dr = &rs[i]
		}
	}
	if dr == nil || !dr.Pruned || dr.Err != nil {
		t.Fatalf("abandoned candidate not reported pruned: %+v", dr)
	}
	st := ses.LastSweepStats()
	if st.AbandonedRestarts != 3 {
		t.Errorf("abandoned restarts = %d, want 3", st.AbandonedRestarts)
	}
	// An abandoned cell is not a settled outcome: it must not be
	// checkpointed, so a later sweep retries it.
	var ckpt bytes.Buffer
	if err := ses.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ckpt.String(), "doomed") {
		t.Errorf("abandoned cell was checkpointed:\n%s", ckpt.String())
	}
}

// TestSweepStatsTrajectory: every incumbent improvement lands in the
// trajectory in decreasing-objective order, ending at the best result.
func TestSweepStatsTrajectory(t *testing.T) {
	cands := testCands()
	opt := testOptions()
	opt.Prune = true
	ses := NewSession()
	rs := ses.Run(cands, []*dnn.Graph{testCNN}, opt)
	best := Best(rs)
	if best == nil {
		t.Fatal("no feasible candidate")
	}
	st := ses.LastSweepStats()
	if len(st.Trajectory) == 0 {
		t.Fatal("empty incumbent trajectory")
	}
	for i := 1; i < len(st.Trajectory); i++ {
		if st.Trajectory[i].Obj >= st.Trajectory[i-1].Obj {
			t.Errorf("trajectory not strictly improving: %+v", st.Trajectory)
		}
	}
	if last := st.Trajectory[len(st.Trajectory)-1]; last.Obj != best.Obj {
		t.Errorf("trajectory ends at %g, best is %g", last.Obj, best.Obj)
	}
	if st.Candidates != len(cands) || st.Cells != len(cands) {
		t.Errorf("stats counted %d candidates / %d cells, want %d / %d",
			st.Candidates, st.Cells, len(cands), len(cands))
	}
}

// TestBoundParamsOverride: overrides may only loosen the bound — the
// evaluation always charges eval.DefaultParams(), so constants above the
// defaults are clamped (an inflated "lower bound" could prune the true
// optimum), while smaller constants lower the bound as requested.
func TestBoundParamsOverride(t *testing.T) {
	cfg := arch.GArch72()
	opt := testOptions()
	p := eval.DefaultParams()
	def := pruneBound(&cfg, []*dnn.Graph{testCNN}, &p, opt, 100)

	// The clamp must cover every constant the v2 bound consumes: inflating
	// any one of them (and all of them) must leave the bound at the default.
	inflate := []func(*eval.Params){
		func(q *eval.Params) { q.MACpJ *= 10 },
		func(q *eval.Params) { q.VecOppJ *= 10 },
		func(q *eval.Params) { q.GLBpJPerByte *= 10 },
		func(q *eval.Params) { q.NoCHoppJPerByte *= 10 },
		func(q *eval.Params) { q.RouterpJPerByte *= 10 },
		func(q *eval.Params) { q.D2DpJPerByte *= 10 },
		func(q *eval.Params) { q.DRAMpJPerByte *= 10 },
	}
	all := p
	for i, f := range inflate {
		hot := p
		f(&hot)
		f(&all)
		opt.BoundParams = &hot
		if got := pruneBound(&cfg, []*dnn.Graph{testCNN}, boundParams(opt), opt, 100); got != def {
			t.Errorf("inflated constant #%d must be clamped to the defaults: %g vs %g", i, got, def)
		}
	}
	opt.BoundParams = &all
	if got := pruneBound(&cfg, []*dnn.Graph{testCNN}, boundParams(opt), opt, 100); got != def {
		t.Errorf("all constants inflated must be clamped to the defaults: %g vs %g", got, def)
	}

	cool := p
	cool.MACpJ /= 10
	cool.DRAMpJPerByte /= 10
	opt.BoundParams = &cool
	if got := pruneBound(&cfg, []*dnn.Graph{testCNN}, boundParams(opt), opt, 100); got >= def {
		t.Errorf("0.1x energy constants did not lower the bound: %g vs %g", got, def)
	}
	// Loosening the interconnect constants must also only lower the bound.
	coolNet := p
	coolNet.NoCHoppJPerByte /= 10
	coolNet.RouterpJPerByte /= 10
	opt.BoundParams = &coolNet
	if got := pruneBound(&cfg, []*dnn.Graph{testCNN}, boundParams(opt), opt, 100); got > def {
		t.Errorf("0.1x interconnect constants raised the bound: %g vs %g", got, def)
	}

	opt.BoundParams = nil
	if b := pruneBound(&cfg, []*dnn.Graph{testCNN}, boundParams(opt), opt, 100); b != def {
		t.Errorf("default bound params diverged: %g vs %g", b, def)
	}
}

// TestAbandonedErrorNotInfeasible: the sentinel must never be mistaken for
// infeasibility or surface as a user-visible error class.
func TestAbandonedErrorNotInfeasible(t *testing.T) {
	err := error(&abandonedError{done: 1, planned: 4})
	if errors.Is(err, ErrInfeasible) {
		t.Error("abandonedError wraps ErrInfeasible")
	}
	if !strings.Contains(err.Error(), "1/4") {
		t.Errorf("unexpected message: %v", err)
	}
}

// TestResumedSweepRestoresDominatedCandidate: a candidate whose cells are
// all checkpointed must be restored — not discarded as pruned — even when
// the seeded incumbent dominates its bound; restoring is free, and the
// resumed sweep must report everything the original run reported.
func TestResumedSweepRestoresDominatedCandidate(t *testing.T) {
	base := arch.GArch72()
	big, err := ScaleUp(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Workers = 1
	opt.gridOrder = true
	opt.Objective = Objective{Alpha: 8, Beta: 1, Gamma: 1}
	models := []*dnn.Graph{testCNN}
	cands := []arch.Config{big, base}

	// Original run with pruning off: both candidates computed and
	// checkpointed with real objectives.
	a := NewSession()
	want := a.Run(cands, models, opt)
	var ckpt bytes.Buffer
	if err := a.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Resume with pruning ON: the seed dominates big's bound, but big's
	// cell is checkpointed, so it must be restored verbatim.
	calls := 0
	orig := mapModelFn
	mapModelFn = func(ev *eval.Evaluator, cfg *arch.Config, g *dnn.Graph, o Options, stop func() bool, from, to int) (*MapResult, error) {
		calls++
		return orig(ev, cfg, g, o, stop, from, to)
	}
	defer func() { mapModelFn = orig }()

	b := NewSession()
	if err := b.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	pruneOpt := opt
	pruneOpt.Prune = true
	got := b.Run(cands, models, pruneOpt)
	if calls != 0 {
		t.Errorf("resumed sweep invoked MapModel %d times", calls)
	}
	resultsEqual(t, want, got, "resumed prune-on vs original prune-off")
	if st := b.LastSweepStats(); st.PrunedCandidates != 0 {
		t.Errorf("resumed sweep pruned %d fully checkpointed candidates", st.PrunedCandidates)
	}
}

// TestPartialCheckpointBoundPrunes pins the bound-aware seeding-breadth
// satellite: a half-checkpointed dominated candidate — one model's cell
// settled, the other missing — must be pruned via its refined per-candidate
// bound without mapping the missing cell. The refined value is a bound on
// the candidate itself, never the shared incumbent, so the winning
// candidate is untouched.
func TestPartialCheckpointBoundPrunes(t *testing.T) {
	strong := arch.GArch72()
	weak := arch.GArch72()
	weak.FreqGHz /= 256 // dominated: same cost, 256x the delay
	weak.Name = weak.String()
	models := []*dnn.Graph{testCNN, testTF}

	opt := testOptions()
	opt.Workers = 1
	opt.Prune = true
	opt.gridOrder = true // dispatch weak first: only the refined bound can save it

	// Session A settles exactly half of weak's cells (model 1 of 2) plus all
	// of strong's, then checkpoints. Cell keys ignore the model list, so the
	// half-sweep writes the same cells the full sweep will look up.
	a := NewSession()
	if Best(a.Run([]arch.Config{weak, strong}, models[:1], opt)) == nil {
		t.Fatal("half sweep infeasible")
	}
	if Best(a.Run([]arch.Config{strong}, models, opt)) == nil {
		t.Fatal("strong sweep infeasible")
	}
	var ckpt bytes.Buffer
	if err := a.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// The resumed sweep: strong is fully checkpointed (seeds the incumbent),
	// weak is half checkpointed. Its refined bound mixes the settled cell's
	// huge achieved delay with the missing cell's lower bound, exceeding the
	// seeded incumbent — so the missing cell is never mapped.
	calls := 0
	orig := mapModelFn
	mapModelFn = func(ev *eval.Evaluator, cfg *arch.Config, g *dnn.Graph, o Options, stop func() bool, from, to int) (*MapResult, error) {
		calls++
		return orig(ev, cfg, g, o, stop, from, to)
	}
	defer func() { mapModelFn = orig }()

	b := NewSession()
	if err := b.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	rs := b.Run([]arch.Config{weak, strong}, models, opt)
	if calls != 0 {
		t.Errorf("resumed sweep invoked MapModel %d times; the refined bound should prune weak's missing cell", calls)
	}
	if rs[0].Cfg.Name != strong.Name || !rs[0].Feasible {
		t.Fatalf("strong should win: %s (%s)", rs[0].Cfg.Name, rs[0].Status())
	}
	var wr *CandidateResult
	for i := range rs {
		if rs[i].Cfg.Name == weak.Name {
			wr = &rs[i]
		}
	}
	if wr == nil || !wr.Pruned {
		t.Fatalf("half-checkpointed dominated candidate not pruned: %+v", wr)
	}
	if wr.LowerBound <= 0 || wr.LowerBound <= rs[0].Obj {
		t.Errorf("refined bound %g should exceed the incumbent %g", wr.LowerBound, rs[0].Obj)
	}

	// Sanity: without the refinement-carrying checkpoint, the same grid-order
	// sweep maps weak in full (nothing to prune it with when it runs first).
	cold := NewSession()
	coldRes := cold.Run([]arch.Config{weak, strong}, models, opt)
	for i := range coldRes {
		if coldRes[i].Pruned {
			t.Fatalf("cold sweep pruned %s; this workload must only be prunable via the checkpoint", coldRes[i].Cfg.Name)
		}
	}
}

// TestInLoopAbandonBitIdenticalWhenNeverDominated: the in-loop hook is
// active on every sweep with pruning, so a workload where nothing is ever
// dominated must produce bit-identical results and identical SA iteration
// counts with the hook on and off.
func TestInLoopAbandonBitIdenticalWhenNeverDominated(t *testing.T) {
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}
	opt := testOptions()
	opt.Prune = true
	opt.Restarts = 2

	run := func(inLoop bool) ([]CandidateResult, SweepStats) {
		o := opt
		o.betweenRestartsOnly = !inLoop
		ses := NewSession()
		rs := ses.Run(cands, models, o)
		return rs, ses.LastSweepStats()
	}

	off, offSt := run(false)
	for i := range off {
		if off[i].Pruned {
			t.Fatalf("%s pruned; this workload must have no dominated candidate", off[i].Cfg.Name)
		}
	}
	on, onSt := run(true)
	resultsEqual(t, off, on, "in-loop on vs off")
	if offSt.SAIterations == 0 {
		t.Fatal("stats recorded no SA iterations")
	}
	if onSt.SAIterations != offSt.SAIterations {
		t.Errorf("never-firing hook changed SA iteration counts: off=%d on=%d",
			offSt.SAIterations, onSt.SAIterations)
	}
}

// TestInLoopAbandonSavesIterations: on a workload where dominated cells are
// already mid-anneal when the incumbent lands, the in-loop check must
// strictly reduce total SA iterations versus between-restart checks alone
// (with one restart per cell, the between-restart gate can save nothing),
// while preserving the winning candidate. Mid-cell domination only happens
// under concurrency, so the injected mapModel holds the strong candidate's
// result back until both weak cells have entered their search.
func TestInLoopAbandonSavesIterations(t *testing.T) {
	strong := arch.GArch72()
	var weak []arch.Config
	for _, div := range []float64{64, 128} {
		w := arch.GArch72()
		w.FreqGHz /= div
		w.Name = w.String()
		weak = append(weak, w)
	}
	cands := append([]arch.Config{strong}, weak...)
	models := []*dnn.Graph{testCNN}
	opt := testOptions()
	opt.Prune = true
	opt.Restarts = 1 // no between-restart gaps: only the in-loop check can save work
	opt.Workers = 3  // strong + both weak cells run concurrently (bound order: strong first)
	opt.SAIterations = 400

	orig := mapModelFn
	defer func() { mapModelFn = orig }()

	run := func(inLoop bool) (*CandidateResult, SweepStats) {
		var weakStarted atomic.Int32
		strongDone := make(chan struct{})
		mapModelFn = func(ev *eval.Evaluator, cfg *arch.Config, g *dnn.Graph, o Options, stop func() bool, from, to int) (*MapResult, error) {
			if cfg.Name == strong.Name {
				// Let the dominated cells pass their pre-cell bound check and
				// enter their mapModel call before the incumbent exists, so
				// only the in-loop poll can cut them off.
				for weakStarted.Load() < 2 {
					runtime.Gosched()
				}
				mr, err := orig(ev, cfg, g, o, stop, from, to)
				close(strongDone)
				return mr, err
			}
			weakStarted.Add(1)
			// Hold the dominated cells — already past their pre-cell gate —
			// until the strong result exists, so the incumbent lands within
			// their first few abandonment polls instead of racing their last:
			// the saved iterations don't depend on wall-clock interleaving.
			<-strongDone
			return orig(ev, cfg, g, o, stop, from, to)
		}
		o := opt
		o.betweenRestartsOnly = !inLoop
		ses := NewSession()
		best := Best(ses.Run(cands, models, o))
		if best == nil {
			t.Fatal("no feasible candidate")
		}
		return best, ses.LastSweepStats()
	}

	bestOff, offSt := run(false)
	bestOn, onSt := run(true)
	if bestOn.Cfg.Name != bestOff.Cfg.Name || bestOn.Obj != bestOff.Obj {
		t.Fatalf("in-loop abandonment changed the winner: %s (%g) vs %s (%g)",
			bestOn.Cfg.Name, bestOn.Obj, bestOff.Cfg.Name, bestOff.Obj)
	}
	// Off: every weak cell anneals to completion (the pre-cell and
	// between-restart gates cannot fire mid-cell). On: both weak cells stop
	// at an abandonment poll.
	if offSt.SAIterations != 3*opt.SAIterations {
		t.Fatalf("off-run iterations = %d, want %d (all cells complete)", offSt.SAIterations, 3*opt.SAIterations)
	}
	if onSt.SAIterations >= offSt.SAIterations {
		t.Errorf("in-loop abandonment saved nothing: %d vs %d iterations (pruned %d/%d)",
			onSt.SAIterations, offSt.SAIterations, onSt.PrunedCandidates, offSt.PrunedCandidates)
	}
}
