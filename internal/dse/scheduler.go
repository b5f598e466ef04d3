// Sweep scheduler: decides the order (candidate, model) cells are
// dispatched in, owns the live pruning incumbent, and accounts for the work
// the bound gate saved. The naive grid feed evaluates candidates in
// enumeration order, so the incumbent tightens only after whatever happens
// to be enumerated first completes; the bound-ordered schedule dispatches
// cells in ascending objective-lower-bound order instead, so the candidates
// most likely to produce a tight incumbent run first and the expensive,
// hopeless tail is pruned without ever being mapped. On resumed sessions
// the incumbent is additionally seeded from fully checkpointed candidates,
// so pruning is active from the very first task.
package dse

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"gemini/internal/arch"
	"gemini/internal/cost"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// RungStats records one completed rung of a racing (successive-halving)
// sweep: how many candidates entered, the cumulative per-cell restart width
// the rung settled, and how many candidates were promoted to the next rung
// (on the final rung, how many finished as finalists).
type RungStats struct {
	// Rung is the rung index; rung 0 is the cheap exploratory rung.
	Rung int `json:"rung"`
	// Budget is the cumulative per-cell restart width this rung settled.
	Budget int `json:"budget"`
	// Candidates is how many surviving candidates entered the rung.
	Candidates int `json:"candidates"`
	// Survivors is how many candidates the rung promoted (or, on the final
	// rung, finished at the full width). Candidates the bound gate pruned
	// mid-rung count in neither number of the next rung.
	Survivors int `json:"survivors"`
}

// IncumbentStep is one tightening of the pruning incumbent during a sweep.
type IncumbentStep struct {
	// Candidate names the feasible candidate that improved the incumbent;
	// the synthetic name "(checkpoint seed)" marks the initial value
	// restored from checkpointed cells.
	Candidate string
	Obj       float64
}

// SweepStats is the scheduler's per-sweep observability record.
type SweepStats struct {
	// SweepID echoes Options.SweepID (empty for unnamed sweeps).
	SweepID string
	// Candidates is the number of architecture candidates in the sweep.
	Candidates int
	// Cells is the total (candidate, model) grid size.
	Cells int
	// Canceled reports that the sweep's context was canceled before every
	// cell settled; unfinished cells carry errors wrapping the context's
	// error and are never checkpointed.
	Canceled bool

	// ResumedCells counts cells served from the checkpoint this sweep.
	ResumedCells int
	// PrunedCandidates counts candidates the bound gate skipped or cut off.
	PrunedCandidates int
	// AbandonedRestarts counts SA restarts never completed because the live
	// incumbent dominated a cell's candidate mid-portfolio (a restart cut
	// off mid-anneal by the in-loop check counts: it never finished).
	AbandonedRestarts int
	// SAIterations is the total annealing iterations the sweep attempted
	// across every cell, partial abandoned restarts included. With in-loop
	// abandonment active a dominated-cell workload spends strictly fewer
	// iterations than with between-restart checks alone.
	SAIterations int

	// Retries counts cell attempts re-run after a transient failure
	// (Options.Retry); 0 whenever retry is disabled or nothing failed.
	Retries int
	// Panics counts recovered panics — each one became a typed
	// CellError{Kind: CellPanic} on its cell instead of killing the sweep.
	Panics int
	// DeadlineExceeded counts cell attempts cut off by Options.CellTimeout.
	DeadlineExceeded int
	// LastPanic is the most recent recovered panic's message and stack
	// (empty when Panics == 0), so a one-off crash is diagnosable from the
	// sweep record alone.
	LastPanic string
	// PersistenceErrors counts background persistence failures (disk-cache
	// spill saves) during this sweep. The sweep itself keeps running on
	// in-memory state; persistence failures degrade restart cost, never
	// correctness.
	PersistenceErrors int
	// PersistenceDegraded reports that the persistence layer ended the
	// sweep in degraded mode (several consecutive failed saves);
	// LastPersistenceError is the most recent failure.
	PersistenceDegraded  bool
	LastPersistenceError string

	// Racing reports the sweep allocated restarts by successive halving
	// across candidates; Rungs then records every completed rung in order.
	Racing bool
	Rungs  []RungStats

	// SeededIncumbent is the incumbent value restored from checkpointed
	// cells before the first task ran (+Inf when nothing seeded).
	SeededIncumbent float64
	// Trajectory records every incumbent improvement in the order it
	// happened, checkpoint seed included.
	Trajectory []IncumbentStep
}

// incumbent is a sweep-scoped best-feasible-objective tracker for pruning.
// It is deliberately NOT session-scoped: two Run calls may use different
// objectives or batches, and an incumbent from one is no bound for the
// other. get is lock-free (it is polled between SA restarts and before
// every cell); note serializes improvements and the trajectory. An optional
// external exchange (Options.Incumbent, set by fleet workers) folds a
// fleet-wide best into get and hears about local improvements — the
// exchange only ever carries achieved feasible objectives, so the min fold
// stays a sound pruning bound.
type incumbent struct {
	bits atomic.Uint64 // Float64bits of the current best
	ext  IncumbentExchange

	mu    sync.Mutex
	steps []IncumbentStep
}

func newIncumbent(ext IncumbentExchange) *incumbent {
	in := &incumbent{ext: ext}
	in.bits.Store(math.Float64bits(math.Inf(1)))
	return in
}

func (in *incumbent) get() float64 {
	best := math.Float64frombits(in.bits.Load())
	if in.ext != nil {
		if ext := in.ext.Best(); ext < best {
			best = ext
		}
	}
	return best
}

func (in *incumbent) note(name string, obj float64) {
	if math.IsNaN(obj) || math.IsInf(obj, 1) {
		return
	}
	improved := false
	in.mu.Lock()
	if obj < math.Float64frombits(in.bits.Load()) {
		in.bits.Store(math.Float64bits(obj))
		in.steps = append(in.steps, IncumbentStep{Candidate: name, Obj: obj})
		improved = true
	}
	in.mu.Unlock()
	// Forward outside the lock: the exchange's atomic update must never
	// serialize against trajectory appends, and a slow network push belongs
	// on the exchange's own background goroutine anyway.
	if improved && in.ext != nil {
		in.ext.Improved(name, obj)
	}
}

func (in *incumbent) trajectory() []IncumbentStep {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]IncumbentStep, len(in.steps))
	copy(out, in.steps)
	return out
}

// candState tracks one candidate's progress through the scheduler.
type candState struct {
	remaining atomic.Int32
	pruned    atomic.Bool
	lb        float64 // objective lower bound (0 when bounds are not in use)
}

// scheduler runs one sweep's (candidate, model) grid.
type scheduler struct {
	ses    *Session
	ctx    context.Context
	cands  []arch.Config
	models []*dnn.Graph
	opt    Options
	optFP  uint64
	mce    *cost.Evaluator

	// stats is the published per-sweep record, valid after run returns; it
	// is what RunContext hands back so concurrent sweeps never read each
	// other's numbers through the session.
	stats SweepStats

	prune  bool
	inc    *incumbent
	states []*candState
	order  []int // candidate dispatch order

	// rungs collects the racing rung records; runRacing appends between
	// rung barriers, so no lock is needed until publishStats copies it.
	rungs []RungStats

	seeded    float64
	resumed   atomic.Int64
	pruned    atomic.Int64
	abandoned atomic.Int64
	saIters   atomic.Int64

	retries  atomic.Int64
	panics   atomic.Int64
	deadline atomic.Int64

	panicMu   sync.Mutex
	lastPanic string
}

// notePanic records the most recent recovered panic for SweepStats and logs
// it — a recovered panic must never be silent.
func (sc *scheduler) notePanic(where, stack string) {
	sc.panicMu.Lock()
	sc.lastPanic = stack
	sc.panicMu.Unlock()
	sc.ses.logf("dse: recovered panic in %s: %s", where, stack)
}

// newScheduler computes per-candidate bounds, fixes the dispatch order and
// seeds the incumbent from checkpointed cells.
func (s *Session) newScheduler(ctx context.Context, cands []arch.Config, models []*dnn.Graph, opt Options) *scheduler {
	sc := &scheduler{
		ses:    s,
		ctx:    ctx,
		cands:  cands,
		models: models,
		opt:    opt,
		optFP:  optsFingerprint(opt),
		mce:    cost.New(),
		inc:    newIncumbent(opt.Incumbent),
		states: make([]*candState, len(cands)),
		order:  make([]int, len(cands)),
		seeded: math.Inf(1),
	}
	sc.prune = opt.Prune && objMonotone(opt.Objective)
	if opt.Prune && !sc.prune {
		s.logf("dse: pruning disabled: objective %+v is not monotone", opt.Objective)
	}
	ordered := !opt.gridOrder
	for ci := range cands {
		sc.states[ci] = &candState{}
		sc.states[ci].remaining.Store(int32(len(models)))
		sc.order[ci] = ci
	}
	if sc.prune || ordered {
		params := boundParams(opt)
		eLBs := make([]float64, len(models))
		dLBs := make([]float64, len(models))
		for ci := range cands {
			mc := sc.mce.Evaluate(&cands[ci]).Total()
			for mi, g := range models {
				eLBs[mi], dLBs[mi] = lowerBoundED(&cands[ci], g, params, opt)
			}
			lb := mixedBound(mc, eLBs, dLBs, nil, opt.Objective)
			if sc.prune {
				// Bound-aware seeding breadth: a partially checkpointed
				// candidate's own bound tightens by substituting the actual
				// (restored-verbatim) energies and delays of its settled
				// cells for their lower bounds. The mix stays a lower bound
				// on the candidate's final objective — never an incumbent:
				// an unachieved value must not prune *other* candidates, but
				// it may prune its own, so partial resumes cut dominated
				// candidates off before their missing cells are mapped.
				if mixed := sc.partialCheckpointBound(ci, mc, eLBs, dLBs); mixed > lb {
					lb = mixed
				}
			}
			sc.states[ci].lb = lb
		}
	}
	if ordered {
		sort.SliceStable(sc.order, func(a, b int) bool {
			return sc.states[sc.order[a]].lb < sc.states[sc.order[b]].lb
		})
	}
	if sc.prune {
		sc.seedIncumbent()
	}
	return sc
}

// mixedBound folds per-model energy/delay values into the candidate
// objective in log space (exactly reduceCandidate's geomean; math.Log(0)
// is -Inf and math.Exp(-Inf) is 0, so zero bounds flow through the mean
// exactly). When rec is non-nil, rec[mi] overrides the bound with a
// checkpointed cell's actual values; a nil entry keeps the lower bound.
func mixedBound(mc float64, eLBs, dLBs []float64, rec []*cellRecord, obj Objective) float64 {
	n := float64(len(eLBs))
	if n == 0 {
		return 0
	}
	var sumLogE, sumLogD float64
	for mi := range eLBs {
		e, d := eLBs[mi], dLBs[mi]
		if rec != nil && rec[mi] != nil {
			e, d = rec[mi].Energy, rec[mi].Delay
		}
		sumLogE += math.Log(e)
		sumLogD += math.Log(d)
	}
	return Score(mc, math.Exp(sumLogE/n), math.Exp(sumLogD/n), obj)
}

// partialCheckpointBound refines a candidate's lower bound from its
// partially checkpointed cells: settled feasible cells contribute their
// achieved energy/delay (they will be restored verbatim, so those values
// are exact), missing cells keep their per-model lower bounds. The result
// is therefore still a lower bound on the candidate's final objective —
// sound for pruning the candidate itself and for ordering, unlike seeding
// the shared incumbent with it, which would unsoundly prune others. It
// returns 0 (no refinement) when nothing is checkpointed, when everything
// is (the full-checkpoint incumbent seed already covers that case and the
// restored candidate must keep reporting its real outcome), or when any
// settled cell is infeasible (the candidate must be reported infeasible,
// not pruned).
func (sc *scheduler) partialCheckpointBound(ci int, mc float64, eLBs, dLBs []float64) float64 {
	if len(sc.models) == 0 {
		return 0
	}
	fp := eval.ConfigFingerprint(&sc.cands[ci])
	recs := make([]*cellRecord, len(sc.models))
	settled := 0
	for mi, g := range sc.models {
		rec, ok := sc.ses.peekCell(cellKey(fp, g.Name, sc.optFP))
		if !ok {
			continue
		}
		if !rec.Feasible {
			return 0
		}
		r := rec
		recs[mi] = &r
		settled++
	}
	if settled == 0 || settled == len(sc.models) {
		return 0
	}
	return mixedBound(mc, eLBs, dLBs, recs, sc.opt.Objective)
}

// seedIncumbent restores the pruning incumbent from the checkpoint: any
// candidate of this sweep whose every (candidate, model) cell is already
// checkpointed feasible will be restored verbatim during the sweep, so its
// folded objective is an achieved value — a sound incumbent before the
// first task runs. Restricting the scan to this sweep's candidates keeps
// the invariant that the sweep's true optimum can never be pruned.
func (sc *scheduler) seedIncumbent() {
	if len(sc.models) == 0 {
		return
	}
	for ci := range sc.cands {
		fp := eval.ConfigFingerprint(&sc.cands[ci])
		per := make([]pairOutcome, len(sc.models))
		complete := true
		for mi, g := range sc.models {
			rec, ok := sc.ses.peekCell(cellKey(fp, g.Name, sc.optFP))
			if !ok || !rec.Feasible {
				complete = false
				break
			}
			per[mi] = rec.outcome()
		}
		if !complete {
			continue
		}
		cr := reduceCandidate(&sc.cands[ci], per, sc.models, sc.mce, sc.opt)
		if cr.Feasible {
			sc.inc.note("(checkpoint seed)", cr.Obj)
		}
	}
	sc.seeded = sc.inc.get()
	if !math.IsInf(sc.seeded, 1) {
		sc.ses.logf("dse: incumbent seeded from checkpoint: %.6g", sc.seeded)
	}
}

// markPruned cuts a candidate off (idempotently) and logs the decision.
func (sc *scheduler) markPruned(ci int, best float64) {
	st := sc.states[ci]
	if st.pruned.CompareAndSwap(false, true) {
		sc.pruned.Add(1)
		sc.ses.logf("dse: pruned %s: objective lower bound %.6g > best feasible %.6g",
			sc.cands[ci].Name, st.lb, best)
	}
}

// run executes the sweep and returns one CandidateResult per candidate, in
// candidate order (unsorted).
func (sc *scheduler) run() []CandidateResult {
	nm := len(sc.models)
	results := make([]CandidateResult, len(sc.cands))
	per := make([][]pairOutcome, len(sc.cands))
	for i := range sc.cands {
		per[i] = make([]pairOutcome, nm)
	}

	var onMu sync.Mutex
	finish := func(ci int) {
		// Backstop recover: reduceCandidate and the OnResult callback run
		// user-adjacent code (custom callbacks, exotic objectives); a panic
		// here must cost one candidate's result row, not the worker pool or
		// — through the sweep service — the server process.
		defer func() {
			if v := recover(); v != nil {
				sc.panics.Add(1)
				sc.notePanic(fmt.Sprintf("finishing candidate %s", sc.cands[ci].Name),
					fmt.Sprintf("%v\n%s", v, debug.Stack()))
			}
		}()
		st := sc.states[ci]
		var cr CandidateResult
		if st.pruned.Load() {
			cr = CandidateResult{
				Cfg: sc.cands[ci], MC: sc.mce.Evaluate(&sc.cands[ci]),
				Obj: math.Inf(1), Pruned: true, LowerBound: st.lb,
			}
		} else {
			cr = reduceCandidate(&sc.cands[ci], per[ci], sc.models, sc.mce, sc.opt)
			if cr.Feasible {
				sc.inc.note(cr.Cfg.Name, cr.Obj)
			}
		}
		results[ci] = cr
		if sc.opt.OnResult != nil {
			// Deferred unlock: the recover above fields OnResult panics, and a
			// plain Unlock after the call would be skipped during the unwind —
			// deadlocking every later candidate on a mutex nobody holds usefully.
			onMu.Lock()
			defer onMu.Unlock()
			sc.opt.OnResult(cr)
		}
	}

	total := len(sc.cands) * nm
	if total == 0 {
		for ci := range sc.cands {
			finish(ci)
		}
		sc.publishStats()
		return results
	}

	if sc.opt.Racing {
		sc.runRacing(nm, per, finish)
		sc.publishStats()
		return results
	}

	workers := sc.workerCount(total)
	// The feed walks the schedule candidate-major, so a candidate's cells
	// complete (and its objective lands in the incumbent) as early as
	// possible; Options.Dispatch may wrap it (queue binding, preemption).
	feed := sc.feed(sc.order, nm)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, ok := feed.Next()
				if !ok {
					return
				}
				sc.runTaskGuarded(k, nm, per, effectiveRestarts(sc.opt), true)
				if sc.states[k/nm].remaining.Add(-1) == 0 {
					finish(k / nm)
				}
			}
		}()
	}
	wg.Wait()
	// A wrapped feed may shut before delivering every cell (a preempted
	// sweep): candidates with undelivered cells never hit remaining == 0, so
	// fill the gaps with a cancellation error and finish them here — an
	// undelivered cell must read as canceled, never as spurious
	// infeasibility (a zero pairOutcome), and every candidate must produce
	// its result row exactly once.
	for _, ci := range sc.order {
		if sc.states[ci].remaining.Load() > 0 {
			sc.fillUndelivered(ci, nm, per)
			finish(ci)
		}
	}
	sc.publishStats()
	return results
}

// fillUndelivered marks one candidate's never-dispatched cells as canceled.
// Only zero outcomes are touched: delivered cells keep their results, and
// pruned candidates need no cell outcomes at all.
func (sc *scheduler) fillUndelivered(ci, nm int, per [][]pairOutcome) {
	if sc.states[ci].pruned.Load() {
		return
	}
	err := sc.ctx.Err()
	if err == nil {
		// The feed was shut without the sweep context being canceled (a
		// dispatcher wrapper withheld cells): still a cancellation from the
		// cell's point of view.
		err = context.Canceled
	}
	for mi := 0; mi < nm; mi++ {
		p := &per[ci][mi]
		if p.mr == nil && p.err == nil && !p.abandoned {
			*p = pairOutcome{err: fmt.Errorf("dse: cell not dispatched: %w", err)}
		}
	}
}

func (sc *scheduler) workerCount(tasks int) int {
	workers := sc.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	return workers
}

// racingBudgets is the successive-halving rung schedule for full portfolio
// width r: cumulative per-cell restart widths 1, 2, 4, ... terminated at r.
func racingBudgets(r int) []int {
	var b []int
	for w := 1; w < r; w *= 2 {
		b = append(b, w)
	}
	return append(b, r)
}

// runRacing executes the sweep as a successive-halving race: every surviving
// candidate's cells are settled at the rung's cumulative restart width (a
// checkpointed or earlier-rung cell re-enters at its stored width and runs
// only the missing restart window), the candidates are ranked by their
// folded objective against each other, and only the better half (rounded
// up) is promoted to the next, twice-as-wide rung. A rung-b outcome is a real
// achieved mapping, so it both feeds the pruning incumbent and stands as an
// eliminated candidate's final (partial-width, never Pruned) result.
// Finalists end at the full width, bit-identical to the uniform sweep's
// result for the same candidate.
func (sc *scheduler) runRacing(nm int, per [][]pairOutcome, finish func(ci int)) {
	finished := make([]bool, len(sc.cands))
	emit := func(ci int) {
		if !finished[ci] {
			finished[ci] = true
			finish(ci)
		}
	}
	surviving := append([]int(nil), sc.order...)
	budgets := racingBudgets(effectiveRestarts(sc.opt))
	for r, budget := range budgets {
		entered := len(surviving)
		sc.dispatchRung(surviving, nm, per, budget, r == 0)

		// Candidates the bound gate pruned mid-rung are decided: emit their
		// Pruned rows and drop them from the race.
		alive := make([]int, 0, len(surviving))
		for _, ci := range surviving {
			if sc.states[ci].pruned.Load() {
				emit(ci)
				continue
			}
			alive = append(alive, ci)
		}

		// Rank the rung by each survivor's folded objective at the current
		// width — an achieved value, so feasible ones also tighten the
		// incumbent. Infeasible and errored candidates rank +Inf and are
		// eliminated first; ties break by candidate name, then dispatch
		// order, so the promotion is deterministic.
		type rank struct {
			ci  int
			obj float64
		}
		ranked := make([]rank, 0, len(alive))
		for _, ci := range alive {
			cr := reduceCandidate(&sc.cands[ci], per[ci], sc.models, sc.mce, sc.opt)
			obj := math.Inf(1)
			if cr.Feasible {
				obj = cr.Obj
				sc.inc.note(cr.Cfg.Name, cr.Obj)
			}
			ranked = append(ranked, rank{ci, obj})
		}
		sort.SliceStable(ranked, func(a, b int) bool {
			if ranked[a].obj != ranked[b].obj {
				return ranked[a].obj < ranked[b].obj
			}
			return sc.cands[ranked[a].ci].Name < sc.cands[ranked[b].ci].Name
		})

		promoted := len(ranked)
		if r < len(budgets)-1 {
			promoted = (len(ranked) + 1) / 2
		}
		rs := RungStats{Rung: r, Budget: budget, Candidates: entered, Survivors: promoted}
		sc.rungs = append(sc.rungs, rs)
		if sc.opt.OnRung != nil {
			sc.onRungGuarded(rs)
		}
		surviving = surviving[:0]
		for i, rk := range ranked {
			if i < promoted {
				surviving = append(surviving, rk.ci)
				continue
			}
			// Eliminated: the candidate's partial-width outcome is its real
			// result — finish reduces it normally, never as Pruned.
			emit(rk.ci)
		}
		if len(surviving) == 0 {
			break
		}
	}
	// Finalists — and, after a canceled sweep, whatever the race never
	// decided — emit with the cells they settled. A shut feed may have left
	// cells undelivered (zero outcomes); fill those with the cancellation
	// error first, so an undecided candidate is reported canceled rather
	// than spuriously infeasible.
	for ci := range sc.cands {
		if !finished[ci] {
			sc.fillUndelivered(ci, nm, per)
		}
		emit(ci)
	}
}

// onRungGuarded shields the race loop from a panicking OnRung observer, the
// same way finish shields reduceCandidate's callback path.
func (sc *scheduler) onRungGuarded(rs RungStats) {
	defer func() {
		if v := recover(); v != nil {
			sc.panics.Add(1)
			sc.notePanic(fmt.Sprintf("OnRung callback (rung %d)", rs.Rung),
				fmt.Sprintf("%v\n%s", v, debug.Stack()))
		}
	}()
	sc.opt.OnRung(rs)
}

// dispatchRung settles every (surviving candidate, model) cell at the rung's
// cumulative width on a fresh worker pool and barriers on completion.
// countRestores is true only on rung 0: a cell checkpointed at full width
// restores verbatim on every rung it touches, and counting each rung would
// inflate ResumedCells.
func (sc *scheduler) dispatchRung(surviving []int, nm int, per [][]pairOutcome, target int, countRestores bool) {
	total := len(surviving) * nm
	if total == 0 {
		return
	}
	feed := sc.feed(surviving, nm)
	var wg sync.WaitGroup
	for w := 0; w < sc.workerCount(total); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, ok := feed.Next()
				if !ok {
					return
				}
				sc.runTaskGuarded(k, nm, per, target, countRestores)
			}
		}()
	}
	wg.Wait()
}

// runTaskGuarded is the worker-level panic backstop. The mapping pipeline
// itself is already recovered inside the cell attempt, but the scheduler's
// own cell bookkeeping (bound math, checkpoint peeks) runs outside it; a
// panic there records a typed CellError on the cell and keeps the worker —
// and with it the sweep and the serving process — alive.
func (sc *scheduler) runTaskGuarded(k, nm int, per [][]pairOutcome, target int, countRestores bool) {
	defer func() {
		if v := recover(); v != nil {
			ci, mi := k/nm, k%nm
			ce := &CellError{
				Kind: CellPanic, Candidate: sc.cands[ci].Name, Model: sc.models[mi].Name,
				Stack: string(debug.Stack()), Err: fmt.Errorf("%v", v),
			}
			per[ci][mi] = pairOutcome{err: ce}
			sc.panics.Add(1)
			sc.notePanic("scheduler task", fmt.Sprintf("%v\n%s", ce.Err, ce.Stack))
		}
	}()
	sc.runTask(k, nm, per, target, countRestores)
}

// runTask executes one (candidate, model) cell under the live bound gate
// and the sweep context, settling it at the cumulative portfolio width
// target (the full Restarts for uniform sweeps, the rung budget under
// racing).
func (sc *scheduler) runTask(k, nm int, per [][]pairOutcome, target int, countRestores bool) {
	ci, mi := k/nm, k%nm
	st := sc.states[ci]
	key := cellKey(eval.ConfigFingerprint(&sc.cands[ci]), sc.models[mi].Name, sc.optFP)
	if err := sc.ctx.Err(); err != nil {
		// Canceled sweep: fail the remaining cells fast. Nothing is stored,
		// so a resumed sweep retries exactly these cells.
		per[ci][mi] = pairOutcome{err: fmt.Errorf("dse: cell not run: %w", err)}
		return
	}
	if sc.prune && !st.pruned.Load() {
		// The incumbent is live: re-check before every cell, not just the
		// candidate's first, so a candidate whose remaining cells became
		// hopeless mid-sweep is cut off. Checkpointed cells are exempt:
		// restoring them is free, and discarding a finished result as
		// "pruned" would make a resumed sweep report less than the run
		// that produced the checkpoint.
		if _, done := sc.ses.peekCell(key); !done {
			if best := sc.inc.get(); st.lb > best {
				sc.markPruned(ci, best)
			}
		}
	}
	if st.pruned.Load() {
		return
	}
	// The stop gate is polled between SA restarts: it abandons the cell
	// when the sweep is canceled, or — with pruning active — when the live
	// incumbent already dominates this candidate's bound.
	gated := sc.prune && st.lb > 0
	stop := func() bool {
		if sc.ctx.Err() != nil {
			return true
		}
		return gated && st.lb > sc.inc.get()
	}
	out := sc.ses.runCellTarget(&sc.cands[ci], sc.models[mi], sc.opt, key, stop, target)
	sc.saIters.Add(int64(out.saIterations))
	sc.retries.Add(int64(out.retries))
	sc.panics.Add(int64(out.panics))
	sc.deadline.Add(int64(out.deadlineExceeded))
	if out.panicStack != "" {
		sc.notePanic(fmt.Sprintf("cell %s/%s", sc.cands[ci].Name, sc.models[mi].Name), out.panicStack)
	}
	if out.abandoned {
		if err := sc.ctx.Err(); err != nil {
			// Abandoned because the sweep was canceled, not because the
			// candidate is dominated: report the cancellation, never
			// "pruned".
			per[ci][mi] = pairOutcome{err: fmt.Errorf("dse: cell abandoned: %w", err)}
			return
		}
		// The portfolio walked away mid-cell because the incumbent already
		// dominates this candidate's bound; the partial result is not a
		// settled outcome, so it is neither recorded nor checkpointed.
		sc.abandoned.Add(int64(out.abandonedRestarts))
		sc.markPruned(ci, sc.inc.get())
		return
	}
	if out.restored && countRestores {
		sc.resumed.Add(1)
	}
	per[ci][mi] = out
}

// publishStats folds the counters into the session's last-sweep stats and
// logs the one-line summary.
func (sc *scheduler) publishStats() {
	stats := SweepStats{
		SweepID:           sc.opt.SweepID,
		Candidates:        len(sc.cands),
		Cells:             len(sc.cands) * len(sc.models),
		Canceled:          sc.ctx.Err() != nil,
		ResumedCells:      int(sc.resumed.Load()),
		PrunedCandidates:  int(sc.pruned.Load()),
		AbandonedRestarts: int(sc.abandoned.Load()),
		SAIterations:      int(sc.saIters.Load()),
		Retries:           int(sc.retries.Load()),
		Panics:            int(sc.panics.Load()),
		DeadlineExceeded:  int(sc.deadline.Load()),
		Racing:            sc.opt.Racing,
		Rungs:             append([]RungStats(nil), sc.rungs...),
		SeededIncumbent:   sc.seeded,
		Trajectory:        sc.inc.trajectory(),
	}
	sc.panicMu.Lock()
	stats.LastPanic = sc.lastPanic
	sc.panicMu.Unlock()
	sc.stats = stats
	sc.ses.setLastSweep(stats)
	state := "done"
	if stats.Canceled {
		state = "canceled"
	}
	sc.ses.logf("dse: sweep %s %s: %d candidates (%d pruned), %d cells (%d resumed), %d restarts abandoned, incumbent %.6g",
		sweepName(sc.opt.SweepID), state, stats.Candidates, stats.PrunedCandidates, stats.Cells, stats.ResumedCells,
		stats.AbandonedRestarts, sc.inc.get())
	if stats.Racing {
		for _, r := range stats.Rungs {
			sc.ses.logf("dse: sweep %s rung %d (budget %d): %d candidates, %d promoted",
				sweepName(sc.opt.SweepID), r.Rung, r.Budget, r.Candidates, r.Survivors)
		}
	}
	if stats.Retries+stats.Panics+stats.DeadlineExceeded > 0 {
		sc.ses.logf("dse: sweep %s faults: %d retries, %d recovered panics, %d deadline expiries",
			sweepName(sc.opt.SweepID), stats.Retries, stats.Panics, stats.DeadlineExceeded)
	}
}
