// Package sa implements the Gemini LP SPM exploration engine (Sec. V-B1):
// a simulated-annealing search over the optimization space defined by the
// layer-centric encoding, driven by the five operators of internal/core.
// Layer groups are selected with probability proportional to their
// optimization-space size, and each accepted move is evaluated through the
// full Evaluator, so the search inherently minimizes costly D2D traffic.
//
//gemini:deterministic
//gemini:documented
package sa

import (
	"math"
	"math/rand"
	"sort"

	"gemini/internal/core"
	"gemini/internal/eval"
	"gemini/internal/space"
)

// Options configures the annealer.
type Options struct {
	// Iterations is the number of SA steps.
	Iterations int
	// Seed makes runs reproducible.
	Seed int64
	// Beta and Gamma are the objective exponents of E^beta * D^gamma.
	Beta, Gamma float64
	// InitTemp is the initial relative temperature: a move that worsens the
	// cost by InitTemp x 100% is accepted with probability 1/e at start.
	InitTemp float64
	// FinalTemp is the relative temperature at the last iteration.
	FinalTemp float64
	// Ops restricts the search to a subset of the five operators
	// (nil/empty = all). Used by the operator ablation.
	Ops []core.Op

	// Dominated, when non-nil, is the in-loop abandonment hook: it is polled
	// every CheckEvery iterations with the best cost found so far, and a
	// true return stops the search immediately (Result.Abandoned is set).
	// The DSE scheduler uses it to walk a dominated candidate out of the
	// annealing hot loop instead of letting it finish the restart. The check
	// consumes no randomness and allocates nothing, so a hook that never
	// fires leaves the search bit-identical to an unhooked run.
	Dominated func(bestSoFar float64) bool
}

// CheckEvery is the Dominated polling stride in iterations: frequent enough
// that a dominated cell wastes at most a few dozen group evaluations, rare
// enough to keep the atomic incumbent read off the per-iteration path.
const CheckEvery = 32

// DefaultOptions returns the settings used by the experiments.
func DefaultOptions() Options {
	return Options{
		Iterations: 2000,
		Seed:       1,
		Beta:       1,
		Gamma:      1,
		InitTemp:   0.25,
		FinalTemp:  0.002,
	}
}

// Result reports the annealing outcome.
type Result struct {
	Scheme   *core.Scheme
	Eval     eval.Result
	Cost     float64
	InitCost float64

	Attempted, Applied, Accepted int
	OpAccepted                   [5]int

	// Abandoned reports that the Dominated hook stopped the search before
	// Iterations completed; Scheme/Cost hold the best state found up to that
	// point (callers that abandon because the cell is dominated typically
	// discard them).
	Abandoned bool
}

// Improvement returns InitCost / Cost (>= 1 when the search helped).
func (r Result) Improvement() float64 {
	if r.Cost <= 0 {
		return 1
	}
	return r.InitCost / r.Cost
}

type state struct {
	energy []float64 // per-group energy (J)
	delay  []float64 // per-group delay (s)
	feas   []bool
}

// cost folds the per-group energy/delay into the scalar SA objective. It
// runs once per move, on the hot path.
//
//gemini:noalloc
func (st *state) cost(beta, gamma float64) float64 {
	var e, d float64
	for i := range st.energy {
		if !st.feas[i] {
			return math.Inf(1)
		}
		e += st.energy[i]
		d += st.delay[i]
	}
	if d <= 0 || e <= 0 {
		return math.Inf(1)
	}
	return math.Pow(e, beta) * math.Pow(d, gamma)
}

// measure re-evaluates one group after a move and records the outcome in
// the state's reused slices.
//
//gemini:noalloc
func measure(ev *eval.Evaluator, s *core.Scheme, st *state, gi int) {
	gr := ev.EvaluateGroup(s, gi)
	st.feas[gi] = gr.Feasible
	st.energy[gi] = gr.Energy.Total()
	st.delay[gi] = gr.Delay
}

// Optimize anneals the scheme in place and returns the best scheme found.
// The input scheme is not modified.
func Optimize(input *core.Scheme, ev *eval.Evaluator, opt Options) Result {
	s := input.Clone()
	rng := rand.New(rand.NewSource(opt.Seed))
	mu := &core.Mutator{Graph: s.Graph, Drams: ev.Cfg.DRAMControllers(), Rng: rng}
	pickOp := func() (core.Op, bool) {
		if len(opt.Ops) == 0 {
			return 0, false
		}
		return opt.Ops[rng.Intn(len(opt.Ops))], true
	}

	n := len(s.Groups)
	st := &state{energy: make([]float64, n), delay: make([]float64, n), feas: make([]bool, n)}
	for gi := range s.Groups {
		measure(ev, s, st, gi)
	}
	cur := st.cost(opt.Beta, opt.Gamma)
	res := Result{InitCost: cur}

	// Consumer-aware invalidation for OP5: an OF change in group gi can only
	// affect gi itself and the groups that fetch data produced in gi (their
	// DRAM read source moves). Group membership is fixed under all five
	// operators, so the adjacency is computed once.
	affected := consumerClosure(s)

	// Group selection weights proportional to optimization-space size.
	// Selection runs on every iteration of the hot loop, so the cumulative
	// weights are precomputed once and each pick is a binary search instead
	// of an O(n) scan: pick returns the smallest gi with cumW[gi] >= x,
	// which is the group the linear subtraction scan would land on.
	cumW := make([]float64, n)
	totalW := 0.0
	for gi, g := range s.Groups {
		totalW += space.GroupWeight(ev.Cfg.Cores(), len(g.MSs))
		cumW[gi] = totalW
	}
	pick := func() int {
		x := rng.Float64() * totalW
		gi := sort.SearchFloat64s(cumW, x)
		if gi >= n {
			return n - 1
		}
		return gi
	}

	best := s.Clone()
	bestCost := cur
	temp := opt.InitTemp
	cooling := 1.0
	if opt.Iterations > 1 && opt.FinalTemp > 0 && opt.InitTemp > 0 {
		cooling = math.Pow(opt.FinalTemp/opt.InitTemp, 1/float64(opt.Iterations-1))
	}

	// A rejected move must restore exactly the state entries measure wrote:
	// gi alone for OP1-4, affected[gi] for OP5. Snapshotting only those
	// entries replaces three O(n) copies per iteration with O(touched).
	maxTouched := 1
	for _, a := range affected {
		if len(a) > maxTouched {
			maxTouched = len(a)
		}
	}
	saveE := make([]float64, maxTouched)
	saveD := make([]float64, maxTouched)
	saveF := make([]bool, maxTouched)
	var giBuf [1]int
	// dirty marks groups where s has drifted from the best snapshot.
	dirty := make([]bool, n)

	for it := 0; it < opt.Iterations; it++ {
		// In-loop abandonment: poll the Dominated hook on a fixed stride.
		// The check reads no randomness and touches no search state, so runs
		// where the hook never fires stay bit-identical to unhooked runs.
		if opt.Dominated != nil && it != 0 && it%CheckEvery == 0 && opt.Dominated(bestCost) {
			res.Abandoned = true
			break
		}
		gi := pick()
		res.Attempted++
		old := s.Groups[gi]
		cand := old.Clone()
		s.Groups[gi] = cand
		var op core.Op
		var ok bool
		if restricted, use := pickOp(); use {
			op, ok = restricted, mu.ApplyOp(cand, restricted)
		} else {
			op, ok = mu.Apply(cand)
		}
		if !ok {
			s.Groups[gi] = old
			temp *= cooling
			continue
		}
		res.Applied++

		touched := giBuf[:]
		touched[0] = gi
		if op == core.OpFD {
			// OF changes alter where consumer groups fetch data from; only
			// the mutated group and its consumers can change.
			touched = affected[gi]
		}
		for j, gj := range touched {
			saveE[j], saveD[j], saveF[j] = st.energy[gj], st.delay[gj], st.feas[gj]
			measure(ev, s, st, gj)
		}
		next := st.cost(opt.Beta, opt.Gamma)

		accept := false
		if next <= cur {
			accept = true
		} else if !math.IsInf(next, 1) {
			rel := (next - cur) / cur
			accept = rng.Float64() < math.Exp(-rel/temp)
		}
		if accept {
			cur = next
			res.Accepted++
			res.OpAccepted[int(op)]++
			dirty[gi] = true
			if cur < bestCost {
				bestCost = cur
				// Sync best with s by re-cloning only the groups that have
				// diverged since the last snapshot.
				for gj, d := range dirty {
					if d {
						best.Groups[gj] = s.Groups[gj].Clone()
						dirty[gj] = false
					}
				}
			}
		} else {
			s.Groups[gi] = old
			for j, gj := range touched {
				st.energy[gj], st.delay[gj], st.feas[gj] = saveE[j], saveD[j], saveF[j]
			}
		}
		temp *= cooling
	}

	res.Scheme = best
	res.Cost = bestCost
	res.Eval = ev.Evaluate(best)
	return res
}

// consumerClosure returns, for each group, the ascending list of groups to
// re-measure when its flow-of-data encoding changes: the group itself plus
// every group containing a consumer of one of its layers.
func consumerClosure(s *core.Scheme) [][]int {
	n := len(s.Groups)
	layerGroup := make(map[int]int)
	for gi, g := range s.Groups {
		for _, ms := range g.MSs {
			layerGroup[ms.Layer] = gi
		}
	}
	adj := make([][]bool, n)
	for gi := range adj {
		adj[gi] = make([]bool, n)
		adj[gi][gi] = true
	}
	for _, l := range s.Graph.Layers {
		cg, ok := layerGroup[l.ID]
		if !ok {
			continue
		}
		for _, in := range l.Inputs {
			if in.Src < 0 {
				continue
			}
			if pg, ok := layerGroup[in.Src]; ok && pg != cg {
				adj[pg][cg] = true
			}
		}
	}
	affected := make([][]int, n)
	for gi := range adj {
		for gj, hit := range adj[gi] {
			if hit {
				affected[gi] = append(affected[gi], gj)
			}
		}
	}
	return affected
}
