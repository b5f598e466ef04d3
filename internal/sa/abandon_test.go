package sa

import (
	"testing"

	"gemini/internal/eval"
)

// TestDominatedHookNeverFiringBitIdentical pins the in-loop abandonment
// contract: a hooked run whose Dominated callback never returns true must be
// bit-identical to an unhooked run — same costs, counters, acceptance
// pattern and best scheme — because the check consumes no randomness and
// touches no search state.
func TestDominatedHookNeverFiringBitIdentical(t *testing.T) {
	s, cfg := annealInput(t)
	opt := DefaultOptions()
	opt.Iterations = 500
	opt.Seed = 42

	plain := Optimize(s, eval.New(cfg), opt)

	hooked := opt
	polls := 0
	hooked.Dominated = func(best float64) bool {
		polls++
		if best > plain.InitCost {
			t.Errorf("hook saw best %v above the initial cost %v", best, plain.InitCost)
		}
		return false
	}
	h := Optimize(s, eval.New(cfg), hooked)

	if polls == 0 {
		t.Fatal("Dominated hook was never polled")
	}
	if h.Abandoned {
		t.Fatal("never-firing hook abandoned the run")
	}
	if h.Cost != plain.Cost || h.InitCost != plain.InitCost {
		t.Fatalf("costs differ: %v/%v vs %v/%v", h.Cost, h.InitCost, plain.Cost, plain.InitCost)
	}
	if h.Attempted != plain.Attempted || h.Applied != plain.Applied || h.Accepted != plain.Accepted {
		t.Fatalf("counters differ: %+v vs %+v", h, plain)
	}
	if h.OpAccepted != plain.OpAccepted {
		t.Fatalf("per-op acceptance differs: %v vs %v", h.OpAccepted, plain.OpAccepted)
	}
	if sh, sp := schemeJSON(t, h.Scheme), schemeJSON(t, plain.Scheme); sh != sp {
		t.Fatal("best schemes differ between hooked and plain runs")
	}
}

// TestDominatedHookStopsMidAnneal: a firing hook must stop the search
// within one polling stride and report Abandoned with the iteration count
// actually spent.
func TestDominatedHookStopsMidAnneal(t *testing.T) {
	s, cfg := annealInput(t)
	opt := DefaultOptions()
	opt.Iterations = 500
	opt.Seed = 7
	fireAfter := 3
	polls := 0
	opt.Dominated = func(float64) bool {
		polls++
		return polls > fireAfter
	}

	r := Optimize(s, eval.New(cfg), opt)
	if !r.Abandoned {
		t.Fatal("firing hook did not abandon")
	}
	wantIters := (fireAfter + 1) * CheckEvery // stops at the (fireAfter+1)-th poll
	if r.Attempted != wantIters {
		t.Errorf("attempted %d iterations, want exactly %d (abandon on the poll boundary)", r.Attempted, wantIters)
	}
	if r.Scheme == nil {
		t.Error("abandoned run lost its best-so-far scheme")
	}
}

// TestPortfolioPropagatesMidAnnealAbandon: a restart abandoned mid-anneal
// must abandon the whole portfolio, keep the partial restart out of Costs,
// and account every iteration spent.
func TestPortfolioPropagatesMidAnnealAbandon(t *testing.T) {
	s, cfg := annealInput(t)
	opt := DefaultOptions()
	opt.Iterations = 200
	opt.Seed = 3

	full := MultiStart(s, eval.New(cfg), opt, 2)
	if full.Abandoned || len(full.Costs) != 2 {
		t.Fatalf("baseline portfolio: %+v", full)
	}

	// Fire during the second restart.
	polls := 0
	firstRestartPolls := opt.Iterations/CheckEvery - 1
	hooked := opt
	hooked.Dominated = func(float64) bool {
		polls++
		return polls > firstRestartPolls+2
	}
	p := MultiStartAdaptive(s, eval.New(cfg), hooked, 2, AdaptiveOptions{})
	if !p.Abandoned {
		t.Fatal("portfolio ignored the mid-anneal abandon")
	}
	if len(p.Costs) != 1 || p.Planned != 2 {
		t.Fatalf("partial restart leaked into Costs: %v of %d planned", p.Costs, p.Planned)
	}
	if p.Iterations <= opt.Iterations || p.Iterations >= full.Iterations {
		t.Errorf("iterations %d should lie between one full restart (%d) and the full portfolio (%d)",
			p.Iterations, opt.Iterations, full.Iterations)
	}
}
