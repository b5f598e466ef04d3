package graphpart

import (
	"errors"
	"math"
	"slices"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// exhaustiveSegCost scores one segment as Partition's DP does: the
// stripe-mapped group's E^beta * D^gamma, normalized by its (beta+gamma)-th
// root, or +Inf when the segment cannot be mapped.
func exhaustiveSegCost(g *dnn.Graph, cfg *arch.Config, ev *eval.Evaluator, batch int, opt Options, j, i, bu int) float64 {
	var layers []int
	for id := j; id < i; id++ {
		layers = append(layers, id)
	}
	lms, err := core.Stripes(g, layers, cfg, bu)
	if err != nil {
		return math.Inf(1)
	}
	gr := ev.EvaluateGroup(&core.Scheme{Graph: g, Batch: batch, Groups: []*core.LMS{lms}}, 0)
	if !gr.Feasible {
		return math.Inf(1)
	}
	c := math.Pow(gr.Energy.Total(), opt.Beta) * math.Pow(gr.Delay, opt.Gamma)
	if exp := opt.Beta + opt.Gamma; exp > 1 {
		c = math.Pow(c, 1/exp)
	}
	return c
}

// choice is one complete answer: the layer groups and their batch units.
type choice struct {
	groups [][]int
	bus    []int
}

// exhaustivePartition enumerates every segmentation of the graph into
// consecutive groups of at most maxLen layers, and every batch unit of every
// group, summing segment costs left to right as the DP does. It returns the
// minimum cost and every answer attaining it.
func exhaustivePartition(t *testing.T, g *dnn.Graph, cfg *arch.Config, batch int, opt Options, maxLen int) (float64, []choice) {
	t.Helper()
	n := len(g.Layers)
	var bus []int
	for _, b := range opt.BatchUnits {
		if b >= 1 && b <= batch {
			bus = append(bus, b)
		}
	}
	ev := eval.New(cfg)
	seg := map[[3]int]float64{}
	cost := func(j, i, bu int) float64 {
		k := [3]int{j, i, bu}
		if c, ok := seg[k]; ok {
			return c
		}
		c := exhaustiveSegCost(g, cfg, ev, batch, opt, j, i, bu)
		seg[k] = c
		return c
	}
	best := math.Inf(1)
	var argmin []choice
	// Bit b of cuts set means a group boundary after layer b.
	for cuts := 0; cuts < 1<<(n-1); cuts++ {
		var bounds []int
		for b := 0; b < n-1; b++ {
			if cuts&(1<<b) != 0 {
				bounds = append(bounds, b+1)
			}
		}
		bounds = append(bounds, n)
		tooLong := false
		for k, lo := range append([]int{0}, bounds[:len(bounds)-1]...) {
			if bounds[k]-lo > maxLen {
				tooLong = true
			}
		}
		if tooLong {
			continue
		}
		// Every batch-unit assignment, as a mixed-radix counter.
		pick := make([]int, len(bounds))
		for {
			total, lo := 0.0, 0
			c := choice{}
			for k, hi := range bounds {
				total += cost(lo, hi, bus[pick[k]])
				var ids []int
				for id := lo; id < hi; id++ {
					ids = append(ids, id)
				}
				c.groups = append(c.groups, ids)
				c.bus = append(c.bus, bus[pick[k]])
				lo = hi
			}
			switch {
			case total < best:
				best, argmin = total, []choice{c}
			case total == best && !math.IsInf(total, 1):
				argmin = append(argmin, c)
			}
			k := 0
			for k < len(pick) && pick[k] == len(bus)-1 {
				pick[k] = 0
				k++
			}
			if k == len(pick) {
				break
			}
			pick[k]++
		}
	}
	return best, argmin
}

// tinyGraphs returns graphs of at most six layers: synthetic CNNs with
// residual and branch sections, and a hand-built chain mixing layer kinds.
func tinyGraphs(t *testing.T) []*dnn.Graph {
	t.Helper()
	var out []*dnn.Graph
	p := dnn.DefaultSynthParams()
	for seed := int64(1); len(out) < 5 && seed < 200; seed++ {
		p.Layers = 3 + int(seed)%3
		if g := dnn.Synth(seed, p); len(g.Layers) <= 6 {
			out = append(out, g)
		}
	}
	b := dnn.NewBuilder("chain5")
	in := b.Input(16, 16, 8)
	x := b.Conv("c1", in, 32, 3, 3, 1, 1)
	x = b.Pool("p1", x, 2, 2, 0)
	x = b.Conv("c2", x, 64, 3, 3, 1, 1)
	x = b.GlobalPool("gap", x)
	b.FC("fc", x, 10)
	out = append(out, b.MustBuild())
	if len(out) < 4 {
		t.Fatalf("only %d tiny graphs", len(out))
	}
	return out
}

// TestPartitionMatchesExhaustive: on graphs small enough to enumerate, the
// DP's cost is bit-identical to the minimum over every segmentation and
// every per-group batch unit, and its answer is one of the minimizers (the
// only one when the minimum is unique). A group-length cap restricts both
// sides alike.
func TestPartitionMatchesExhaustive(t *testing.T) {
	cfgs := []arch.Config{arch.GArch72(), arch.GArchTorus()}
	small := arch.GArch72()
	small.Name, small.CoresX, small.CoresY, small.XCut, small.YCut = "3x3", 3, 3, 1, 1
	cfgs = append(cfgs, small)
	for _, g := range tinyGraphs(t) {
		for _, cfg := range cfgs {
			for _, maxLen := range []int{0, 2} {
				opt := DefaultOptions()
				opt.MaxGroupLayers = maxLen
				capLen := min(cfg.Cores(), 20)
				if maxLen > 0 {
					capLen = min(maxLen, cfg.Cores())
				}
				best, argmin := exhaustivePartition(t, g, &cfg, 8, opt, capLen)
				r, err := Partition(g, &cfg, eval.New(&cfg), 8, opt)
				if math.IsInf(best, 1) {
					if !errors.Is(err, ErrInfeasible) {
						t.Fatalf("%s on %s cap %d: exhaustive search finds nothing feasible, Partition gives %v", g.Name, cfg.Name, maxLen, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s on %s cap %d: %v", g.Name, cfg.Name, maxLen, err)
				}
				if r.Cost != best {
					t.Fatalf("%s on %s cap %d: DP cost %v, exhaustive minimum %v", g.Name, cfg.Name, maxLen, r.Cost, best)
				}
				found := slices.ContainsFunc(argmin, func(c choice) bool {
					return slices.EqualFunc(c.groups, r.Groups, slices.Equal[[]int]) && slices.Equal(c.bus, r.BatchUnits)
				})
				if !found {
					t.Fatalf("%s on %s cap %d: DP answer %v/%v is not among the %d minimizers (first %v/%v)",
						g.Name, cfg.Name, maxLen, r.Groups, r.BatchUnits, len(argmin), argmin[0].groups, argmin[0].bus)
				}
			}
		}
	}
}
