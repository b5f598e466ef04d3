package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/core"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
)

// oracleAllocateCores is the original single-call AllocateCores, kept as
// the reference the stripe builder's allocator must reproduce.
func oracleAllocateCores(g *dnn.Graph, layers []int, m, batchUnit int) ([]int, error) {
	n := len(layers)
	if n == 0 {
		return nil, fmt.Errorf("core: empty layer group")
	}
	if n > m {
		return nil, fmt.Errorf("core: %d layers exceed %d cores", n, m)
	}
	caps := make([]int, n)
	weights := make([]float64, n)
	total := 0.0
	for i, id := range layers {
		l := g.Layer(id)
		caps[i] = max(l.OH*l.OW*batchUnit*l.OK, 1)
		weights[i] = float64(l.MACs()) + float64(l.VectorOps())/8 + 1
		total += weights[i]
	}
	alloc := make([]int, n)
	remainders := make([]float64, n)
	used := 0
	for i := range layers {
		ideal := weights[i] / total * float64(m)
		alloc[i] = int(ideal)
		if alloc[i] < 1 {
			alloc[i] = 1
		}
		if alloc[i] > caps[i] {
			alloc[i] = caps[i]
		}
		remainders[i] = ideal - float64(alloc[i])
		used += alloc[i]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for used < m {
		sort.Slice(order, func(a, b int) bool { return remainders[order[a]] > remainders[order[b]] })
		progressed := false
		for _, i := range order {
			if used >= m {
				break
			}
			if alloc[i] < caps[i] {
				alloc[i]++
				remainders[i] -= 1
				used++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	for used > m {
		worst := -1
		for i := range alloc {
			if alloc[i] > 1 && (worst < 0 || remainders[i] < remainders[worst]) {
				worst = i
			}
		}
		if worst < 0 {
			return nil, fmt.Errorf("core: cannot fit %d layers in %d cores", n, m)
		}
		alloc[worst]--
		used--
	}
	return alloc, nil
}

// oracleStripes is the original from-scratch Stripes: a fresh snake order,
// a HeuristicPart search per layer and a whole-graph edge scan per
// explicit-OF test.
func oracleStripes(g *dnn.Graph, layers []int, cfg *arch.Config, batchUnit int) (*core.LMS, error) {
	alloc, err := oracleAllocateCores(g, layers, cfg.Cores(), batchUnit)
	if err != nil {
		return nil, err
	}
	group := make(map[int]bool, len(layers))
	for _, id := range layers {
		group[id] = true
	}
	order := core.SnakeOrder(cfg)
	lms := &core.LMS{BatchUnit: batchUnit}
	pos := 0
	for i, id := range layers {
		l := g.Layer(id)
		n := alloc[i]
		part, ok := core.HeuristicPart(l, batchUnit, n)
		if !ok {
			n = core.LargestFeasible(l, batchUnit, n)
			part, _ = core.HeuristicPart(l, batchUnit, n)
		}
		cg := append([]arch.CoreID(nil), order[pos:pos+n]...)
		pos += n
		fd := core.FD{IF: core.FDImplicit, WGT: core.FDImplicit, OF: core.FDImplicit}
		if core.NeedsExplicitIF(l) {
			fd.IF = core.FDInterleave
		}
		if l.HasWeights {
			fd.WGT = core.FDInterleave
		}
		if core.NeedsExplicitOF(g, group, id) {
			fd.OF = core.FDInterleave
		}
		lms.MSs = append(lms.MSs, &core.MS{Layer: id, Part: part, CG: cg, FD: fd})
	}
	return lms, nil
}

// sameLMS reports the first difference between two LMSs, or "".
func sameLMS(got, want *core.LMS) string {
	if got.BatchUnit != want.BatchUnit || len(got.MSs) != len(want.MSs) {
		return fmt.Sprintf("batch unit %d/%d, %d/%d layers", got.BatchUnit, want.BatchUnit, len(got.MSs), len(want.MSs))
	}
	for i, g := range got.MSs {
		w := want.MSs[i]
		if g.Layer != w.Layer || g.Part != w.Part || g.FD != w.FD || !slices.Equal(g.CG, w.CG) {
			return fmt.Sprintf("layer %d: got %+v, want %+v", w.Layer, *g, *w)
		}
	}
	return ""
}

// equivArchs are the architectures the builder is checked on: the paper's
// G-Arch, a 36-core 3-cut candidate of the reduced 72 TOPs space (the
// benchmark's cold-sweep grid) and a folded torus.
func equivArchs(t *testing.T) []arch.Config {
	t.Helper()
	out := []arch.Config{arch.GArch72(), arch.GArchTorus()}
	for _, c := range dse.Space72().Reduced().Enumerate() {
		if c.Cores() == 36 && c.XCut*c.YCut == 3 {
			return append(out, c)
		}
	}
	t.Fatal("reduced Space72 has no 36-core 3-cut candidate")
	return nil
}

// TestStripeBuilderMatchesOracle: for every (j, i, bu) segment the
// partitioner's DP can visit, the shared builder yields exactly the LMS the
// original from-scratch Stripes built — Part, CG and FD of every layer —
// and fails on exactly the same segments.
func TestStripeBuilderMatchesOracle(t *testing.T) {
	models := []*dnn.Graph{dnn.ResNet50(), dnn.Transformer(), dnn.MobileNetV2()}
	bus := graphpart.DefaultOptions().BatchUnits
	for _, cfg := range equivArchs(t) {
		for _, g := range models {
			t.Run(cfg.Name+"/"+g.Name, func(t *testing.T) {
				b := core.NewStripeBuilder(g, &cfg)
				maxLen := min(cfg.Cores(), 20)
				checked := 0
				for i := 1; i <= len(g.Layers); i++ {
					for j := max(i-maxLen, 0); j < i; j++ {
						seg := make([]int, 0, i-j)
						for id := j; id < i; id++ {
							seg = append(seg, id)
						}
						for _, bu := range bus {
							got, gerr := b.Stripes(seg, bu)
							want, werr := oracleStripes(g, seg, &cfg, bu)
							if (gerr != nil) != (werr != nil) {
								t.Fatalf("segment [%d,%d) bu %d: error %v, oracle %v", j, i, bu, gerr, werr)
							}
							if werr != nil {
								continue
							}
							if d := sameLMS(got, want); d != "" {
								t.Fatalf("segment [%d,%d) bu %d: %s", j, i, bu, d)
							}
							checked++
						}
					}
				}
				if checked == 0 {
					t.Fatal("no segment checked")
				}
			})
		}
	}
}

// chunked cuts the graph into consecutive groups of up to size layers,
// cycling the batch units 2, 4, 8, 1.
func chunked(g *dnn.Graph, size int) (groups [][]int, bus []int) {
	for lo := 0; lo < len(g.Layers); lo += size {
		seg := []int{}
		for id := lo; id < min(lo+size, len(g.Layers)); id++ {
			seg = append(seg, id)
		}
		groups = append(groups, seg)
		bus = append(bus, 1<<(len(groups)%4))
	}
	return groups, bus
}

// TestStripeSchemesDoNotAlias: the SA operators mutate core groups in
// place (swaps, and the move operator's append), so every scheme the
// builder hands out — through StripeScheme, a shared builder or
// Partition — must own its slices. Thousands of operator applications
// straight on the returned scheme (no Clone, which would hide aliasing)
// must keep it valid, and must not disturb what the builder returns next:
// whole schemes built after it still match the oracle group by group.
func TestStripeSchemesDoNotAlias(t *testing.T) {
	cfg := arch.GArch72()
	g := dnn.ResNet50()
	b := core.NewStripeBuilder(g, &cfg)
	groups, bus := chunked(g, 6)
	fresh := func() *core.Scheme {
		s, err := b.Scheme(groups, bus, 8)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	part, err := graphpart.Partition(dnn.TinyCNN(), &cfg, eval.New(&cfg), 8, graphpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		s    *core.Scheme
	}{{"builder", fresh()}, {"partition", part.Scheme}} {
		name, s := c.name, c.s
		mu := core.Mutator{Graph: s.Graph, Drams: cfg.DRAMControllers(), Rng: rand.New(rand.NewSource(1))}
		for it := 0; it < 3000; it++ {
			mu.ApplyOp(s.Groups[it%len(s.Groups)], core.Op(it%5))
			if err := s.Validate(&cfg); err != nil {
				t.Fatalf("%s scheme corrupted after %d operator applications: %v", name, it+1, err)
			}
		}
	}
	again := fresh()
	for gi, layers := range groups {
		want, err := oracleStripes(g, layers, &cfg, bus[gi])
		if err != nil {
			t.Fatal(err)
		}
		if d := sameLMS(again.Groups[gi], want); d != "" {
			t.Fatalf("builder output changed after its earlier scheme was mutated: group %d: %s", gi, d)
		}
	}
}

// TestSnakeOrderHamiltonian: the stripe heuristic's core order visits every
// core exactly once and steps between mesh neighbours only, on every preset
// and every core-array shape of the reduced Table I spaces.
func TestSnakeOrderHamiltonian(t *testing.T) {
	cfgs := []arch.Config{arch.Simba(), arch.GArch72(), arch.Grayskull(), arch.GArchTorus()}
	for _, sp := range []dse.Space{dse.Space72(), dse.Space128(), dse.Space512()} {
		cfgs = append(cfgs, sp.Reduced().Enumerate()...)
	}
	shapes := map[[2]int]bool{}
	for _, cfg := range cfgs {
		shapes[[2]int{cfg.CoresX, cfg.CoresY}] = true
		order := core.SnakeOrder(&cfg)
		if len(order) != cfg.Cores() {
			t.Fatalf("%s: %d cores in order, want %d", cfg.Name, len(order), cfg.Cores())
		}
		seen := make([]bool, cfg.Cores())
		for i, c := range order {
			if int(c) < 0 || int(c) >= cfg.Cores() || seen[c] {
				t.Fatalf("%s: core %d out of range or repeated at position %d", cfg.Name, c, i)
			}
			seen[c] = true
			if i == 0 {
				continue
			}
			x0, y0 := cfg.CoreXY(order[i-1])
			x1, y1 := cfg.CoreXY(c)
			if d := abs(x1-x0) + abs(y1-y0); d != 1 {
				t.Fatalf("%s: positions %d,%d (%d,%d)->(%d,%d) are not mesh neighbours", cfg.Name, i-1, i, x0, y0, x1, y1)
			}
		}
	}
	if len(shapes) < 4 {
		t.Fatalf("only %d distinct core-array shapes checked", len(shapes))
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
