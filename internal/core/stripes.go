package core

import (
	"fmt"
	"sort"

	"gemini/internal/arch"
	"gemini/internal/dnn"
)

// SnakeOrder returns all cores in boustrophedon row order, so consecutive
// runs form the "consecutive and rectangle-shaped" stripes of the heuristic
// SPM strategies the paper baselines against (Sec. II-B).
func SnakeOrder(cfg *arch.Config) []arch.CoreID {
	out := make([]arch.CoreID, 0, cfg.Cores())
	for y := 0; y < cfg.CoresY; y++ {
		if y%2 == 0 {
			for x := 0; x < cfg.CoresX; x++ {
				out = append(out, cfg.CoreAt(x, y))
			}
		} else {
			for x := cfg.CoresX - 1; x >= 0; x-- {
				out = append(out, cfg.CoreAt(x, y))
			}
		}
	}
	return out
}

// layerWeight estimates a layer's share of compute for core allocation.
func layerWeight(l *dnn.Layer) float64 {
	return float64(l.MACs()) + float64(l.VectorOps())/8 + 1
}

// AllocateCores distributes m cores over the layers proportionally to their
// compute weight (largest-remainder method), each layer receiving at least
// one core and at most its maximum useful partition count.
func AllocateCores(g *dnn.Graph, layers []int, m, batchUnit int) ([]int, error) {
	if err := groupFits(len(layers), m); err != nil {
		return nil, err
	}
	var a allocator
	for _, id := range layers {
		l := g.Layer(id)
		a.caps = append(a.caps, maxParts(l, batchUnit))
		a.weights = append(a.weights, layerWeight(l))
	}
	return a.run(m)
}

// allocator holds AllocateCores' per-layer inputs (caps and weights, in
// group order) and its working buffers, so the stripe builder can reuse
// them across segments.
type allocator struct {
	caps, alloc, order  []int
	weights, remainders []float64
}

// groupFits rejects an empty group and one with more layers than cores.
func groupFits(n, m int) error {
	if n == 0 {
		return fmt.Errorf("core: empty layer group")
	}
	if n > m {
		return fmt.Errorf("core: %d layers exceed %d cores", n, m)
	}
	return nil
}

// run distributes m cores over the loaded layers (at least one, at most m
// of them). The returned slice is a's own buffer, valid until the next run.
func (a *allocator) run(m int) ([]int, error) {
	n := len(a.caps)
	caps, weights := a.caps, a.weights
	total := 0.0
	for _, w := range weights {
		total += w
	}
	alloc := resize(a.alloc, n)
	remainders := resize(a.remainders, n)
	a.alloc, a.remainders = alloc, remainders
	used := 0
	for i := range caps {
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
	// Distribute leftovers to the largest remainders that can absorb them.
	order := resize(a.order, n)
	a.order = order
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
			break // every layer saturated; leave cores idle
		}
	}
	// Shrink if the at-least-one rule overshot m.
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

// resize returns buf with length n, reallocating only when it is too short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// maxParts bounds how many workloads a layer can be split into.
func maxParts(l *dnn.Layer, batchUnit int) int {
	p := l.OH * l.OW * batchUnit * l.OK
	if p < 1 {
		p = 1
	}
	return p
}

// HeuristicPart picks the stripe heuristic's partition for n cores:
// spatial dimensions first (H, then W), then batch, channels last, the
// strategy of Tangram-style stripe SPM.
func HeuristicPart(l *dnn.Layer, batchUnit, n int) (Part, bool) {
	best := Part{}
	bestCost := 1e18
	found := false
	forEachFactorization(l, batchUnit, n, func(p Part) {
		cost := factorCost(l, batchUnit, p)
		if cost < bestCost {
			bestCost = cost
			best = p
			found = true
		}
	})
	return best, found
}

// factorCost scores a factorization for the stripe heuristic: penalize
// channel and batch splits (heuristics favor spatial stripes) and uneven
// remainders.
func factorCost(l *dnn.Layer, batchUnit int, p Part) float64 {
	cost := 4*float64(p.K-1) + 2*float64(p.B-1)
	if l.OH%p.H != 0 {
		cost += 0.5
	}
	if l.OW%p.W != 0 {
		cost += 0.5
	}
	if l.OK%p.K != 0 {
		cost += 0.5
	}
	if batchUnit%p.B != 0 {
		cost += 0.5
	}
	// Prefer more square spatial splits.
	if p.H > 0 && p.W > 0 {
		r := float64(p.H) / float64(p.W)
		if r < 1 {
			r = 1 / r
		}
		cost += (r - 1) * 0.01
	}
	return cost
}

// forEachFactorization enumerates every valid Part with product n.
func forEachFactorization(l *dnn.Layer, batchUnit, n int, fn func(Part)) {
	for h := 1; h <= n && h <= l.OH; h++ {
		if n%h != 0 {
			continue
		}
		nh := n / h
		for w := 1; w <= nh && w <= l.OW; w++ {
			if nh%w != 0 {
				continue
			}
			nw := nh / w
			for b := 1; b <= nw && b <= batchUnit; b++ {
				if nw%b != 0 {
					continue
				}
				k := nw / b
				if k <= l.OK {
					fn(Part{H: h, W: w, B: b, K: k})
				}
			}
		}
	}
}

// LargestFeasible returns the largest core count <= n for which the layer
// admits a valid factorization.
func LargestFeasible(l *dnn.Layer, batchUnit, n int) int {
	for v := n; v >= 1; v-- {
		if _, ok := HeuristicPart(l, batchUnit, v); ok {
			return v
		}
	}
	return 1
}

// Stripes builds the heuristic stripe-based LMS for a layer group: compute-
// proportional core counts, consecutive snake-order core stripes, spatial-
// first partitions, and interleaved DRAM flows. This is both the T-Map
// baseline and the SA's initial scheme (paper Sec. V-B1). Callers building
// many groups of one graph should share a StripeBuilder.
func Stripes(g *dnn.Graph, layers []int, cfg *arch.Config, batchUnit int) (*LMS, error) {
	return NewStripeBuilder(g, cfg).Stripes(layers, batchUnit)
}

// StripeScheme builds a full stripe-mapped Scheme from a layer-group
// partition of the graph: groups lists layer IDs per group in topological
// order, batchUnits the samples per pass of each group.
func StripeScheme(g *dnn.Graph, cfg *arch.Config, groups [][]int, batchUnits []int, batch int) (*Scheme, error) {
	return NewStripeBuilder(g, cfg).Scheme(groups, batchUnits, batch)
}

// StripeBuilder builds stripe LMSs for any number of layer groups of one
// (graph, architecture) pair, paying the per-graph work once: it computes
// the snake core order and every layer's compute weight up front, indexes
// each layer's consumers so the explicit-OF test visits only those edges,
// and memoizes the resolved stripe partition (HeuristicPart, falling back
// to LargestFeasible) per batch unit, layer and core count. Every LMS it
// returns owns its slices. A StripeBuilder is not safe for concurrent use.
type StripeBuilder struct {
	g         *dnn.Graph
	cores     int
	order     []arch.CoreID // SnakeOrder
	weights   []float64     // layer -> layerWeight
	consumers [][]int       // layer -> consuming layer, one entry per edge

	parts []partTable

	// inGroup[layer] == stamp marks the layers of the group being built.
	inGroup  []uint32
	stamp    uint32
	alloc    allocator
	resolved []stripePart // per group layer, scratch for Stripes
}

// partTable caches the resolved stripe partition of every (layer, cores)
// pair for one batch unit, indexed layer*(cores+1) + cores.
type partTable struct {
	batchUnit int
	entries   []stripePart
}

// stripePart is one resolved partition, stored in 32-bit fields to keep the
// tables small: the core count n the layer actually takes (after the
// LargestFeasible fallback) and its partition. n == 0 marks an entry not
// yet computed.
type stripePart struct {
	n, h, w, b, k int32
}

func (e stripePart) part() Part {
	return Part{H: int(e.h), W: int(e.w), B: int(e.b), K: int(e.k)}
}

// NewStripeBuilder prepares a builder for the graph on the architecture.
func NewStripeBuilder(g *dnn.Graph, cfg *arch.Config) *StripeBuilder {
	b := &StripeBuilder{
		g:         g,
		cores:     cfg.Cores(),
		order:     SnakeOrder(cfg),
		weights:   make([]float64, len(g.Layers)),
		consumers: make([][]int, len(g.Layers)),
		inGroup:   make([]uint32, len(g.Layers)),
	}
	for _, l := range g.Layers {
		b.weights[l.ID] = layerWeight(l)
		for _, in := range l.Inputs {
			if in.Src >= 0 && in.Src < len(g.Layers) {
				b.consumers[in.Src] = append(b.consumers[in.Src], l.ID)
			}
		}
	}
	return b
}

// Stripes builds the stripe LMS of one layer group, exactly as the
// package-level Stripes does.
func (b *StripeBuilder) Stripes(layers []int, batchUnit int) (*LMS, error) {
	if err := groupFits(len(layers), b.cores); err != nil {
		return nil, err
	}
	b.alloc.caps, b.alloc.weights = b.alloc.caps[:0], b.alloc.weights[:0]
	for _, id := range layers {
		b.alloc.caps = append(b.alloc.caps, maxParts(b.g.Layer(id), batchUnit))
		b.alloc.weights = append(b.alloc.weights, b.weights[id])
	}
	alloc, err := b.alloc.run(b.cores)
	if err != nil {
		return nil, err
	}
	b.stamp++
	if b.stamp == 0 { // wrapped: forget every old mark
		clear(b.inGroup)
		b.stamp = 1
	}
	for _, id := range layers {
		b.inGroup[id] = b.stamp
	}
	table := b.table(batchUnit)
	parts := resize(b.resolved, len(layers))
	b.resolved = parts
	total := 0
	for i, id := range layers {
		parts[i] = b.resolve(table, id, batchUnit, alloc[i])
		total += int(parts[i].n)
	}
	// One backing array each for the MSs and the core groups; every CG is
	// capacity-clipped so growing one (the SA's move operator appends)
	// reallocates instead of overwriting its neighbour.
	mss := make([]MS, len(layers))
	cgs := make([]arch.CoreID, total)
	copy(cgs, b.order)
	lms := &LMS{BatchUnit: batchUnit, MSs: make([]*MS, len(layers))}
	pos := 0
	for i, id := range layers {
		l := b.g.Layer(id)
		n := int(parts[i].n)
		fd := FD{IF: FDImplicit, WGT: FDImplicit, OF: FDImplicit}
		if NeedsExplicitIF(l) {
			fd.IF = FDInterleave
		}
		if l.HasWeights {
			fd.WGT = FDInterleave
		}
		if b.needsExplicitOF(id) {
			fd.OF = FDInterleave
		}
		mss[i] = MS{Layer: id, Part: parts[i].part(), CG: cgs[pos : pos+n : pos+n], FD: fd}
		lms.MSs[i] = &mss[i]
		pos += n
	}
	return lms, nil
}

// Scheme builds a full stripe-mapped Scheme, exactly as StripeScheme does.
func (b *StripeBuilder) Scheme(groups [][]int, batchUnits []int, batch int) (*Scheme, error) {
	if len(groups) != len(batchUnits) {
		return nil, fmt.Errorf("core: %d groups but %d batch units", len(groups), len(batchUnits))
	}
	s := &Scheme{Graph: b.g, Batch: batch, Groups: make([]*LMS, len(groups))}
	for i, layers := range groups {
		lms, err := b.Stripes(layers, batchUnits[i])
		if err != nil {
			return nil, err
		}
		s.Groups[i] = lms
	}
	return s, nil
}

// table returns the partition cache of one batch unit, creating it on
// first use.
func (b *StripeBuilder) table(batchUnit int) []stripePart {
	for _, t := range b.parts {
		if t.batchUnit == batchUnit {
			return t.entries
		}
	}
	t := partTable{batchUnit: batchUnit, entries: make([]stripePart, len(b.g.Layers)*(b.cores+1))}
	b.parts = append(b.parts, t)
	return t.entries
}

// resolve returns the stripe partition layer id takes when allocated n
// cores, computing and caching it on first use.
func (b *StripeBuilder) resolve(table []stripePart, id, batchUnit, n int) stripePart {
	e := &table[id*(b.cores+1)+n]
	if e.n == 0 {
		l := b.g.Layer(id)
		part, ok := HeuristicPart(l, batchUnit, n)
		m := n
		if !ok {
			m = LargestFeasible(l, batchUnit, n)
			part, _ = HeuristicPart(l, batchUnit, m)
		}
		*e = stripePart{n: int32(m), h: int32(part.H), w: int32(part.W), b: int32(part.B), k: int32(part.K)}
	}
	return *e
}

// needsExplicitOF is NeedsExplicitOF for the group marked in inGroup.
func (b *StripeBuilder) needsExplicitOF(id int) bool {
	for _, c := range b.consumers[id] {
		if b.inGroup[c] != b.stamp {
			return true
		}
	}
	return len(b.consumers[id]) == 0
}
