package dse

import (
	"math/rand"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// randomCandidate perturbs GArch72 into a random valid configuration,
// covering cuts, topologies, bandwidths and core resources.
func randomCandidate(rng *rand.Rand) arch.Config {
	cfg := arch.GArch72()
	cfg.NoCBW = float64(8 * (1 + rng.Intn(8)))
	cfg.D2DBW = float64(4 * (1 + rng.Intn(8)))
	cfg.DRAMBW = float64(32 * (1 + rng.Intn(8)))
	cfg.GLBPerCore = []int{512 * 1024, 1 * arch.MB, 2 * arch.MB}[rng.Intn(3)]
	cfg.MACsPerCore = []int{256, 512, 1024}[rng.Intn(3)]
	cfg.FreqGHz = []float64{0.5, 1, 2}[rng.Intn(3)]
	cfg.XCut = 1 + rng.Intn(3) // 6x6 cores: 1, 2 and 3 all divide
	cfg.YCut = 1 + rng.Intn(3)
	if rng.Intn(2) == 1 {
		cfg.Topology = arch.FoldedTorus
	}
	cfg.Name = cfg.String()
	return cfg
}

// TestBoundSoundnessRandomized is the property test behind pruning: for
// randomized candidates, models and batch options, the energy/delay lower
// bounds must never exceed what the real mapping pipeline achieves. A
// violation here means pruning can discard the true optimum.
func TestBoundSoundnessRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := []*dnn.Graph{
		testCNN,
		testTF,
		dnn.Synth(11, dnn.DefaultSynthParams()),
		dnn.Synth(42, dnn.SynthParams{Layers: 9, MaxChannels: 48, Spatial: 24, ResidualProb: 0.5, BranchProb: 0.5}),
	}
	optVariants := []Options{
		func() Options { o := testOptions(); return o }(),
		func() Options {
			o := testOptions()
			o.Batch = 8
			o.BatchUnits = []int{1, 2, 4}
			return o
		}(),
		func() Options {
			o := testOptions()
			o.Batch = 3
			o.BatchUnits = []int{1}
			o.SAIterations = 40
			return o
		}(),
	}
	p := eval.DefaultParams()
	checked := 0
	for i := 0; i < 6; i++ {
		cfg := randomCandidate(rng)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("generated invalid candidate: %v", err)
		}
		g := models[i%len(models)]
		opt := optVariants[i%len(optVariants)]
		opt.Seed = int64(i + 1)
		eLB, dLB := lowerBoundED(&cfg, g, &p, opt)
		if eLB <= 0 || dLB <= 0 {
			t.Fatalf("%s/%s: degenerate bounds e=%v d=%v", cfg.Name, g.Name, eLB, dLB)
		}
		mr, err := MapModel(&cfg, g, opt)
		if err != nil {
			continue // infeasible pair: nothing to bound
		}
		checked++
		if eLB > mr.Energy {
			t.Errorf("%s/%s: energy bound %v exceeds achieved %v", cfg.Name, g.Name, eLB, mr.Energy)
		}
		if dLB > mr.Delay {
			t.Errorf("%s/%s: delay bound %v exceeds achieved %v", cfg.Name, g.Name, dLB, mr.Delay)
		}
		// The v2 bound must dominate (be at least as tight as) the v1 bound:
		// it only adds non-negative compulsory terms.
		v1 := opt
		v1.computeDRAMBound = true
		e1, d1 := lowerBoundED(&cfg, g, &p, v1)
		if eLB < e1 || dLB < d1 {
			t.Errorf("%s/%s: compulsory bound (%v, %v) below compute-dram bound (%v, %v)",
				cfg.Name, g.Name, eLB, dLB, e1, d1)
		}
		// The v3 per-cut bisection bound must also stay below the achieved
		// outcome, and dominate the compulsory bound it extends.
		v3 := opt
		v3.Bound = BoundCut
		e3, d3 := lowerBoundED(&cfg, g, &p, v3)
		if e3 > mr.Energy {
			t.Errorf("%s/%s: cut energy bound %v exceeds achieved %v", cfg.Name, g.Name, e3, mr.Energy)
		}
		if d3 > mr.Delay {
			t.Errorf("%s/%s: cut delay bound %v exceeds achieved %v", cfg.Name, g.Name, d3, mr.Delay)
		}
		if e3 < eLB || d3 < dLB {
			t.Errorf("%s/%s: cut bound (%v, %v) below compulsory bound (%v, %v)",
				cfg.Name, g.Name, e3, d3, eLB, dLB)
		}
	}
	if checked == 0 {
		t.Fatal("no feasible pair was checked; the property test is vacuous")
	}
}

// TestBoundGLBStreamingExcess: a single layer whose weights exceed the
// aggregate GLB must stream its excess on every pass, so the bound rises
// with the capacity term — and must still lie below the mapped outcome.
func TestBoundGLBStreamingExcess(t *testing.T) {
	cfg := arch.GArch72() // 36 cores x 2 MB = 72 MB aggregate GLB
	b := dnn.NewBuilder("bigfc")
	in := b.Input(1, 1, 16384)
	b.FC("fc", in, 8192) // 16384x8192 = 128 MB of weights
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	opt := testOptions()
	opt.Batch = 8
	opt.BatchUnits = []int{1, 2} // >= 4 passes, excess streams >= 3 extra times
	p := eval.DefaultParams()
	eLB, dLB := lowerBoundED(&cfg, g, &p, opt)

	v1 := opt
	v1.computeDRAMBound = true
	e1, d1 := lowerBoundED(&cfg, g, &p, v1)
	// weights alone: 128 MB; excess (128-72) MB streams on >= 3 more passes,
	// so the v2 DRAM floor must clearly exceed the load-once floor.
	if eLB <= e1 || dLB <= d1 {
		t.Fatalf("capacity term missing: v2 (%v, %v) vs v1 (%v, %v)", eLB, dLB, e1, d1)
	}

	mr, err := MapModel(&cfg, g, opt)
	if err != nil {
		t.Fatalf("big-FC model unexpectedly unmappable: %v", err)
	}
	if eLB > mr.Energy || dLB > mr.Delay {
		t.Fatalf("bound (%v, %v) exceeds achieved (%v, %v)", eLB, dLB, mr.Energy, mr.Delay)
	}
}

// TestCoveredDim pins the gap-aware window cover against brute force.
func TestCoveredDim(t *testing.T) {
	brute := func(n, k, stride, pad, src int) int {
		if stride <= 0 {
			stride = 1
		}
		if k < 1 {
			k = 1
		}
		seen := make(map[int]bool)
		for o := 0; o < n; o++ {
			for x := o*stride - pad; x < o*stride-pad+k; x++ {
				if x >= 0 && x < src {
					seen[x] = true
				}
			}
		}
		return len(seen)
	}
	cases := [][5]int{
		{56, 3, 1, 1, 56},  // dense conv
		{28, 1, 2, 0, 56},  // strided 1x1 projection: every other row unread
		{28, 3, 2, 1, 56},  // strided 3x3
		{7, 2, 3, 0, 20},   // stride > kernel with tail clipping
		{5, 7, 1, 3, 5},    // kernel larger than input
		{1, 1, 1, 0, 1},    // degenerate
		{14, 3, 5, 2, 100}, // sparse windows inside a large input
	}
	for _, c := range cases {
		got := coveredDim(c[0], c[1], c[2], c[3], c[4])
		want := brute(c[0], c[1], c[2], c[3], c[4])
		if got != want {
			t.Errorf("coveredDim%v = %d, want %d", c, got, want)
		}
	}
}

// TestBoundCutTightensOnStarvedD2D: on a multi-chiplet candidate whose
// bisection bandwidth is far below the aggregate link sum, a model with one
// dominant weight channel must get a strictly tighter delay floor from the
// per-cut bound than from the compulsory aggregate — that gap is what the
// BenchmarkDSESweepCutBound pruning gate measures — while still bounding
// the real mapped outcome from below.
func TestBoundCutTightensOnStarvedD2D(t *testing.T) {
	cfg := arch.GArch72()
	cfg.D2DBW = 1 // 12 GB/s bisection vs 144 GB/s DRAM + ~3.8 TB/s link sum
	cfg.Name = cfg.String()
	b := dnn.NewBuilder("bigfc")
	in := b.Input(1, 1, 8192)
	b.FC("fc", in, 8192) // 64 MB: one dominant explicit weight flow
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := eval.DefaultParams()
	opt := testOptions()
	v3 := opt
	v3.Bound = BoundCut
	e2, d2 := lowerBoundED(&cfg, g, &p, opt)
	e3, d3 := lowerBoundED(&cfg, g, &p, v3)
	if d3 <= d2 {
		t.Errorf("cut delay bound did not tighten: v3 %v <= v2 %v", d3, d2)
	}
	if e3 != e2 {
		t.Errorf("cut bound changed the energy floor: v3 %v vs v2 %v", e3, e2)
	}
	mr, err := MapModel(&cfg, g, opt)
	if err != nil {
		t.Fatalf("dominant-FC model unexpectedly unmappable: %v", err)
	}
	if d3 > mr.Delay {
		t.Fatalf("cut bound %v exceeds achieved delay %v", d3, mr.Delay)
	}
}

// TestBoundTightensOrdering: on a memory-starved candidate the
// compulsory-traffic bound must be strictly tighter than the compute-DRAM
// bound (that gap is what buys the earlier pruning the benchmarks gate on).
func TestBoundTightensOrdering(t *testing.T) {
	cfg := arch.GArch72()
	cfg.DRAMBW = 32 // memory-bound: activation floors dominate
	cfg.Name = cfg.String()
	p := eval.DefaultParams()
	opt := testOptions()
	v1 := opt
	v1.computeDRAMBound = true
	e2, d2 := lowerBoundED(&cfg, testCNN, &p, opt)
	e1, d1 := lowerBoundED(&cfg, testCNN, &p, v1)
	if e2 <= e1 {
		t.Errorf("energy bound did not tighten: v2 %v <= v1 %v", e2, e1)
	}
	if d2 < d1 {
		t.Errorf("delay bound regressed: v2 %v < v1 %v", d2, d1)
	}
}
