package core

import (
	"math/rand"
	"slices"
	"testing"

	"gemini/internal/arch"
)

// oracleCoreFlowCmp and oracleDRAMFlowCmp are the original single-sort
// comparators; the bucketed and run-wise sorts must produce the sequence
// slices.SortFunc gives with them.
func oracleCoreFlowCmp(x, y CoreFlow) int {
	if x.Src != y.Src {
		if x.Src < y.Src {
			return -1
		}
		return 1
	}
	if x.Bytes != y.Bytes {
		if x.Bytes < y.Bytes {
			return -1
		}
		return 1
	}
	return oracleCoresCmp(x.Dsts, y.Dsts)
}

func oracleDRAMFlowCmp(x, y DRAMFlow) int {
	if x.Layer != y.Layer {
		return x.Layer - y.Layer
	}
	if x.Ctrl != y.Ctrl {
		return x.Ctrl - y.Ctrl
	}
	if x.Write != y.Write {
		if y.Write {
			return -1
		}
		return 1
	}
	if x.Bytes != y.Bytes {
		if x.Bytes < y.Bytes {
			return -1
		}
		return 1
	}
	return oracleCoresCmp(x.Cores, y.Cores)
}

func oracleCoresCmp(a, b []arch.CoreID) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// randomCores draws a short core list; prefix lists of one another are
// common because every list is a prefix of one fixed sequence half the time.
func randomCores(rng *rand.Rand, cores int) []arch.CoreID {
	n := rng.Intn(4)
	out := make([]arch.CoreID, n)
	for i := range out {
		if rng.Intn(2) == 0 {
			out[i] = arch.CoreID(i % cores) // shared prefix 0,1,2,...
		} else {
			out[i] = arch.CoreID(rng.Intn(cores))
		}
	}
	return out
}

func sameCoreFlows(a, b []CoreFlow) bool {
	return slices.EqualFunc(a, b, func(x, y CoreFlow) bool {
		return x.Src == y.Src && x.Bytes == y.Bytes && slices.Equal(x.Dsts, y.Dsts)
	})
}

func sameDRAMFlows(a, b []DRAMFlow) bool {
	return slices.EqualFunc(a, b, func(x, y DRAMFlow) bool {
		return x.Layer == y.Layer && x.Ctrl == y.Ctrl && x.Write == y.Write &&
			x.Bytes == y.Bytes && slices.Equal(x.Cores, y.Cores)
	})
}

// TestSortFlowsMatchesSingleSort: on random flow sets — few distinct
// sources, byte counts and destination lists, so runs of equal Src, equal
// Bytes and Dsts that are prefixes of each other are the norm — the
// bucketed activation sort and the run-wise DRAM sort return exactly the
// sequence of one slices.SortFunc with the original comparators, with an
// Analysis reused across rounds as the evaluator does.
func TestSortFlowsMatchesSingleSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	an := new(Analysis)
	for round := 0; round < 2000; round++ {
		cores := 1 + rng.Intn(12)
		an.inBytes = make([]int64, cores)
		an.ActFlows = an.ActFlows[:0]
		an.ActDRAM = an.ActDRAM[:0]
		an.WeightFlows = an.WeightFlows[:0]
		for i, n := 0, rng.Intn(40); i < n; i++ {
			an.ActFlows = append(an.ActFlows, CoreFlow{
				Src:   arch.CoreID(rng.Intn(cores)),
				Dsts:  randomCores(rng, cores),
				Bytes: float64(rng.Intn(3)),
			})
		}
		// DRAM flows come layer by layer, ascending most rounds and out of
		// order in the rest (exercising the whole-slice fallback).
		layer := rng.Intn(5)
		for i, n := 0, rng.Intn(40); i < n; i++ {
			if rng.Intn(4) == 0 {
				layer += 1 + rng.Intn(3)
			}
			if round%5 == 0 && rng.Intn(8) == 0 {
				layer = rng.Intn(10)
			}
			f := DRAMFlow{
				Layer: layer,
				Ctrl:  rng.Intn(3) - 1,
				Cores: randomCores(rng, cores),
				Bytes: float64(rng.Intn(3)),
				Write: rng.Intn(2) == 0,
			}
			an.ActDRAM = append(an.ActDRAM, f)
			f.Write = false
			an.WeightFlows = append(an.WeightFlows, f)
		}
		wantAct := slices.Clone(an.ActFlows)
		slices.SortFunc(wantAct, oracleCoreFlowCmp)
		wantDRAM := slices.Clone(an.ActDRAM)
		slices.SortFunc(wantDRAM, oracleDRAMFlowCmp)
		wantW := slices.Clone(an.WeightFlows)
		slices.SortFunc(wantW, oracleDRAMFlowCmp)

		an.sortFlows()
		if !sameCoreFlows(an.ActFlows, wantAct) {
			t.Fatalf("round %d: activation flows\n got %v\nwant %v", round, an.ActFlows, wantAct)
		}
		if !sameDRAMFlows(an.ActDRAM, wantDRAM) {
			t.Fatalf("round %d: DRAM flows\n got %v\nwant %v", round, an.ActDRAM, wantDRAM)
		}
		if !sameDRAMFlows(an.WeightFlows, wantW) {
			t.Fatalf("round %d: weight flows\n got %v\nwant %v", round, an.WeightFlows, wantW)
		}
	}
}

// TestAnalyzeIntoAllocFreeAfterWarmup: the bucketed sort's scratch is
// recycled, so re-parsing a group allocates nothing once the Analysis has
// grown its buffers.
func TestAnalyzeIntoAllocFreeAfterWarmup(t *testing.T) {
	cfg := testCfg()
	s := tinyScheme(t, cfg, 2)
	an := new(Analysis)
	if err := AnalyzeInto(an, s, 0, cfg); err != nil {
		t.Fatal(err)
	}
	if len(an.ActFlows) < 2 {
		t.Fatalf("only %d activation flows; the sort is not exercised", len(an.ActFlows))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := AnalyzeInto(an, s, 0, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AnalyzeInto allocates %.0f times per parse after warm-up, want 0", allocs)
	}
}
