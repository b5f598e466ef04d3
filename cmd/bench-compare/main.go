// Command bench-compare gates benchmark reports against a committed
// baseline: benchmarks present in both files must not regress ns/op or
// allocs/op by more than -max-regress percent, and (unless disabled) the
// warm-cache DSE session sweep must stay -warm-factor times faster than the
// cold sweep. Report files are either a flat {"BenchmarkX": {...}} map (the
// scripts/bench*_json.sh output) or a BENCH_N.json envelope with a
// "benchmarks" object whose entries may nest the numbers under "optimized".
//
// Usage:
//
//	bench-compare -old BENCH_1.json -new bench2.json [-max-regress 10] [-warm-factor 2]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"sort"
)

// metrics is one benchmark's measured numbers. The work-saved counters are
// only present on the benchmarks that report them; zero means absent.
type metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SAIterations / UniformSAIterations are the racing sweep's annealing
	// spend and its uniform twin's (BenchmarkDSESweepRacing).
	SAIterations        float64 `json:"sa_iterations"`
	UniformSAIterations float64 `json:"uniform_sa_iterations"`
	// PrunedCandidates / CompulsoryPruned are the cut-bound sweep's prune
	// count and its compulsory-bound twin's (BenchmarkDSESweepCutBound).
	PrunedCandidates float64 `json:"pruned_candidates"`
	CompulsoryPruned float64 `json:"compulsory_pruned_candidates"`
	// OneWorkerNs / TwoWorkerNs are the fleet sweep's drain times for the
	// independent-shards twin and the 2-worker incumbent-sharing fleet;
	// SoloSAIterations is the independent twin's total annealing spend
	// (BenchmarkFleetSweep, which reuses sa_iterations for the fleet's own
	// spend).
	OneWorkerNs      float64 `json:"one_worker_ns"`
	TwoWorkerNs      float64 `json:"two_worker_ns"`
	SoloSAIterations float64 `json:"solo_sa_iterations"`
}

// entry tolerates both the flat shape and the BENCH_N baseline/optimized
// envelope (optimized wins when present: it is the committed state of the
// tree).
type entry struct {
	metrics
	Optimized *metrics `json:"optimized"`
}

func (e entry) resolve() metrics {
	if e.Optimized != nil {
		return *e.Optimized
	}
	return e.metrics
}

// file tolerates both top-level shapes.
type file struct {
	Benchmarks map[string]entry `json:"benchmarks"`
}

func load(path string) (map[string]metrics, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f file
	if err := json.Unmarshal(raw, &f); err == nil && len(f.Benchmarks) > 0 {
		return resolveAll(f.Benchmarks), nil
	}
	var flat map[string]entry
	if err := json.Unmarshal(raw, &flat); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// A flat report mixes benchmark entries with metadata strings; the
	// strict decode above already rejected those, so filter by ns > 0.
	return resolveAll(flat), nil
}

func resolveAll(in map[string]entry) map[string]metrics {
	out := make(map[string]metrics, len(in))
	for k, v := range in {
		if m := v.resolve(); m.NsPerOp > 0 {
			out[k] = m
		}
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench-compare: ")
	oldPath := flag.String("old", "BENCH_1.json", "baseline report")
	newPath := flag.String("new", "", "fresh report to gate")
	maxRegress := flag.Float64("max-regress", 10, "max allowed regression in percent (ns/op and allocs/op)")
	nsGate := flag.Bool("ns-gate", true, "fail on ns/op regressions; disable when old and new reports come from different machines (allocs/op stays gated — it is machine-independent)")
	warmFactor := flag.Float64("warm-factor", 2, "required cold/warm speedup of the DSE session sweep in the new report (0 disables); cold and warm come from the same run, so this check is machine-relative")
	orderedFactor := flag.Float64("ordered-factor", 0, "required grid/ordered speedup of the pruning-enabled scheduler sweep in the new report (0 disables); both come from the same run, so this check is machine-relative")
	tightBoundFactor := flag.Float64("tightbound-factor", 0, "required PR3-bound/tight-bound speedup of the weak-first sweep in the new report (0 disables); both come from the same run, so this check is machine-relative")
	diskWarmFactor := flag.Float64("diskwarm-factor", 0, "max allowed disk-warm/in-process-warm slowdown of the session sweep in the new report (0 disables); both come from the same run, so this check is machine-relative")
	hardenedFactor := flag.Float64("hardened-factor", 0, "max allowed hardened/tight-bound slowdown of the weak-first sweep in the new report (0 disables); both come from the same run, so this check is machine-relative")
	racingFactor := flag.Float64("racing-factor", 0, "required uniform/racing SA-iteration ratio of the racing sweep in the new report (0 disables); ratio of twin counters from one run; absolute counts vary with GOMAXPROCS")
	cutBoundFactor := flag.Float64("cutbound-factor", 0, "required cut/compulsory pruned-candidate ratio of the cut-bound sweep in the new report (0 disables); the cut bound must also prune strictly more in absolute count")
	fleetFactor := flag.Float64("fleet-factor", 0, "required independent/fleet wall-clock ratio of the fleet sweep in the new report (0 disables): the 2-worker incumbent-sharing fleet must drain the grid this much faster than one no-sharing worker, and spend strictly fewer total SA iterations; both twins come from the same run, so this check is machine-relative")
	only := flag.String("only", "", "regex restricting the per-benchmark regression checks (empty = all overlapping benchmarks); use for tight -max-regress gates that must skip benchmarks whose allocs depend on scheduling races")
	flag.Parse()
	if *newPath == "" {
		log.Fatal("-new is required")
	}

	oldB, err := load(*oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newB, err := load(*newPath)
	if err != nil {
		log.Fatal(err)
	}

	var keep *regexp.Regexp
	if *only != "" {
		if keep, err = regexp.Compile(*only); err != nil {
			log.Fatalf("-only: %v", err)
		}
	}
	var names []string
	for name := range oldB {
		if _, ok := newB[name]; !ok {
			continue
		}
		if keep != nil && !keep.MatchString(name) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		log.Fatalf("no overlapping benchmarks between %s and %s (filter %q)", *oldPath, *newPath, *only)
	}

	failed := false
	check := func(name, metric string, oldV, newV float64, gate bool) {
		switch {
		case oldV == 0 && newV == 0:
			return
		case oldV == 0:
			fmt.Printf("FAIL %s %s: %v -> %v (baseline was zero)\n", name, metric, oldV, newV)
			failed = true
			return
		}
		pct := 100 * (newV - oldV) / oldV
		status := "ok  "
		if pct > *maxRegress {
			if gate {
				status = "FAIL"
				failed = true
			} else {
				status = "warn"
			}
		}
		fmt.Printf("%s %s %s: %.6g -> %.6g (%+.1f%%, limit +%.0f%%)\n",
			status, name, metric, oldV, newV, pct, *maxRegress)
	}
	for _, name := range names {
		check(name, "ns/op", oldB[name].NsPerOp, newB[name].NsPerOp, *nsGate)
		check(name, "allocs/op", oldB[name].AllocsPerOp, newB[name].AllocsPerOp, true)
	}

	if *warmFactor > 0 {
		cold, okC := newB["BenchmarkDSESessionSweepCold"]
		warm, okW := newB["BenchmarkDSESessionSweepWarm"]
		switch {
		case !okC || !okW:
			fmt.Printf("FAIL warm-cache check: cold/warm sweep benchmarks missing from %s\n", *newPath)
			failed = true
		case cold.NsPerOp < *warmFactor*warm.NsPerOp:
			fmt.Printf("FAIL warm-cache sweep speedup %.2fx < required %.2fx (cold %.6g ns, warm %.6g ns)\n",
				cold.NsPerOp/warm.NsPerOp, *warmFactor, cold.NsPerOp, warm.NsPerOp)
			failed = true
		default:
			fmt.Printf("ok   warm-cache sweep speedup %.2fx (>= %.2fx)\n", cold.NsPerOp/warm.NsPerOp, *warmFactor)
		}
	}

	if *orderedFactor > 0 {
		grid, okG := newB["BenchmarkDSESweepGridFixed"]
		ordered, okO := newB["BenchmarkDSESweepOrdered"]
		switch {
		case !okG || !okO:
			fmt.Printf("FAIL ordered-sweep check: grid/ordered scheduler benchmarks missing from %s\n", *newPath)
			failed = true
		case grid.NsPerOp < *orderedFactor*ordered.NsPerOp:
			fmt.Printf("FAIL bound-ordered sweep speedup %.2fx < required %.2fx (grid %.6g ns, ordered %.6g ns)\n",
				grid.NsPerOp/ordered.NsPerOp, *orderedFactor, grid.NsPerOp, ordered.NsPerOp)
			failed = true
		default:
			fmt.Printf("ok   bound-ordered sweep speedup %.2fx (>= %.2fx)\n", grid.NsPerOp/ordered.NsPerOp, *orderedFactor)
		}
	}

	if *tightBoundFactor > 0 {
		pr3, okP := newB["BenchmarkDSESweepPR3Bound"]
		tight, okT := newB["BenchmarkDSESweepTightBound"]
		switch {
		case !okP || !okT:
			fmt.Printf("FAIL tight-bound check: PR3/tight bound benchmarks missing from %s\n", *newPath)
			failed = true
		case pr3.NsPerOp < *tightBoundFactor*tight.NsPerOp:
			fmt.Printf("FAIL tight-bound sweep speedup %.2fx < required %.2fx (PR3 bound %.6g ns, tight %.6g ns)\n",
				pr3.NsPerOp/tight.NsPerOp, *tightBoundFactor, pr3.NsPerOp, tight.NsPerOp)
			failed = true
		default:
			fmt.Printf("ok   tight-bound sweep speedup %.2fx (>= %.2fx)\n", pr3.NsPerOp/tight.NsPerOp, *tightBoundFactor)
		}
	}

	if *diskWarmFactor > 0 {
		warm, okW := newB["BenchmarkDSESessionSweepWarm"]
		disk, okD := newB["BenchmarkDSESweepDiskWarm"]
		switch {
		case !okW || !okD:
			fmt.Printf("FAIL disk-warm check: warm/disk-warm sweep benchmarks missing from %s\n", *newPath)
			failed = true
		case disk.NsPerOp > *diskWarmFactor*warm.NsPerOp:
			fmt.Printf("FAIL disk-warm sweep %.2fx slower than in-process warm, limit %.2fx (disk %.6g ns, warm %.6g ns)\n",
				disk.NsPerOp/warm.NsPerOp, *diskWarmFactor, disk.NsPerOp, warm.NsPerOp)
			failed = true
		default:
			fmt.Printf("ok   disk-warm sweep within %.2fx of in-process warm (limit %.2fx)\n", disk.NsPerOp/warm.NsPerOp, *diskWarmFactor)
		}
	}

	if *hardenedFactor > 0 {
		tight, okT := newB["BenchmarkDSESweepTightBound"]
		hard, okH := newB["BenchmarkDSESweepHardened"]
		switch {
		case !okT || !okH:
			fmt.Printf("FAIL hardened check: tight-bound/hardened sweep benchmarks missing from %s\n", *newPath)
			failed = true
		case hard.NsPerOp > *hardenedFactor*tight.NsPerOp:
			fmt.Printf("FAIL hardened sweep %.2fx slower than its fault-free twin, limit %.2fx (hardened %.6g ns, tight %.6g ns)\n",
				hard.NsPerOp/tight.NsPerOp, *hardenedFactor, hard.NsPerOp, tight.NsPerOp)
			failed = true
		default:
			fmt.Printf("ok   hardened sweep within %.2fx of its fault-free twin (limit %.2fx)\n", hard.NsPerOp/tight.NsPerOp, *hardenedFactor)
		}
	}

	if *racingFactor > 0 {
		race, ok := newB["BenchmarkDSESweepRacing"]
		switch {
		case !ok || race.SAIterations == 0 || race.UniformSAIterations == 0:
			fmt.Printf("FAIL racing check: BenchmarkDSESweepRacing iteration counters missing from %s\n", *newPath)
			failed = true
		case race.UniformSAIterations < *racingFactor*race.SAIterations:
			fmt.Printf("FAIL racing sweep saved %.2fx SA iterations < required %.2fx (racing %g, uniform %g)\n",
				race.UniformSAIterations/race.SAIterations, *racingFactor, race.SAIterations, race.UniformSAIterations)
			failed = true
		default:
			fmt.Printf("ok   racing sweep spends %.2fx fewer SA iterations than uniform (>= %.2fx)\n",
				race.UniformSAIterations/race.SAIterations, *racingFactor)
		}
	}

	if *cutBoundFactor > 0 {
		cut, ok := newB["BenchmarkDSESweepCutBound"]
		switch {
		case !ok || cut.PrunedCandidates == 0:
			fmt.Printf("FAIL cut-bound check: BenchmarkDSESweepCutBound prune counters missing from %s\n", *newPath)
			failed = true
		case cut.PrunedCandidates <= cut.CompulsoryPruned ||
			cut.PrunedCandidates < *cutBoundFactor*cut.CompulsoryPruned:
			fmt.Printf("FAIL cut bound pruned %g candidates vs compulsory %g (want strictly more and >= %.2fx)\n",
				cut.PrunedCandidates, cut.CompulsoryPruned, *cutBoundFactor)
			failed = true
		default:
			fmt.Printf("ok   cut bound pruned %g candidates vs compulsory %g (strictly more, >= %.2fx)\n",
				cut.PrunedCandidates, cut.CompulsoryPruned, *cutBoundFactor)
		}
	}

	if *fleetFactor > 0 {
		fl, ok := newB["BenchmarkFleetSweep"]
		switch {
		case !ok || fl.OneWorkerNs == 0 || fl.TwoWorkerNs == 0 ||
			fl.SAIterations == 0 || fl.SoloSAIterations == 0:
			fmt.Printf("FAIL fleet check: BenchmarkFleetSweep twin counters missing from %s\n", *newPath)
			failed = true
		case fl.OneWorkerNs < *fleetFactor*fl.TwoWorkerNs:
			fmt.Printf("FAIL fleet sweep drained %.2fx faster than independent shards < required %.2fx (fleet %.6g ns, independent %.6g ns)\n",
				fl.OneWorkerNs/fl.TwoWorkerNs, *fleetFactor, fl.TwoWorkerNs, fl.OneWorkerNs)
			failed = true
		case fl.SAIterations >= fl.SoloSAIterations:
			fmt.Printf("FAIL fleet sweep spent %g SA iterations vs independent shards' %g (want strictly fewer)\n",
				fl.SAIterations, fl.SoloSAIterations)
			failed = true
		default:
			fmt.Printf("ok   fleet sweep drains %.2fx faster than independent shards (>= %.2fx) at %g vs %g SA iterations\n",
				fl.OneWorkerNs/fl.TwoWorkerNs, *fleetFactor, fl.SAIterations, fl.SoloSAIterations)
		}
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("all benchmark gates passed")
}
