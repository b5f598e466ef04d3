package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// bench builds a report from "Benchmark.metric" -> value pairs.
func bench(id string, kv map[string]float64) report {
	r := report{ID: id, Benchmarks: map[string]map[string]float64{}}
	for k, v := range kv {
		b, m, _ := strings.Cut(k, ".")
		if r.Benchmarks[b] == nil {
			r.Benchmarks[b] = map[string]float64{}
		}
		r.Benchmarks[b][m] = v
	}
	return r
}

func TestGateKinds(t *testing.T) {
	allocs := gate{Kind: "allocs", MaxPct: 10}
	onlyX := gate{Kind: "allocs", MaxPct: 2, Only: "^BenchmarkX$"}
	twin := func(op string, k float64) gate {
		return gate{Kind: "twin", A: "BenchmarkA.n", Op: op, K: k, B: "BenchmarkB.n", Why: "because"}
	}
	old := bench("old", map[string]float64{
		"BenchmarkX.ns_per_op": 100, "BenchmarkX.allocs_per_op": 100,
		"BenchmarkY.ns_per_op": 100, "BenchmarkY.allocs_per_op": 100,
		"BenchmarkZ.ns_per_op": 100, "BenchmarkZ.allocs_per_op": 0,
	})
	for _, c := range []struct {
		name  string
		g     gate
		fresh map[string]float64
		pass  bool
		line  string // a line the output must contain
	}{
		{"allocs within limit", allocs, map[string]float64{"BenchmarkX.allocs_per_op": 110, "BenchmarkX.ns_per_op": 500}, true, "warn BenchmarkX ns/op"},
		{"allocs over limit", allocs, map[string]float64{"BenchmarkX.allocs_per_op": 111}, false, "FAIL BenchmarkX allocs/op"},
		{"allocs zero baseline stays zero", allocs, map[string]float64{"BenchmarkZ.allocs_per_op": 0, "BenchmarkZ.ns_per_op": 90}, true, "ok   BenchmarkZ ns/op"},
		{"allocs zero baseline grows", allocs, map[string]float64{"BenchmarkZ.allocs_per_op": 1}, false, "FAIL BenchmarkZ allocs/op: 0 -> 1 (baseline was zero)"},
		{"allocs no shared benchmark", allocs, map[string]float64{"BenchmarkW.allocs_per_op": 1}, false, "no benchmarks shared"},
		{"only filter skips a regression", onlyX, map[string]float64{"BenchmarkX.allocs_per_op": 102, "BenchmarkY.allocs_per_op": 500}, true, "ok   BenchmarkX allocs/op"},
		{"only filter keeps its match", onlyX, map[string]float64{"BenchmarkX.allocs_per_op": 103, "BenchmarkY.allocs_per_op": 100}, false, "FAIL BenchmarkX allocs/op"},
		{">= holds", twin(">=", 1.5), map[string]float64{"BenchmarkA.n": 15, "BenchmarkB.n": 10}, true, "ok   BenchmarkA.n >= 1.5·BenchmarkB.n"},
		{">= fails", twin(">=", 1.5), map[string]float64{"BenchmarkA.n": 14.9, "BenchmarkB.n": 10}, false, "FAIL BenchmarkA.n >= 1.5·BenchmarkB.n: 14.9 vs 10"},
		{"<= holds", twin("<=", 1.1), map[string]float64{"BenchmarkA.n": 11, "BenchmarkB.n": 10}, true, "ok   "},
		{"<= fails", twin("<=", 1.1), map[string]float64{"BenchmarkA.n": 11.1, "BenchmarkB.n": 10}, false, "— because"},
		{"> holds", twin(">", 1), map[string]float64{"BenchmarkA.n": 2, "BenchmarkB.n": 1}, true, "ok   "},
		{"> fails on equal", twin(">", 1), map[string]float64{"BenchmarkA.n": 1, "BenchmarkB.n": 1}, false, "FAIL BenchmarkA.n > 1·BenchmarkB.n"},
		{"> holds against a zero twin", twin(">", 1), map[string]float64{"BenchmarkA.n": 5, "BenchmarkB.n": 0}, true, "ok   "},
		{"< holds", twin("<", 1), map[string]float64{"BenchmarkA.n": 1, "BenchmarkB.n": 2}, true, "ok   "},
		{"< fails on equal", twin("<", 1), map[string]float64{"BenchmarkA.n": 2, "BenchmarkB.n": 2}, false, "FAIL BenchmarkA.n < 1·BenchmarkB.n"},
		{"missing benchmark", twin(">=", 1.5), map[string]float64{"BenchmarkA.n": 15}, false, "operand missing or zero"},
		{"missing metric", twin(">=", 1.5), map[string]float64{"BenchmarkA.n": 15, "BenchmarkB.other": 1}, false, "operand missing or zero"},
		{"zero a", twin("<=", 1.1), map[string]float64{"BenchmarkA.n": 0, "BenchmarkB.n": 10}, false, "operand missing or zero"},
		{"zero b under >=", twin(">=", 1.5), map[string]float64{"BenchmarkA.n": 15, "BenchmarkB.n": 0}, false, "operand missing or zero"},
		{"zero b under <", twin("<", 1), map[string]float64{"BenchmarkA.n": 1, "BenchmarkB.n": 0}, false, "operand missing or zero"},
		{"zero a under >", twin(">", 1), map[string]float64{"BenchmarkA.n": 0, "BenchmarkB.n": 0}, false, "operand missing or zero"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.g.validate(); err != nil {
				t.Fatal(err)
			}
			o := old
			o.Gates = []gate{c.g}
			var out bytes.Buffer
			if got := apply(o, bench("fresh", c.fresh), &out); got != c.pass {
				t.Errorf("pass = %v, want %v\n%s", got, c.pass, out.String())
			}
			if !strings.Contains(out.String(), c.line) {
				t.Errorf("output lacks %q:\n%s", c.line, out.String())
			}
		})
	}
}

func TestGateValidation(t *testing.T) {
	for _, g := range []gate{
		{Kind: "ratio"},
		{Kind: "allocs"},
		{Kind: "allocs", MaxPct: 10, Only: "("},
		{Kind: "allocs", MaxPct: 10, A: "BenchmarkA.n"},
		{Kind: "twin", A: "BenchmarkA.n", Op: "==", K: 1, B: "BenchmarkB.n"},
		{Kind: "twin", A: "BenchmarkA", Op: ">=", K: 1, B: "BenchmarkB.n"},
		{Kind: "twin", A: "BenchmarkA.n", Op: ">=", B: "BenchmarkB.n"},
		{Kind: "twin", A: "BenchmarkA.n", Op: ">=", K: 1, B: "BenchmarkB.n", MaxPct: 5},
	} {
		if g.validate() == nil {
			t.Errorf("gate %+v validated", g)
		}
	}
	if apply(report{ID: "empty"}, report{}, &bytes.Buffer{}) {
		t.Error("a report without gates passed")
	}
}

// committed loads every BENCH_*.json at the repository root.
func committed(t *testing.T) map[string]report {
	t.Helper()
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH files: %v", err)
	}
	out := map[string]report{}
	for _, p := range paths {
		r, err := load(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.TrimSuffix(filepath.Base(p), ".json"); r.ID != want {
			t.Errorf("%s: id %q, want %q", p, r.ID, want)
		}
		out[r.ID] = r
	}
	return out
}

// wantGates is what CI enforces. Changing a threshold means changing it
// here too, on purpose.
var wantGates = map[string][]string{
	"BENCH_1": {"allocs 10% ", "BenchmarkDSESessionSweepCold.ns_per_op >= 1.5·BenchmarkDSESessionSweepWarm.ns_per_op"},
	"BENCH_2": {"allocs 10% ", "BenchmarkDSESweepGridFixed.ns_per_op >= 1.2·BenchmarkDSESweepOrdered.ns_per_op"},
	"BENCH_3": {"allocs 10% ",
		"BenchmarkDSESweepPR3Bound.ns_per_op >= 1.3·BenchmarkDSESweepTightBound.ns_per_op",
		"BenchmarkDSESweepDiskWarm.ns_per_op <= 1.5·BenchmarkDSESessionSweepWarm.ns_per_op"},
	"BENCH_5": {"allocs 2% ^Benchmark(SAOptimize|EvaluateGroup|DSESessionSweep(Cold|Warm)|DSESweepRestarts[14])$",
		"BenchmarkDSESweepHardened.ns_per_op <= 1.1·BenchmarkDSESweepTightBound.ns_per_op"},
	"BENCH_8": {"allocs 10% ",
		"BenchmarkDSESweepRacing.uniform_sa_iterations >= 1.5·BenchmarkDSESweepRacing.sa_iterations",
		"BenchmarkDSESweepCutBound.pruned_candidates > 1·BenchmarkDSESweepCutBound.compulsory_pruned_candidates"},
	"BENCH_10": {"allocs 10% ",
		"BenchmarkFleetSweep.one_worker_ns >= 1.6·BenchmarkFleetSweep.two_worker_ns",
		"BenchmarkFleetSweep.sa_iterations < 1·BenchmarkFleetSweep.solo_sa_iterations"},
}

// TestCommittedReports pins the one schema: every committed file decodes,
// records every env key, declares exactly the gates CI enforces, and names
// only benchmarks that scripts/bench.sh runs and the tree defines.
func TestCommittedReports(t *testing.T) {
	reports := committed(t)
	if len(reports) != len(wantGates) {
		t.Errorf("%d BENCH files, want %d", len(reports), len(wantGates))
	}
	script, err := os.ReadFile("../../scripts/bench.sh")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^PATTERN='([^']+)'$`).FindSubmatch(script)
	if m == nil {
		t.Fatal("scripts/bench.sh has no PATTERN line")
	}
	runs := regexp.MustCompile(string(m[1]))
	var defs []byte
	for _, glob := range []string{"../../*_test.go", "../../internal/dse/*_test.go"} {
		files, _ := filepath.Glob(glob)
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			defs = append(defs, src...)
		}
	}
	for id, r := range reports {
		var got []string
		for _, g := range r.Gates {
			got = append(got, g.String())
			if g.Why == "" {
				t.Errorf("%s: gate %s has no why", id, g)
			}
			for _, o := range []string{g.A, g.B} {
				if o == "" {
					continue
				}
				name, _, _ := strings.Cut(o, ".")
				if !runs.MatchString(name) {
					t.Errorf("%s: gate operand %s is not run by scripts/bench.sh", id, o)
				}
				if !bytes.Contains(defs, []byte("func "+name+"(b *testing.B)")) {
					t.Errorf("%s: gate operand %s names no benchmark in the tree", id, o)
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(wantGates[id]) {
			t.Errorf("%s gates:\n got %q\nwant %q", id, got, wantGates[id])
		}
	}
}

// passing builds a fresh report every committed file's gates accept:
// BENCH_10's numbers (which hold every twin gate) with each benchmark's
// allocs/op lowered to its minimum across the committed files.
func passing(reports map[string]report) report {
	fresh := report{ID: "fresh", Benchmarks: map[string]map[string]float64{}}
	for name, ms := range reports["BENCH_10"].Benchmarks {
		fresh.Benchmarks[name] = map[string]float64{}
		for k, v := range ms {
			fresh.Benchmarks[name][k] = v
		}
		for _, r := range reports {
			if a, ok := r.Benchmarks[name]["allocs_per_op"]; ok && a < fresh.Benchmarks[name]["allocs_per_op"] {
				fresh.Benchmarks[name]["allocs_per_op"] = a
			}
		}
	}
	return fresh
}

// TestCommittedGatesBreakOneAtATime breaks each committed gate alone and
// checks that exactly that gate's file fails, with a FAIL line naming it,
// while every other gate of the file still passes.
func TestCommittedGatesBreakOneAtATime(t *testing.T) {
	reports := committed(t)
	for id, r := range reports {
		var out bytes.Buffer
		if !apply(r, passing(reports), &out) {
			t.Fatalf("%s rejects the passing report:\n%s", id, out.String())
		}
	}
	for id, r := range reports {
		for gi, g := range r.Gates {
			fresh := passing(reports)
			var names string
			if g.Kind == "allocs" {
				// Regress one benchmark the gate covers by 1.5x its limit.
				only := regexp.MustCompile(g.Only)
				var covered []string
				for name := range r.Benchmarks {
					covered = append(covered, name)
				}
				sort.Strings(covered)
				for _, name := range covered {
					if _, ok := fresh.Benchmarks[name]; ok && only.MatchString(name) && r.Benchmarks[name]["allocs_per_op"] > 0 {
						names = name + " allocs/op"
						fresh.Benchmarks[name]["allocs_per_op"] = r.Benchmarks[name]["allocs_per_op"] * (1 + 1.5*g.MaxPct/100)
						break
					}
				}
			} else {
				// Move a just past the threshold.
				names = g.String()
				b, _ := fresh.metric(g.B)
				bench, metric, _ := strings.Cut(g.A, ".")
				a := g.K * b
				switch g.Op {
				case ">=":
					a *= 0.99
				case "<=":
					a *= 1.01
				}
				fresh.Benchmarks[bench][metric] = a
			}
			var out bytes.Buffer
			if apply(r, fresh, &out) {
				t.Errorf("%s: breaking %s still passes:\n%s", id, g, out.String())
				continue
			}
			var fails []string
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "FAIL") {
					fails = append(fails, line)
				}
			}
			if len(fails) != 1 || !strings.Contains(fails[0], names) {
				t.Errorf("%s gate %d (%s): want one FAIL line naming %q, got %q", id, gi, g, names, fails)
			}
		}
	}
}

// TestTightAllocsGateIgnoresRacingSweeps: BENCH_5's 2% gate skips the
// pruning sweeps, whose allocs depend on scheduling, while the 10% gates
// still cover them.
func TestTightAllocsGateIgnoresRacingSweeps(t *testing.T) {
	reports := committed(t)
	fresh := passing(reports)
	fresh.Benchmarks["BenchmarkDSESweepTightBound"]["allocs_per_op"] = reports["BENCH_8"].Benchmarks["BenchmarkDSESweepTightBound"]["allocs_per_op"] * 1.2
	if !apply(reports["BENCH_5"], fresh, &bytes.Buffer{}) {
		t.Error("BENCH_5 gates a benchmark outside its only filter")
	}
	if apply(reports["BENCH_8"], fresh, &bytes.Buffer{}) {
		t.Error("BENCH_8's 10% allocs gate missed a 20% TightBound regression")
	}
}
