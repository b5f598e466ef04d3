// Command bench-compare applies the gates a committed BENCH report declares
// to a fresh report from scripts/bench.sh, and exits non-zero when any gate
// fails. Both files share one schema:
//
//	{"id": "BENCH_3",
//	 "env": {"cpu": ..., "gomaxprocs": ..., "go": ..., "commit": ..., "benchtime": ...},
//	 "benchmarks": {"BenchmarkX": {"ns_per_op": ..., "allocs_per_op": ..., ...}},
//	 "gates": [...]}
//
// Other top-level fields (titles, notes, pre-change numbers) are narrative
// and ignored. A gate is one of two kinds:
//
//   - {"kind": "allocs", "max_pct": 10, "only": "regex"} fails when a
//     benchmark in both reports (and matching the optional only regex) grew
//     its allocs/op by more than max_pct percent. allocs/op does not depend
//     on the machine; ns/op deltas of the same benchmarks print as warnings
//     only, since the baselines come from other machines.
//   - {"kind": "twin", "a": "BenchmarkX.metric", "op": ">=", "k": 1.5,
//     "b": "BenchmarkY.metric"} fails unless a op k·b holds in the fresh
//     report, op being >=, <=, > or <. Both operands come from the same run,
//     so the check is machine-relative.
//
// Every gate carries a "why" that is printed when the gate fails.
//
// Usage:
//
//	bench-compare -old BENCH_1.json -new bench.fresh.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strings"
)

// envKeys are the environment fields every report records ("unknown" when
// a migrated baseline never recorded one).
var envKeys = []string{"cpu", "gomaxprocs", "go", "commit", "benchtime"}

// report is the one BENCH schema.
type report struct {
	ID         string                        `json:"id"`
	Env        map[string]string             `json:"env"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	Gates      []gate                        `json:"gates"`
}

// gate is one declared check; see the package comment for the two kinds.
type gate struct {
	Kind   string  `json:"kind"`
	MaxPct float64 `json:"max_pct"`
	Only   string  `json:"only"`
	A      string  `json:"a"`
	Op     string  `json:"op"`
	K      float64 `json:"k"`
	B      string  `json:"b"`
	Why    string  `json:"why"`
}

// load decodes and validates one report.
func load(path string) (report, error) {
	var r report
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.validate(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func (r report) validate() error {
	if r.ID == "" {
		return fmt.Errorf("no id")
	}
	for _, k := range envKeys {
		if r.Env[k] == "" {
			return fmt.Errorf("env.%s missing", k)
		}
	}
	if len(r.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks")
	}
	for i, g := range r.Gates {
		if err := g.validate(); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}

func (g gate) validate() error {
	switch g.Kind {
	case "allocs":
		if g.MaxPct <= 0 || g.A != "" || g.Op != "" || g.B != "" || g.K != 0 {
			return fmt.Errorf("allocs gate wants a positive max_pct and no twin fields: %#v", g)
		}
		_, err := regexp.Compile(g.Only)
		return err
	case "twin":
		if g.MaxPct != 0 || g.Only != "" || g.K <= 0 {
			return fmt.Errorf("twin gate wants a positive k and no allocs fields: %#v", g)
		}
		if _, ok := compare[g.Op]; !ok {
			return fmt.Errorf("twin gate op %q, want >=, <=, > or <", g.Op)
		}
		for _, o := range []string{g.A, g.B} {
			if bench, metric, ok := strings.Cut(o, "."); !ok || bench == "" || metric == "" {
				return fmt.Errorf("twin operand %q, want Benchmark.metric", o)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown gate kind %q (want allocs or twin)", g.Kind)
}

// String renders the gate as its claim.
func (g gate) String() string {
	if g.Kind == "allocs" {
		return fmt.Sprintf("allocs %g%% %s", g.MaxPct, g.Only)
	}
	return fmt.Sprintf("%s %s %g·%s", g.A, g.Op, g.K, g.B)
}

var compare = map[string]func(a, b float64) bool{
	">=": func(a, b float64) bool { return a >= b },
	"<=": func(a, b float64) bool { return a <= b },
	">":  func(a, b float64) bool { return a > b },
	"<":  func(a, b float64) bool { return a < b },
}

// metric reads a "Benchmark.metric" operand from r.
func (r report) metric(operand string) (float64, bool) {
	bench, metric, _ := strings.Cut(operand, ".")
	v, ok := r.Benchmarks[bench][metric]
	return v, ok
}

// apply runs every gate of old against fresh, printing one line per check,
// and reports whether all passed.
func apply(old, fresh report, w io.Writer) bool {
	pass := len(old.Gates) > 0
	if !pass {
		fmt.Fprintf(w, "FAIL %s declares no gates\n", old.ID)
	}
	for _, g := range old.Gates {
		var ok bool
		if g.Kind == "allocs" {
			ok = allocsGate(g, old, fresh, w)
		} else {
			ok = twinGate(g, fresh, w)
		}
		pass = pass && ok
	}
	return pass
}

// allocsGate compares allocs/op (gated) and ns/op (warning only) of every
// benchmark both reports share.
func allocsGate(g gate, old, fresh report, w io.Writer) bool {
	only := regexp.MustCompile(g.Only) // validated on load
	var names []string
	for name := range old.Benchmarks {
		if _, ok := fresh.Benchmarks[name]; ok && only.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(w, "FAIL allocs gate of %s: no benchmarks shared with %s (only %q)\n", old.ID, fresh.ID, g.Only)
		return false
	}
	pass := true
	for _, name := range names {
		for _, m := range []struct {
			metric, label string
			gated         bool
		}{{"ns_per_op", "ns/op", false}, {"allocs_per_op", "allocs/op", true}} {
			oldV, newV := old.Benchmarks[name][m.metric], fresh.Benchmarks[name][m.metric]
			switch {
			case oldV == 0 && newV == 0:
				continue
			case oldV == 0:
				fmt.Fprintf(w, "FAIL %s %s: %v -> %v (baseline was zero)\n", name, m.label, oldV, newV)
				pass = false
				continue
			}
			pct := 100 * (newV - oldV) / oldV
			status := "ok  "
			if pct > g.MaxPct {
				status = "warn"
				if m.gated {
					status = "FAIL"
					pass = false
				}
			}
			fmt.Fprintf(w, "%s %s %s: %.6g -> %.6g (%+.1f%%, limit +%g%%)\n",
				status, name, m.label, oldV, newV, pct, g.MaxPct)
		}
	}
	return pass
}

// twinGate checks a op k·b in the fresh report. A missing or zero operand
// means the benchmark stopped reporting the number, so it fails the gate —
// except a zero b under ">", where a > k·0 still asserts that a is
// positive (a twin may legitimately count nothing).
func twinGate(g gate, fresh report, w io.Writer) bool {
	claim := g.String()
	a, okA := fresh.metric(g.A)
	b, okB := fresh.metric(g.B)
	if !okA || !okB || a == 0 || (b == 0 && g.Op != ">") {
		fmt.Fprintf(w, "FAIL %s: operand missing or zero in %s (a=%v, b=%v) — %s\n", claim, fresh.ID, a, b, g.Why)
		return false
	}
	if !compare[g.Op](a, g.K*b) {
		fmt.Fprintf(w, "FAIL %s: %.6g vs %.6g (a/b = %.3g) — %s\n", claim, a, b, a/b, g.Why)
		return false
	}
	fmt.Fprintf(w, "ok   %s: %.6g vs %.6g (a/b = %.3g)\n", claim, a, b, a/b)
	return true
}

// envLine renders a report's environment in envKeys order.
func envLine(r report) string {
	parts := make([]string, len(envKeys))
	for i, k := range envKeys {
		parts[i] = k + " " + r.Env[k]
	}
	return strings.Join(parts, ", ")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench-compare: ")
	oldPath := flag.String("old", "", "committed BENCH report whose gates apply")
	newPath := flag.String("new", "", "fresh report (scripts/bench.sh output) to gate")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		log.Fatal("-old and -new are required")
	}
	old, err := load(*oldPath)
	if err != nil {
		log.Fatal(err)
	}
	fresh, err := load(*newPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gates of %s (%s) on %s (%s)\n", old.ID, envLine(old), fresh.ID, envLine(fresh))
	if !apply(old, fresh, os.Stdout) {
		os.Exit(1)
	}
	fmt.Printf("all %d gates of %s passed\n", len(old.Gates), old.ID)
}
