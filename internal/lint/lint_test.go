package lint

import (
	"encoding/json"
	"go/ast"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestDeterminismAnalyzer(t *testing.T) {
	AnalyzerTest(t, "testdata/src/determinism", DeterminismAnalyzer)
}

func TestDeterminismOutputMode(t *testing.T) {
	AnalyzerTest(t, "testdata/src/determinismoutput", DeterminismAnalyzer)
}

func TestFingerprintAnalyzer(t *testing.T) {
	AnalyzerTest(t, "testdata/src/fingerprint", FingerprintAnalyzer)
}

func TestLockHygieneAnalyzer(t *testing.T) {
	AnalyzerTest(t, "testdata/src/lockhygiene", LockHygieneAnalyzer)
}

func TestHotPathAllocAnalyzer(t *testing.T) {
	AnalyzerTest(t, "testdata/src/hotpathalloc", HotPathAllocAnalyzer)
}

func TestErrClassAnalyzer(t *testing.T) {
	AnalyzerTest(t, "testdata/src/errclass", ErrClassAnalyzer)
}

func TestExportedDocAnalyzer(t *testing.T) {
	AnalyzerTest(t, "testdata/src/exporteddoc", ExportedDocAnalyzer)
}

func TestExportedDocPackageClause(t *testing.T) {
	AnalyzerTest(t, "testdata/src/exporteddocpkg", ExportedDocAnalyzer)
}

// TestLoaderModulePatterns exercises import-path and wildcard loading
// against the real module.
func TestLoaderModulePatterns(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load("gemini/internal/lint")
	if err != nil {
		t.Fatalf("load by import path: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "gemini/internal/lint" {
		t.Fatalf("load by import path: got %d packages, want exactly gemini/internal/lint", len(pkgs))
	}
	pkgs, err = l.Load("gemini/internal/...")
	if err != nil {
		t.Fatalf("load wildcard: %v", err)
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.Path] = true
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("wildcard load matched testdata package %s", p.Path)
		}
	}
	for _, want := range []string{"gemini/internal/dse", "gemini/internal/eval", "gemini/internal/sa"} {
		if !seen[want] {
			t.Errorf("wildcard load missed %s (got %v)", want, pkgs)
		}
	}
}

// TestSuiteCleanOnRepo is the regression pin for the suite's first real run:
// every engine and command package must pass every analyzer with zero
// findings. Any new finding is either a real regression (fix it) or a
// deliberate exception (suppress it with a reasoned //gemini:*-ok comment).
func TestSuiteCleanOnRepo(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load("gemini/internal/...", "gemini/cmd/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestNoallocAnnotationsMatchBenchCoverage ties the //gemini:noalloc
// annotation set to measured zero-allocation evidence: every function
// covered by a 0 allocs/op benchmark in BENCH_1.json (per the coverage table
// below) or by a testing.AllocsPerRun pin must be annotated, and every
// annotated function in the module must appear in exactly that evidence set.
// Annotating an unmeasured function or measuring an unannotated one fails
// here, so the analyzer's reach and the benchmarks cannot drift apart.
func TestNoallocAnnotationsMatchBenchCoverage(t *testing.T) {
	// Functions whose 0 allocs/op behavior each BENCH_1 benchmark exercises
	// end to end.
	benchCover := map[string][]string{
		"BenchmarkEvaluateGroup": {
			"gemini/internal/core.AnalyzeInto",
			"gemini/internal/eval.Evaluator.EvaluateGroup",
			"gemini/internal/eval.Evaluator.computeGroup",
			"gemini/internal/eval.Evaluator.evaluateAnalysis",
		},
	}
	// Functions pinned by testing.AllocsPerRun instead of a BENCH_1 entry
	// (internal/sa/alloc_test.go, internal/noc/alloc_test.go).
	allocsPerRunPins := []string{
		"gemini/internal/sa.measure",
		"gemini/internal/sa.state.cost",
		"gemini/internal/noc.Cut.SideOf",
	}

	raw, err := os.ReadFile("../../BENCH_1.json")
	if err != nil {
		t.Fatalf("reading BENCH_1.json: %v", err)
	}
	var doc struct {
		Benchmarks map[string]struct {
			AllocsPerOp float64 `json:"allocs_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing BENCH_1.json: %v", err)
	}

	expected := map[string]bool{}
	for name, b := range doc.Benchmarks {
		if b.AllocsPerOp != 0 {
			continue
		}
		funcs, ok := benchCover[name]
		if !ok {
			t.Errorf("BENCH_1 benchmark %s is 0 allocs/op but has no entry in the coverage table", name)
			continue
		}
		for _, f := range funcs {
			expected[f] = true
		}
	}
	for _, f := range allocsPerRunPins {
		expected[f] = true
	}

	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load("gemini/internal/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	annotated := map[string]bool{}
	for _, pkg := range pkgs {
		for _, name := range NoallocFuncs(pkg) {
			annotated[pkg.Path+"."+name] = true
		}
	}

	var missing, extra []string
	for f := range expected {
		if !annotated[f] {
			missing = append(missing, f)
		}
	}
	for f := range annotated {
		if !expected[f] {
			extra = append(extra, f)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, f := range missing {
		t.Errorf("%s has measured 0 allocs/op coverage but no //gemini:noalloc annotation", f)
	}
	for _, f := range extra {
		t.Errorf("%s is annotated //gemini:noalloc but has no benchmark or AllocsPerRun evidence", f)
	}
}

// TestDirectiveParsing pins the //gemini: comment grammar.
func TestDirectiveParsing(t *testing.T) {
	cases := []struct {
		text      string
		key, val  string
		directive bool
	}{
		{"//gemini:noalloc", "noalloc", "", true},
		{"//gemini:fingerprint-of Options", "fingerprint-of", "Options", true},
		{"//gemini:lock-ok callback cannot panic", "lock-ok", "callback cannot panic", true},
		{"// gemini:noalloc", "", "", false},
		{"// ordinary comment mentioning //gemini:noalloc inline", "", "", false},
		{"//gemini:", "", "", false},
	}
	for _, c := range cases {
		d, ok := parseDirective(&ast.Comment{Text: c.text})
		if ok != c.directive || d.Key != c.key || d.Value != c.val {
			t.Errorf("parseDirective(%q) = %+v, %v; want key=%q val=%q ok=%v", c.text, d, ok, c.key, c.val, c.directive)
		}
	}
}
