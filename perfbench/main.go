// Command perfbench is the repository's end-to-end benchmark. It drives the
// sweep pipeline only from the outside — through the public functions and
// hooks of dse, graphpart, sa, eval, core, noc, intracore, serve and fleet —
// and never edits the program under test.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload cold_sweep|warm_resweep|fleet_drain|all
//	          --seed N --seconds S --trace 0|1 [--out DIR]
//
// Every run sets up its workload several times (setup_s is the median), runs
// whole operations until --seconds have elapsed, checks every operation's
// output against a reference and prints one JSON line last on stdout:
//
//	{"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run at
// one sweep worker that records spans around the benchmark's own calls into
// each layer and reports the per-layer metrics instead. Any failed output
// check makes the exit status non-zero.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it, in the
// order the "all" mode runs them.
var workloads = []struct {
	name string
	run  func(r *run) error
}{
	{"cold_sweep", runColdSweep},
	{"warm_resweep", runWarmResweep},
	{"fleet_drain", runFleetDrain},
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one benchmark run threads through its workload function.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	workers  int     // sweep parallelism: nproc, or 1 in a traced run
	trace    *tracer // nil unless --trace 1
	out      string  // directory for spans and scratch data

	attempted, failed int
	invalid           []string // reasons the run cannot be trusted
	metrics           map[string]metric
	peakRSS           float64 // MiB, read after the first minOps operations
}

// put records a metric.
func (r *run) put(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one attempted operation and, when err is non-nil, one failed
// operation (reported on stderr).
func (r *run) check(op int, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", r.workload, op, err)
	}
}

// failOp marks an already attempted operation failed by a check made after
// the measured window.
func (r *run) failOp(op int, err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", r.workload, op, err)
}

// setup runs f setupReps times and records the median as setup_s. The state
// of the last repetition is what the run measures; f may keep earlier ones.
func (r *run) setup(f func(rep int) error) error {
	times := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		if err := f(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	if r.trace == nil {
		r.put("setup_s", quantile(times, 0.5), "s")
	}
	return nil
}

// loop runs op(i) for i = 0, 1, ... until the run length has elapsed and at
// least minOps operations completed, and returns how many ran. Each
// operation runs under a root span whose id op receives. Peak memory is
// read after operation minOps, so it covers a fixed amount of work however
// many operations fit in the run.
func (r *run) loop(minOps int, op func(i, root int) error) int {
	start := time.Now()
	i := 0
	for ; i < minOps || time.Since(start) < r.seconds; i++ {
		root := r.trace.begin("op", -1, i)
		err := op(i, root)
		r.trace.end(root)
		r.check(i, err)
		if i+1 == minOps {
			r.peakRSS = peakRSSMB()
		}
	}
	return i
}

// opTimes collects the end-to-end timings every workload reports.
type opTimes struct {
	cells         int
	busy          time.Duration // sum of op durations
	rates         []float64     // cells per second of each op
	firstResultMS []float64
	doneMS        []float64
	bests         []float64 // best objective per op, in op order
}

// add records one finished operation.
func (t *opTimes) add(cells int, firstResult, done time.Duration, best float64) {
	t.cells += cells
	t.busy += done
	t.rates = append(t.rates, float64(cells)/done.Seconds())
	t.firstResultMS = append(t.firstResultMS, ms(firstResult))
	t.doneMS = append(t.doneMS, ms(done))
	t.bests = append(t.bests, best)
}

// bestObjOps is how many leading operations best_obj folds: a fixed prefix,
// so the value does not depend on how many operations fit in the run.
const bestObjOps = 3

// report publishes the end-to-end metrics of a run.
func (r *run) report(t *opTimes) {
	if r.trace != nil {
		return
	}
	r.put("cells_per_s", quantile(t.rates, 0.5), "1/s")
	n := len(t.bests)
	if n > bestObjOps {
		n = bestObjOps
	}
	r.put("best_obj", geomean(t.bests[:n]), "USD.J.s")
	r.put("first_result_ms_p50", quantile(t.firstResultMS, 0.5), "ms")
	r.put("first_result_ms_p90", quantile(t.firstResultMS, 0.9), "ms")
	r.put("done_ms_p50", quantile(t.doneMS, 0.5), "ms")
	r.put("done_ms_p90", quantile(t.doneMS, 0.9), "ms")
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops, %d cells settled in %.2fs of op time\n",
		r.workload, len(t.rates), t.cells, t.busy.Seconds())
}

func main() {
	workload := flag.String("workload", "", "workload to run: cold_sweep, warm_resweep, fleet_drain or all")
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer variant at one sweep worker")
	out := flag.String("out", ".bench_build", "directory for span files and scratch data")
	flag.Parse()
	if *seconds < 1 || *seed < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1, --seed >= 0 and --trace 0|1")
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *traceFlag, *out))
	}
	var runWorkload func(*run) error
	for _, w := range workloads {
		if w.name == *workload {
			runWorkload = w.run
		}
	}
	if runWorkload == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		workers:  nproc,
		out:      *out,
		metrics:  make(map[string]metric),
	}
	if *traceFlag == 1 {
		r.workers = 1
		r.trace = newTracer()
	}
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printStamp(r, *seconds)
	if err := runWorkload(r); err != nil {
		// A workload that cannot run prints no result line.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if r.trace == nil {
		r.put("peak_rss_mb", r.peakRSS, "MB")
	} else if err := r.finishTrace(); err != nil {
		r.invalid = append(r.invalid, err.Error())
	}
	for _, why := range r.invalid {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run invalid: %s\n", r.workload, why)
	}
	res := result{
		Correct:   r.failed == 0 && len(r.invalid) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: failed_frac %.4f (%d of %d ops)\n",
		r.workload, float64(r.failed)/math.Max(1, float64(r.attempted)), r.failed, r.attempted)
	printMetrics(os.Stderr, r.workload, r.metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process (so peak RSS and
// set-up are per workload), prints each one's metrics and a combined result
// line whose metric names are prefixed with the workload name.
func runAll(seed int64, seconds, trace int, out string) int {
	all := result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range workloads {
		cmd := exec.Command(os.Args[0], "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", out)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l) // the child's environment stamp
		}
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s printed no result: %v\n", w.name, errors.Join(err, jerr))
			all.Correct = false
			continue
		}
		if err != nil {
			all.Correct = false
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[w.name+"."+name] = m
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// printMetrics writes a human-readable metric table.
func printMetrics(w *os.File, workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-14s %-28s %14.6g %s\n", workload, n, m[n].Value, m[n].Unit)
	}
}

// printStamp prints the environment the numbers were measured in as a JSON
// line on stdout (before the result line) and on stderr.
func printStamp(r *run, seconds int) {
	stamp := map[string]any{
		"env":         true,
		"workload":    r.workload,
		"seed":        r.seed,
		"seconds":     seconds,
		"trace":       r.trace != nil,
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"commit":      commit(),
		"source_hash": sourceHash(),
	}
	line, _ := json.Marshal(stamp)
	fmt.Println(string(line))
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit returns the git commit of the working directory, or "unknown" in
// an exported source tree.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceHash digests the module's Go sources and go.mod (the benchmark's
// own directory and build outputs excluded), identifying the program under
// test where no commit is available.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
