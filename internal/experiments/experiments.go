// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. VI-VII): the Fig. 5 overall comparison, the Fig. 6
// design-space scatter, the Fig. 7 objective-optima analysis, the Fig. 8
// chiplet-reuse study, the Fig. 9 traffic heatmaps, the Sec. VI-B2
// folded-torus comparison, and the Sec. IV-B space-size table.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"

	"gemini/internal/arch"
	"gemini/internal/cost"
	"gemini/internal/dnn"
	"gemini/internal/dse"
	"gemini/internal/eval"
	"gemini/internal/space"
)

// Options sets the experiment fidelity.
type Options struct {
	// Quick substitutes the tiny test networks and small SA budgets so a
	// whole experiment finishes in seconds (benchmarks); full mode uses the
	// paper's workloads.
	Quick        bool
	SAIterations int
	Batches      []int
	Workers      int
	Seed         int64

	// Restarts widens the per-cell SA portfolio.
	Restarts int

	// Session, when set, runs every figure's sweeps and mappings through
	// one shared DSE session, so the figures reuse each other's warm
	// evaluation-cache entries (Fig. 6 and Fig. 7 sweep the same space;
	// Fig. 8's factor-1 joint candidates revisit its base sweep).
	Session *dse.Session
}

// run dispatches a candidate sweep through the shared session when one is
// configured.
func (o Options) run(cands []arch.Config, models []*dnn.Graph, d dse.Options) []dse.CandidateResult {
	if o.Session != nil {
		return o.Session.Run(cands, models, d)
	}
	return dse.Run(cands, models, d)
}

// mapModel dispatches a single mapping likewise.
func (o Options) mapModel(cfg *arch.Config, g *dnn.Graph, d dse.Options) (*dse.MapResult, error) {
	if o.Session != nil {
		return o.Session.MapModel(cfg, g, d)
	}
	return dse.MapModel(cfg, g, d)
}

// jointRun dispatches the chiplet-reuse exploration likewise.
func (o Options) jointRun(bases []arch.Config, factors []int, models []*dnn.Graph, d dse.Options) []dse.JointResult {
	if o.Session != nil {
		return o.Session.JointRun(bases, factors, models, d)
	}
	return dse.JointRun(bases, factors, models, d)
}

// Workload graphs are cached per process so every figure maps the same
// *dnn.Graph instance: the evaluators' memos and the session's shared
// cache key groups by graph identity, so stable instances are what make
// cross-figure warm hits possible. Graphs are read-only after construction.
var (
	modelMu    sync.Mutex
	modelCache = map[string]*dnn.Graph{}
)

func cachedModel(name string) *dnn.Graph {
	modelMu.Lock()
	defer modelMu.Unlock()
	if g, ok := modelCache[name]; ok {
		return g
	}
	var g *dnn.Graph
	switch name {
	case "tinycnn":
		g = dnn.TinyCNN()
	case "tinytransformer":
		g = dnn.TinyTransformer()
	default:
		var err error
		g, err = dnn.Model(name)
		if err != nil {
			panic(err)
		}
	}
	modelCache[name] = g
	return g
}

// QuickOptions returns the bench-friendly fidelity.
func QuickOptions() Options {
	return Options{Quick: true, SAIterations: 120, Batches: []int{1, 4}, Seed: 1}
}

// FullOptions returns the paper-fidelity settings (batch 1 and 64).
func FullOptions() Options {
	return Options{SAIterations: 4000, Batches: []int{1, 64}, Seed: 1}
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// models returns the Fig. 5 workload list (paper Sec. VI-A3).
func (o Options) models() []*dnn.Graph {
	if o.Quick {
		return []*dnn.Graph{cachedModel("tinycnn"), cachedModel("tinytransformer")}
	}
	out := make([]*dnn.Graph, 0, 5)
	for _, n := range []string{"resnet50", "resnext50", "inceptionresnet", "pnasnet", "transformer"} {
		out = append(out, cachedModel(n))
	}
	return out
}

// fig8Models returns the Fig. 8 workload list (RN-50, IRes, PNas, GN,
// TF-Large).
func (o Options) fig8Models() []*dnn.Graph {
	if o.Quick {
		return []*dnn.Graph{cachedModel("tinycnn")}
	}
	out := make([]*dnn.Graph, 0, 5)
	for _, n := range []string{"resnet50", "inceptionresnet", "pnasnet", "googlenet", "transformerlarge"} {
		out = append(out, cachedModel(n))
	}
	return out
}

// tinySpace shrinks a Table I space to a handful of candidates so quick
// experiments finish in seconds while preserving the chiplet-granularity
// axis the figures sweep.
func tinySpace(sp dse.Space) dse.Space {
	r := sp
	r.Name = sp.Name + "-tiny"
	r.DRAMPerTOPS = []float64{2}
	r.NoCBWs = []float64{32}
	r.D2DRatios = []float64{0.5}
	r.GLBs = []int{2048 * arch.KB}
	r.MACs = []int{2048, 8192}
	return r
}

func (o Options) dseOptions(batch int) dse.Options {
	d := dse.DefaultOptions()
	d.Batch = batch
	d.SAIterations = o.SAIterations
	d.Workers = o.workers()
	d.Seed = o.Seed
	if o.Restarts > 0 {
		d.Restarts = o.Restarts
	}
	if o.Quick {
		d.MaxGroupLayers = 7
		d.BatchUnits = []int{1, 2}
	}
	return d
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	p := 1.0
	for _, v := range vals {
		p *= v
	}
	return math.Pow(p, 1/float64(len(vals)))
}

// table writes an aligned text table.
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
}

// archMC is shared sugar.
func archMC(cfg *arch.Config) cost.Breakdown { return cost.New().Evaluate(cfg) }

func fmtE(v float64) string { return fmt.Sprintf("%.4g", v) }

// breakdownCells renders an energy breakdown normalized by a base total.
func breakdownCells(b eval.EnergyBreakdown, base float64) []string {
	n := func(v float64) string { return fmt.Sprintf("%.3f", v/base) }
	return []string{n(b.DRAM), n(b.NoC), n(b.D2D), n(b.IntraCore())}
}

// SpaceSizeRow is one line of the Sec. IV-B table.
type SpaceSizeRow struct {
	M, N           int
	GeminiLog10    float64
	TangramLog10   float64
	AdvantageLog10 float64
}

// SpaceSizes reproduces the Sec. IV-B optimization-space comparison.
func SpaceSizes() []SpaceSizeRow {
	var rows []SpaceSizeRow
	for _, m := range []int{16, 36, 64, 128} {
		for _, n := range []int{2, 4, 8, 16} {
			// The lower-bound formula needs M > 2(N-1); smaller groups have
			// zero conservative bound.
			if m-n-1 < n-1 {
				continue
			}
			g := space.Log10(space.GeminiLowerBound(m, n))
			t := space.Log10(space.TangramUpperBound(m, n))
			rows = append(rows, SpaceSizeRow{M: m, N: n, GeminiLog10: g, TangramLog10: t, AdvantageLog10: g - t})
		}
	}
	return rows
}

// PrintSpaceSizes writes the Sec. IV-B table.
func PrintSpaceSizes(w io.Writer) {
	rows := SpaceSizes()
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{
			fmt.Sprint(r.M), fmt.Sprint(r.N),
			fmt.Sprintf("10^%.1f", r.GeminiLog10),
			fmt.Sprintf("10^%.1f", r.TangramLog10),
			fmt.Sprintf("10^%.1f", r.AdvantageLog10),
		}
	}
	fmt.Fprintln(w, "Sec. IV-B: LP SPM optimization-space sizes (Gemini lower bound vs Tangram upper bound)")
	table(w, []string{"M(cores)", "N(layers)", "gemini", "tangram", "advantage"}, cells)
}
