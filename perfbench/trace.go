package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call into a layer made by the benchmark's
// own code, a hook callback, or an HTTP request seen by the timing
// middleware. Spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for an operation root
	Op     int    `json:"op"`
	N      int    `json:"n,omitempty"` // calls folded into the span (micro-measurement loops)
}

// tracer keeps spans in memory; they are written once when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// span site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a finished span from explicit timestamps.
func (t *tracer) add(name string, start, end time.Time, parent, op, n int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Parent: parent, Op: op, N: n,
	})
	return len(t.spans) - 1
}

// interval is a half-open [lo, hi) stretch of the tracer's clock.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs, clipped to [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := interval{lo: -1, hi: -1}
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
		if iv.hi <= iv.lo {
			continue
		}
		if iv.lo > cur.hi {
			if cur.hi > cur.lo {
				total += cur.hi - cur.lo
			}
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	if cur.hi > cur.lo {
		total += cur.hi - cur.lo
	}
	return total
}

// layerTime is the aggregate of every span sharing one name.
type layerTime struct {
	name        string
	calls       int
	total, self int64
}

// minCoverage is the share of the traced wall time the operations' child
// spans must account for; below it the trace does not explain the run.
const minCoverage = 0.90

// finishTrace writes the spans, prints per-layer self time and fails the
// run when the child spans cover less than minCoverage of the traced wall
// time (from the first operation's start to the last one's end).
func (r *run) finishTrace() error {
	t := r.trace
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := make([][]interval, len(spans))
	wallLo, wallHi := int64(-1), int64(-1)
	var covered []interval
	for _, s := range spans {
		if s.End < 0 {
			return fmt.Errorf("span %q (op %d) was never closed", s.Name, s.Op)
		}
		if s.Parent < 0 {
			if wallLo < 0 || s.Start < wallLo {
				wallLo = s.Start
			}
			wallHi = max(wallHi, s.End)
			continue
		}
		covered = append(covered, interval{s.Start, s.End})
		children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
	}
	byName := map[string]*layerTime{}
	for i, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
		}
		n := s.N
		if n == 0 {
			n = 1
		}
		lt.calls += n
		lt.total += s.End - s.Start
		lt.self += s.End - s.Start - unionLen(children[i], s.Start, s.End)
	}
	layers := make([]*layerTime, 0, len(byName))
	for _, lt := range byName {
		layers = append(layers, lt)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].self > layers[j].self })

	wall := wallHi - wallLo
	coverage := 0.0
	if wall > 0 {
		coverage = float64(unionLen(covered, wallLo, wallHi)) / float64(wall)
	}
	r.put("trace.coverage", coverage, "frac")

	fmt.Fprintf(os.Stderr, "perfbench: %s traced wall %.3fs, %d spans, coverage %.1f%%\n",
		r.workload, float64(wall)/1e9, len(spans), 100*coverage)
	fmt.Fprintf(os.Stderr, "  %-34s %10s %12s %12s %7s\n", "layer", "calls", "total_s", "self_s", "self%")
	for _, lt := range layers {
		fmt.Fprintf(os.Stderr, "  %-34s %10d %12.4f %12.4f %6.1f%%\n", lt.name, lt.calls,
			float64(lt.total)/1e9, float64(lt.self)/1e9, 100*float64(lt.self)/float64(max(wall, 1)))
	}

	path := filepath.Join(r.out, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{r.workload, r.seed, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	if coverage < minCoverage {
		return fmt.Errorf("spans cover %.1f%% of the traced wall time, want >= %.0f%%", 100*coverage, 100*minCoverage)
	}
	return nil
}
