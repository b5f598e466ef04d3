// Golden tests for the NDJSON event schema, and re-attach fidelity for
// GET /sweeps/{id}/stream. The golden files under testdata/ pin the exact
// wire shape: a renamed or dropped JSON field breaks them loudly.
// Regenerate deliberately with: go test ./internal/serve -run Golden -update
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// canonicalLines renders events one JSON object per line with wall-clock
// fields scrubbed, the comparable form of an NDJSON stream.
func canonicalLines(t *testing.T, events []Event) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range events {
		ev.ElapsedMS = 0
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("stream diverges from %s (regenerate with -update if the change is intended)\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestStreamGoldenAndReattach runs a fixed-seed racing sweep single-worker
// (fully deterministic event order), pins the whole NDJSON stream against a
// golden file, and asserts GET /sweeps/{id}/stream replays it byte-for-byte.
func TestStreamGoldenAndReattach(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	spec := tinySpec("golden", 8, 32, 64)
	spec.Workers = 1
	spec.Seed = 7
	spec.Racing = true
	spec.Restarts = 4
	spec.SAIterations = 50

	events := runSweep(t, hs.URL, spec)
	live := canonicalLines(t, events)
	checkGolden(t, "stream.golden", live)

	// Re-attach: the replay endpoint must reproduce the POST stream exactly
	// — same events, same order, same encoding.
	resp, err := http.Get(hs.URL + "/sweeps/golden/stream")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("replay Content-Type = %q", ct)
	}
	replayed := readEvents(t, resp)
	if replay := canonicalLines(t, replayed); replay != live {
		t.Errorf("re-attached stream diverges from the live one:\n got:\n%s\nwant:\n%s", replay, live)
	}

	// A second re-attach mid-history must also terminate (closed log).
	resp2, err := http.Get(hs.URL + "/sweeps/golden/stream")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp2.Body)
	n := 0
	for sc.Scan() {
		n++
	}
	resp2.Body.Close()
	if n != len(events) {
		t.Errorf("second replay returned %d lines, want %d", n, len(events))
	}

	// Unknown sweeps 404 like the status endpoint.
	resp3, err := http.Get(hs.URL + "/sweeps/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep stream: %d, want 404", resp3.StatusCode)
	}
}

// TestEventSchemaGolden pins the canonical encoding of every event type —
// including the queue lifecycle events (queued, preempted, resumed) — so
// wire-schema drift is a deliberate golden-file update, never an accident.
func TestEventSchemaGolden(t *testing.T) {
	events := []Event{
		{Type: "queued", SweepID: "s1", Tenant: "acme", Priority: "batch", Position: 3},
		{Type: "start", SweepID: "s1", Candidates: 2, Cells: 2, Models: []string{"tinycnn"}, CheckpointCells: 1},
		{Type: "result", SweepID: "s1", Seq: 1, Result: &CandidateSummary{
			Arch: "x4g1024n32d0.5", Chiplets: 4, Cores: 16, Status: "ok",
			Objective: 1.25, MCUSD: 100.5, EnergyJ: 0.25, DelayS: 0.5, EDP: 0.125,
		}},
		{Type: "rung", SweepID: "s1", Rung: &RungSummary{Rung: 1, Budget: 2, Candidates: 4, Survivors: 2}},
		{Type: "preempted", SweepID: "s1", Tenant: "acme", Priority: "batch", CheckpointCells: 2},
		{Type: "resumed", SweepID: "s1", Tenant: "acme", Priority: "batch", CheckpointCells: 2},
		{Type: "done", SweepID: "s1", Best: &CandidateSummary{Arch: "x4g1024n32d0.5", Status: "ok"}, Stats: &StatsSummary{
			Candidates: 2, Cells: 2, ResumedCells: 2,
		}},
		{Type: "error", SweepID: "s1", Error: "sweep canceled: context canceled"},
	}
	var b bytes.Buffer
	for _, ev := range events {
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	checkGolden(t, "events.golden", b.String())
}
