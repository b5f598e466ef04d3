package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestRacingSweepStream pins the racing sweep's wire contract: the NDJSON
// stream carries one "rung" event per completed rung, the done event's stats
// mark the sweep as racing with the full rung schedule, and the finished
// status keeps the incumbent trajectory and rung history queryable.
func TestRacingSweepStream(t *testing.T) {
	_, hs := newTestServer(t, Config{DataDir: t.TempDir()})
	spec := tinySpec("raced", 8, 16, 32, 64)
	spec.Racing = true
	spec.Restarts = 4

	events := runSweep(t, hs.URL, spec)
	done := events[len(events)-1]
	if done.Type != "done" || done.Stats == nil {
		t.Fatalf("sweep ended with %+v", done)
	}
	if !done.Stats.Racing {
		t.Error("done stats did not mark the sweep as racing")
	}
	var rungs []RungSummary
	results := 0
	for _, ev := range events {
		switch ev.Type {
		case "rung":
			if ev.Rung == nil {
				t.Fatalf("rung event without a rung record: %+v", ev)
			}
			rungs = append(rungs, *ev.Rung)
		case "result":
			results++
		}
	}
	if results != 4 {
		t.Errorf("streamed %d results, want one per candidate (4)", results)
	}
	// Restarts=4 races through cumulative budgets 1, 2, 4.
	if len(rungs) != 3 || len(done.Stats.Rungs) != len(rungs) {
		t.Fatalf("streamed %d rung events, done stats carry %d; want 3 each: %+v",
			len(rungs), len(done.Stats.Rungs), rungs)
	}
	for i, r := range rungs {
		if r != done.Stats.Rungs[i] {
			t.Errorf("rung %d: streamed %+v != stats %+v", i, r, done.Stats.Rungs[i])
		}
	}
	if rungs[0].Budget != 1 || rungs[0].Candidates != 4 || rungs[len(rungs)-1].Budget != 4 {
		t.Errorf("rung schedule %+v does not span budgets 1..4 over 4 candidates", rungs)
	}

	st, code := getStatus(t, hs.URL, "raced")
	if code != http.StatusOK {
		t.Fatalf("GET /sweeps/raced: %d", code)
	}
	if len(st.Rungs) != len(rungs) {
		t.Errorf("status exposes %d rungs, want %d", len(st.Rungs), len(rungs))
	}
	if len(st.Trajectory) == 0 {
		t.Error("status exposes no incumbent trajectory")
	}
	last := st.Trajectory[len(st.Trajectory)-1]
	if st.Best == nil || last.Candidate != st.Best.Arch || last.Objective != st.Best.Objective {
		t.Errorf("trajectory tail %+v does not land on best %+v", last, st.Best)
	}
	for i := 1; i < len(st.Trajectory); i++ {
		if st.Trajectory[i].Objective >= st.Trajectory[i-1].Objective {
			t.Errorf("trajectory not strictly improving: %+v", st.Trajectory)
		}
	}
}

// TestRacingLiveProgress pins the mid-flight view: while a racing sweep is
// still running, GET /sweeps/{id} and /healthz expose the rungs completed so
// far and the live incumbent trajectory.
func TestRacingLiveProgress(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	spec := tinySpec("live-race", 8, 16, 32, 64)
	spec.Racing = true
	spec.Restarts = 6
	spec.SAIterations = 3000
	spec.Workers = 1

	resp := postSpec(t, hs.URL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	defer resp.Body.Close()
	// Read the stream until the first rung event: noteRung runs before the
	// event is written, so the server-side view is guaranteed to carry the
	// rung by the time the client sees it.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawRung := false
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Type == "rung" {
			sawRung = true
			break
		}
	}
	if !sawRung {
		t.Fatal("stream ended without a rung event")
	}

	st, code := getStatus(t, hs.URL, "live-race")
	if code != http.StatusOK {
		t.Fatalf("GET /sweeps/live-race: %d", code)
	}
	if len(st.Rungs) == 0 {
		t.Error("running status exposes no rungs after a streamed rung event")
	}

	// The sweep still has at least three rungs of annealing ahead; check the
	// health endpoint's live view while it runs (skip without failing if the
	// machine outran the sweep).
	if st.State == StateRunning {
		hr, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		derr := json.NewDecoder(hr.Body).Decode(&h)
		hr.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		for _, run := range h.Running {
			if run.ID != "live-race" {
				continue
			}
			if len(run.Rungs) == 0 {
				t.Error("healthz running view exposes no rungs")
			}
			if run.Incumbent != nil && len(run.Trajectory) == 0 {
				t.Error("healthz running view has an incumbent but no trajectory")
			}
		}
	}
	for sc.Scan() { // drain to completion
	}
}

// TestRemovedKnobsRejected pins the 400 envelope for the removed restart
// budget options: patience, racing_keep and abandon_every are unknown
// fields now, rejected by name on both POST /sweep and the fleet submit
// endpoint before any sweep registers.
func TestRemovedKnobsRejected(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	for _, field := range []string{"patience", "racing_keep", "abandon_every"} {
		spec := `{"space":{"tops":72},"models":["tinycnn"],"racing":true,"` + field + `":1}`
		for _, ep := range []struct{ path, body string }{
			{"/sweep", spec},
			{"/fleet/sweeps", `{"spec":` + spec + `,"shards":1}`},
		} {
			resp, err := http.Post(hs.URL+ep.path, "application/json", strings.NewReader(ep.body))
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			derr := json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if derr != nil {
				t.Fatal(derr)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, field) {
				t.Errorf("%s with %s: code=%d msg=%q, want 400 naming %s", ep.path, field, resp.StatusCode, eb.Error, field)
			}
		}
	}
	if h := s.fleet.Health(); h.Sweeps != 0 {
		t.Errorf("rejected fleet submits registered %d sweeps", h.Sweeps)
	}
}
