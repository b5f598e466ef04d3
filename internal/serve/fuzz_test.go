package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStatusRecord drives arbitrary bytes through the startup restore path
// of a persisted status record: readStatusFile, then restoredSweep. A record
// it accepts must restore to an inactive sweep with exactly one terminal
// event, and restoring the restored status again must re-encode to the
// same bytes, so a server restarted twice keeps its history unchanged. The
// seeded corpus under testdata/fuzz/FuzzStatusRecord pins the interesting
// shapes, including records written while stats still carried
// skipped_restarts or the dispatch order.
func FuzzStatusRecord(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`null`,
		`{"id":"x"}`,
		`{"id":"x","state":"running","started_at":"2026-01-02T03:04:05Z"}`,
		`{"id":"x","started_at":"not a time"}`,
		`{"id":"x","stats":{"trajectory":[{"candidate":"a","objective":1e308}]}}`,
	} {
		f.Add([]byte(s))
	}
	path := filepath.Join(f.TempDir(), "record.status.json")
	srv := &Server{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := readStatusFile(path)
		if err != nil {
			return
		}
		if st.ID == "" {
			t.Fatal("accepted a status record without a sweep id")
		}
		sw := restoredSweep(srv, st)
		if sw.active() {
			t.Fatalf("restored sweep %q is %s; a restored record never owns a running sweep", st.ID, sw.stateNow())
		}
		evs, _, drained := sw.log.next(0, func() bool { return true })
		if !drained || len(evs) != 1 {
			t.Fatalf("restored log holds %d events (drained %v), want one terminal event", len(evs), drained)
		}
		want := "error"
		if sw.stateNow() == StateDone {
			want = "done"
		}
		if evs[0].Type != want {
			t.Fatalf("restored %s sweep ends with a %q event, want %q", sw.stateNow(), evs[0].Type, want)
		}

		first, err := json.Marshal(sw.status())
		if err != nil {
			t.Fatalf("restored status does not encode: %v", err)
		}
		var again SweepStatus
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("restored status does not decode: %v", err)
		}
		second, err := json.Marshal(restoredSweep(srv, again).status())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("second restore changed the record:\n%s\n%s", first, second)
		}
	})
}

// TestLegacyOrderStatusRestores: a record written while stats still carried
// the dispatch order (the legacy-order-grid corpus seed) still restores as
// a done sweep, and the dropped field does not survive the restore.
func TestLegacyOrderStatusRestores(t *testing.T) {
	const rec = `{"id":"legacy-grid","state":"done","candidates":2,"cells":2,"done_candidates":2,` +
		`"best":{"arch":"garch72","chiplets":4,"cores":72,"status":"ok","objective":6.7e-7},` +
		`"stats":{"order":"grid","candidates":2,"cells":2,"resumed_cells":0,"pruned_candidates":0,"abandoned_restarts":0},` +
		`"checkpoint":true,"started_at":"2026-10-17T10:00:00Z","finished_at":"2026-10-17T10:00:01Z"}`
	path := filepath.Join(t.TempDir(), "legacy-grid.status.json")
	if err := os.WriteFile(path, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := readStatusFile(path)
	if err != nil {
		t.Fatalf("legacy record rejected: %v", err)
	}
	sw := restoredSweep(&Server{}, st)
	if got := sw.stateNow(); got != StateDone {
		t.Fatalf("restored state %s, want done", got)
	}
	raw, err := json.Marshal(sw.status())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"order"`)) || !bytes.Contains(raw, []byte(`"candidates":2,"cells":2`)) {
		t.Errorf("restored status %s: want the stats without order", raw)
	}
}
