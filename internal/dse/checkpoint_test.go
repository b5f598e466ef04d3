package dse

import (
	"bytes"
	"encoding/json"
	"testing"
)

// checkpointOf encodes records as a checkpoint file, one cell per key.
func checkpointOf(t *testing.T, cells map[string]cellRecord) []byte {
	t.Helper()
	b, err := json.Marshal(checkpointFile{Version: checkpointVersion, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mergedBytes loads the checkpoints in order into a fresh session and
// returns its SaveCheckpoint bytes.
func mergedBytes(t *testing.T, files ...[]byte) []byte {
	t.Helper()
	s := NewSession()
	for _, f := range files {
		if err := s.LoadCheckpoint(bytes.NewReader(f)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestLoadCheckpointIsAJoin: merging one set of checkpoint files in every
// order gives identical SaveCheckpoint bytes (commutative), re-loading a
// file changes nothing (idempotent), and a pre-merged subset merges like
// its parts (associative). The set mixes, per key, a legacy width-0
// verdict, narrow and wide feasible portfolios and an equal-width twin.
func TestLoadCheckpointIsAJoin(t *testing.T) {
	narrow := cellRecord{Model: "m", Feasible: true, Energy: 3, Delay: 2, SACost: 6, Restarts: 2, BestRestart: 1}
	wide := cellRecord{Model: "m", Feasible: true, Energy: 2, Delay: 2, SACost: 4, Restarts: 8, BestRestart: 5}
	files := [][]byte{
		checkpointOf(t, map[string]cellRecord{"a": {Model: "m"}, "b": {Model: "n", Restarts: 4}}),
		checkpointOf(t, map[string]cellRecord{"a": narrow}),
		checkpointOf(t, map[string]cellRecord{"a": wide, "c": narrow}),
		checkpointOf(t, map[string]cellRecord{"b": {Model: "n", Restarts: 4}, "c": wide}),
		checkpointOf(t, map[string]cellRecord{"a": wide}),
	}
	want := mergedBytes(t, files...)
	for _, p := range permutations(len(files)) {
		ordered := make([][]byte, len(p))
		for i, j := range p {
			ordered[i] = files[j]
		}
		if got := mergedBytes(t, ordered...); !bytes.Equal(got, want) {
			t.Fatalf("order %v merged to\n%s\nwant\n%s", p, got, want)
		}
	}
	if got := mergedBytes(t, append(files, files...)...); !bytes.Equal(got, want) {
		t.Fatal("re-loading the same files changed the merge")
	}
	if got := mergedBytes(t, files[4], mergedBytes(t, files[0], files[1]), mergedBytes(t, files[2], files[3])); !bytes.Equal(got, want) {
		t.Fatal("merging pre-merged subsets differs from merging the parts")
	}
	if want2 := mergedBytes(t, checkpointOf(t, map[string]cellRecord{"a": wide, "b": {Model: "n", Restarts: 4}, "c": wide})); !bytes.Equal(want, want2) {
		t.Fatalf("merge kept a narrower record:\n%s", want)
	}
}

// TestLoadCheckpointNarrowAfterWideStaysWide: a stale lease's narrow upload
// arriving after the wide merge must not regress the cell, and a width-0
// legacy verdict loses to any annotated width.
func TestLoadCheckpointNarrowAfterWideStaysWide(t *testing.T) {
	wide := cellRecord{Model: "m", Feasible: true, Energy: 2, Delay: 2, SACost: 4, Restarts: 8, BestRestart: 5}
	narrow := cellRecord{Model: "m", Feasible: true, Energy: 3, Delay: 2, SACost: 6, Restarts: 2, BestRestart: 1}
	s := NewSession()
	for _, rec := range []cellRecord{wide, narrow, {Model: "m"}} {
		if err := s.LoadCheckpoint(bytes.NewReader(checkpointOf(t, map[string]cellRecord{"k": rec}))); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := s.peekCell("k"); got != wide {
		t.Fatalf("cell = %+v, want the wide record %+v", got, wide)
	}
}
