package dse

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
)

// TestOptsFingerprintPinned pins optsFingerprint to values computed before
// the portfolio-patience, racing-keep and abandon-stride options were
// removed: checkpoints written by earlier builds must keep hitting their
// cells.
func TestOptsFingerprintPinned(t *testing.T) {
	def := DefaultOptions()
	racing := def
	racing.Restarts = 4
	racing.Racing = true
	wide := racing
	wide.Restarts = 8
	wide.BatchUnits = []int{1, 2}
	wide.Seed = 7
	for _, c := range []struct {
		name string
		opt  Options
		want uint64
	}{
		{"default", def, 0x99ce5b311a3445a8},
		{"restarts4-racing", racing, 0x42fcaa1d15fb322d},
		{"restarts8-units12-seed7", wide, 0x9cfe12c59bad4b4b},
	} {
		if got := optsFingerprint(c.opt); got != c.want {
			t.Errorf("%s: optsFingerprint = %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// patienceCheckpoint is a checkpoint written by a build that still had
// portfolio patience: GArch72 x tinycnn under testOptions() with
// Restarts=4 and Patience=1. Its option fingerprint folds the patience
// word, so no current option set can produce its key.
const patienceCheckpoint = `{
  "version": 1,
  "cells": {
    "231bd960a1011a05/tinycnn/d5a68f2d312c4f95": {
      "model": "tinycnn",
      "feasible": true,
      "energy": 0.000024955876080000002,
      "delay": 0.000006268511111111112,
      "groups": 3,
      "avg_layers_per_group": 2.3333333333333335,
      "dram_bytes": 262296,
      "e_mac": 0.0000042044703999999995,
      "e_glb": 0.0000010964880000000005,
      "e_noc": 0.0000018427368000000024,
      "e_d2d": 0.0000020744208800000003,
      "e_dram": 0.000015737759999999998,
      "sa_cost": 1.56436186494992e-10,
      "sa_init_cost": 1.60820706981136e-10,
      "restarts": 2
    }
  }
}`

// TestPatienceKeyedCheckpointLoads: a checkpoint holding a patience-keyed
// cell still loads and survives Save -> Load, but a sweep cannot hit it:
// the cell is recomputed under the current fingerprint, and the legacy
// record stays alongside it.
func TestPatienceKeyedCheckpointLoads(t *testing.T) {
	const legacyKey = "231bd960a1011a05/tinycnn/d5a68f2d312c4f95"
	ses := NewSession()
	if err := ses.LoadCheckpoint(strings.NewReader(patienceCheckpoint)); err != nil {
		t.Fatalf("loading a patience-keyed checkpoint: %v", err)
	}
	var buf bytes.Buffer
	if err := ses.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	again := NewSession()
	if err := again.LoadCheckpoint(&buf); err != nil {
		t.Fatalf("reloading the re-saved checkpoint: %v", err)
	}
	if _, ok := again.peekCell(legacyKey); !ok || again.CheckpointCells() != 1 {
		t.Fatalf("legacy cell lost in Save -> Load (%d cells)", again.CheckpointCells())
	}

	opt := testOptions()
	opt.Restarts = 4
	cfg := arch.GArch72()
	if again.Run([]arch.Config{cfg}, []*dnn.Graph{testCNN}, opt)[0].Err != nil {
		t.Fatal("sweep over a loaded legacy checkpoint errored")
	}
	st := again.LastSweepStats()
	if st.ResumedCells != 0 || st.SAIterations == 0 {
		t.Errorf("legacy cell was restored instead of recomputed: resumed=%d sa_iterations=%d",
			st.ResumedCells, st.SAIterations)
	}
	buf.Reset()
	if err := again.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(buf.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	// The legacy key names this very cell; only its options word differs.
	if want := cellKey(eval.ConfigFingerprint(&cfg), testCNN.Name, 0xd5a68f2d312c4f95); legacyKey != want {
		t.Fatalf("legacy key %s no longer names this cell (%s)", legacyKey, want)
	}
	if _, ok := cp.Cells[legacyKey]; !ok {
		t.Error("sweep dropped the legacy cell")
	}
	fresh := cellKey(eval.ConfigFingerprint(&cfg), testCNN.Name, optsFingerprint(opt))
	if _, ok := cp.Cells[fresh]; !ok || len(cp.Cells) != 2 {
		t.Errorf("recomputed cell %s missing from %d saved cells", fresh, len(cp.Cells))
	}
}

// gridOrderCheckpoint was saved by a build that still had a dispatch-order
// option and the compute+weight-DRAM bound level: GArch72 x {tinycnn,
// tinytransformer} under testOptions() with Restarts=2, Prune, grid order
// and the compute-dram bound. Neither option entered the cell fingerprint.
const gridOrderCheckpoint = `{
  "version": 1,
  "cells": {
    "231bd960a1011a05/tinycnn/09404620390fc4ba": {
      "model": "tinycnn", "feasible": true,
      "energy": 0.000024955876080000002, "delay": 0.000006268511111111112,
      "groups": 3, "avg_layers_per_group": 2.3333333333333335, "dram_bytes": 262296,
      "e_mac": 0.0000042044703999999995, "e_glb": 0.0000010964880000000005,
      "e_noc": 0.0000018427368000000024, "e_d2d": 0.0000020744208800000003,
      "e_dram": 0.000015737759999999998,
      "sa_cost": 1.56436186494992e-10, "sa_init_cost": 1.60820706981136e-10, "restarts": 2
    },
    "231bd960a1011a05/tinytransformer/09404620390fc4ba": {
      "model": "tinytransformer", "feasible": true,
      "energy": 0.000015123831520000002, "delay": 0.0000026533374999999997,
      "groups": 4, "avg_layers_per_group": 6, "dram_bytes": 131072,
      "e_mac": 0.0000012869632, "e_glb": 0.0000025640960000000005,
      "e_noc": 0.0000018222556800000011, "e_d2d": 0.0000015861966400000007,
      "e_dram": 0.00000786432,
      "sa_cost": 4.0128629315698e-11, "sa_init_cost": 4.08559661568e-11, "restarts": 2
    }
  }
}`

// TestGridOrderCheckpointResumes: cells checkpointed under grid order and
// the compute-dram bound resume verbatim under the current options, with
// no cell recomputed.
func TestGridOrderCheckpointResumes(t *testing.T) {
	ses := NewSession()
	if err := ses.LoadCheckpoint(strings.NewReader(gridOrderCheckpoint)); err != nil {
		t.Fatal(err)
	}
	orig := mapModelFn
	mapModelFn = func(*eval.Evaluator, *arch.Config, *dnn.Graph, Options, func() bool, int, int) (*MapResult, error) {
		t.Error("a checkpointed cell was recomputed")
		return nil, nil
	}
	defer func() { mapModelFn = orig }()

	opt := testOptions()
	opt.Restarts = 2
	opt.Prune = true
	res := ses.Run([]arch.Config{arch.GArch72()}, []*dnn.Graph{testCNN, testTF}, opt)
	if st := ses.LastSweepStats(); st.ResumedCells != 2 || st.SAIterations != 0 {
		t.Errorf("resumed %d cells with %d SA iterations, want 2 and 0", st.ResumedCells, st.SAIterations)
	}
	// The geomean of the two restored cells, as the checkpointing build
	// reported it.
	if r := res[0]; r.Err != nil || r.Energy != 1.9427518247782398e-05 || r.Delay != 4.078293221468725e-06 {
		t.Errorf("restored candidate %+v, want the checkpointing build's E/D", r)
	}
}
