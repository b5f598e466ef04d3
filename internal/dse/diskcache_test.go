package dse

import (
	"os"
	"path/filepath"
	"testing"

	"gemini/internal/dnn"
)

// TestDiskCacheRestartWarm simulates a killed-and-restarted process: a
// fresh session pointed at the predecessor's cache directory must recompute
// zero cached group evaluations (every lookup of the identical sweep hits),
// and its results must be bit-identical.
func TestDiskCacheRestartWarm(t *testing.T) {
	dir := t.TempDir()
	cands := testCands()
	models := []*dnn.Graph{testCNN, testTF}
	opt := testOptions()
	opt.CacheDir = dir

	first := NewSession()
	want := first.Run(cands, models, opt)
	if Best(want) == nil {
		t.Fatal("no feasible candidate")
	}
	if _, err := os.Stat(CachePath(dir)); err != nil {
		t.Fatalf("sweep left no cache spill: %v", err)
	}

	// "Restart": a brand-new session (new process stand-in) with the same
	// cache directory. The graphs are the same pointers here, but the disk
	// keys are content fingerprints — rebuilt graphs hash identically, which
	// TestGraphFingerprintStructural pins on the eval side.
	second := NewSession()
	got := second.Run(cands, models, opt)
	resultsEqual(t, want, got, "disk-warmed restart")

	st := second.CacheStats()
	if st.Misses != 0 {
		t.Errorf("restarted session recomputed %d group evaluations, want 0", st.Misses)
	}
	if st.DiskHits == 0 || st.DiskLoaded == 0 {
		t.Errorf("disk accounting empty after warm restart: %+v", st)
	}
}

// TestDiskCacheCorruptSpillDegradesToCold: a damaged spill file must not
// fail the sweep — it recomputes and rewrites the spill.
func TestDiskCacheCorruptSpillDegradesToCold(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(CachePath(dir), []byte("not a cache\n{..\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.CacheDir = dir
	ses := NewSession()
	rs := ses.Run(testCands(), []*dnn.Graph{testCNN}, opt)
	if Best(rs) == nil {
		t.Fatal("sweep with corrupt spill found no feasible candidate")
	}
	if st := ses.CacheStats(); st.DiskLoaded != 0 || st.Misses == 0 {
		t.Errorf("corrupt spill should load nothing and run cold: %+v", st)
	}
	// The sweep's saver must have replaced the corrupt file with a valid one.
	warm := NewSession()
	if n, err := warm.WarmDiskCache(dir); err != nil || n == 0 {
		t.Fatalf("rewritten spill unusable: n=%d err=%v", n, err)
	}
}

// TestWarmDiskCacheOncePerDir: the load is idempotent per (session, dir).
func TestWarmDiskCacheOncePerDir(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions()
	opt.CacheDir = dir
	ses := NewSession()
	ses.Run(testCands()[:1], []*dnn.Graph{testCNN}, opt)

	other := NewSession()
	n1, err := other.WarmDiskCache(dir)
	if err != nil || n1 == 0 {
		t.Fatalf("first warm: n=%d err=%v", n1, err)
	}
	n2, err := other.WarmDiskCache(dir)
	if err != nil || n2 != 0 {
		t.Fatalf("second warm should be a no-op: n=%d err=%v", n2, err)
	}
}

// TestCacheDirExcludedFromCellFingerprint: pointing a sweep at a cache
// directory must keep hitting the same checkpoint cells (CacheDir only
// warms evaluations, it never renames results).
func TestCacheDirExcludedFromCellFingerprint(t *testing.T) {
	a := testOptions()
	b := testOptions()
	b.CacheDir = filepath.Join(t.TempDir(), "x")
	b.computeDRAMBound = true
	b.gridOrder = true
	b.betweenRestartsOnly = true
	if optsFingerprint(a) != optsFingerprint(b) {
		t.Error("scheduling-only options leak into the cell fingerprint")
	}
}

// TestDiskCacheMultiSessionUnion pins the multi-writer durability fix: two
// sessions with distinct caches sharing one cache directory (a server's
// session pool) must converge on the union of their work — the
// last-finishing session's save must not discard the other's entries. A
// fresh "restarted" session must then replay either sweep with zero
// recomputed group evaluations.
func TestDiskCacheMultiSessionUnion(t *testing.T) {
	dir := t.TempDir()
	opt := testOptions()
	opt.CacheDir = dir
	cands := testCands()

	// Session A evaluates candidate 0, session B candidate 1 — disjoint
	// entry sets, saved to the same spill file in sequence.
	a := NewSession()
	if Best(a.Run(cands[:1], []*dnn.Graph{testCNN}, opt)) == nil {
		t.Fatal("sweep A infeasible")
	}
	b := NewSession()
	if Best(b.Run(cands[1:], []*dnn.Graph{testCNN}, opt)) == nil {
		t.Fatal("sweep B infeasible")
	}

	// The restarted process must warm both sweeps from the union.
	c := NewSession()
	opt.CacheDir = ""
	if n, err := c.WarmDiskCache(dir); err != nil || n == 0 {
		t.Fatalf("warm failed: n=%d err=%v", n, err)
	}
	if Best(c.Run(cands, []*dnn.Graph{testCNN}, opt)) == nil {
		t.Fatal("restarted sweep infeasible")
	}
	if st := c.CacheStats(); st.Misses != 0 {
		t.Errorf("restarted session recomputed %d group evaluations; session B's save clobbered session A's entries", st.Misses)
	}
}
