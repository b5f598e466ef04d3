package persist

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWriteFileKeepsOldBytesOnFailure: a failing or panicking write leaves
// the previous file byte-for-byte intact and no temp file behind; a
// successful write replaces it and creates missing parent directories.
func TestWriteFileKeepsOldBytesOnFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	path := filepath.Join(dir, "s.ckpt")
	old := []byte("{\"version\": 1}\n")
	if err := WriteFile(path, func(w io.Writer) error { _, err := w.Write(old); return err }); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	if err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failing write returned %v, want %v", err, boom)
	}
	func() {
		defer func() {
			if v := recover(); v != "encoder bug" {
				t.Fatalf("panic not propagated: %v", v)
			}
		}()
		WriteFile(path, func(w io.Writer) error {
			w.Write(make([]byte, 1<<16)) // past the buffer: bytes reach the temp file
			panic("encoder bug")
		})
	}()

	got, err := os.ReadFile(path)
	if err != nil || string(got) != string(old) {
		t.Fatalf("old file clobbered: %q, %v", got, err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the target", len(entries))
	}

	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "new"); return err }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("successful write not visible: %q", got)
	}
}

// TestRunnerCoalescesPokes: any number of pokes, from several goroutines,
// during an in-flight run cause exactly one more run, never one per poke.
func TestRunnerCoalescesPokes(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int32
	r := NewRunner(func() {
		if runs.Add(1) == 1 {
			close(started)
			<-release // only the first run blocks
		}
	})
	r.Poke()
	<-started // run 1 is in flight
	var pokers sync.WaitGroup
	for g := 0; g < 4; g++ {
		pokers.Add(1)
		go func() {
			defer pokers.Done()
			for i := 0; i < 25; i++ {
				r.Poke()
			}
		}()
	}
	pokers.Wait()
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for any surplus run to show
	r.Stop()
	if n := runs.Load(); n != 2 {
		t.Fatalf("100 pokes during one run caused %d runs in total, want 2", n)
	}
}

// TestRunnerStopWaitsForRun: Stop returns only after the in-flight run has
// finished, and nothing runs after it returns.
func TestRunnerStopWaitsForRun(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var finished, runs atomic.Int32
	r := NewRunner(func() {
		if runs.Add(1) == 1 {
			close(started)
			<-release
		}
		finished.Add(1)
	})
	r.Poke()
	<-started
	stopped := make(chan struct{})
	go func() {
		r.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a run was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-stopped
	if finished.Load() != runs.Load() {
		t.Fatalf("Stop returned with %d of %d runs finished", finished.Load(), runs.Load())
	}
	r.Poke() // after Stop: a no-op, never a panic
	r.Stop() // idempotent
	time.Sleep(10 * time.Millisecond)
	if n := runs.Load(); n > 1 {
		t.Fatalf("%d runs, want the in-flight one only", n)
	}
}

// TestTracker pins the degradation state machine and the bounded in-save
// retry of Do, including panic isolation of the save function.
func TestTracker(t *testing.T) {
	var tr Tracker
	boom := errors.New("disk full")
	if tr.Fail(boom) || tr.Fail(boom) {
		t.Error("degraded before the third consecutive failure")
	}
	if !tr.Fail(boom) {
		t.Error("third consecutive failure did not report the degrade transition")
	}
	if tr.Fail(boom) {
		t.Error("already-degraded tracker reported the transition again")
	}
	st := tr.State()
	if !st.Degraded || st.Errors != 4 || st.LastError != "disk full" {
		t.Errorf("state: %+v", st)
	}
	tr.OK()
	if st = tr.State(); st.Degraded {
		t.Error("success did not clear degraded mode")
	}
	if st.Errors != 4 {
		t.Errorf("success reset the lifetime error count: %+v", st)
	}

	// Do masks failures that clear within its bounded retry...
	calls := 0
	err := tr.Do(func() error {
		calls++
		if calls < 3 {
			return boom
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("Do = %v after %d calls, want nil after 3", err, calls)
	}
	// ...records ones that do not...
	if err := tr.Do(func() error { return boom }); err == nil {
		t.Error("exhausted Do returned nil")
	}
	if tr.State().Errors != 5 {
		t.Errorf("errors = %d, want 5", tr.State().Errors)
	}
	// ...and recovers a panicking save instead of unwinding the saver
	// goroutine.
	if err := tr.Do(func() error { panic("saver bug") }); err == nil || !strings.Contains(err.Error(), "saver bug") {
		t.Errorf("panicking save: %v", err)
	}
}
