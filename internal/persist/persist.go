// Package persist is the one persistence path shared by the sweep engine,
// the sweep service, the fleet worker and the CLIs: an atomic file writer,
// a coalesced background runner and a save-health tracker. Callers compose
// them — a background saver is a Runner whose function runs
// tracker.Do(func() error { return WriteFile(path, encode) }) — so each
// piece stays ignorant of the others, of retries and of fault injection.
// See docs/architecture.md "Persistence degradation".
//
//gemini:documented
package persist

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// WriteFile atomically replaces path with the bytes write produces. It
// creates the parent directory, writes through a buffer into a temp file
// in the same directory and renames it over path, so a reader sees either
// the old file or the complete new one, never a truncated mix. On every
// failure — write error, flush or close error, a failed rename, or a panic
// in write — the temp file is removed and path keeps its old bytes.
// Concurrent WriteFile calls on one path are safe (last rename wins). The
// file is not fsynced: the guarantee covers a crashed process, not a lost
// machine.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriter(tmp)
	if err := write(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	committed = true
	return nil
}

// Runner runs one function on a background goroutine whenever it is
// poked. Pokes coalesce: however many arrive while a run is in flight, at
// most one more run follows, and it sees all their state. All methods are
// safe for concurrent use.
type Runner struct {
	req      chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewRunner starts a Runner for run. The caller must Stop it.
func NewRunner(run func()) *Runner {
	r := &Runner{req: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for {
			select {
			case <-r.stop:
				return
			case <-r.req:
				run()
			}
		}
	}()
	return r
}

// Poke requests a run. It never blocks: when a run is already pending,
// the request joins it.
func (r *Runner) Poke() {
	select {
	case r.req <- struct{}{}:
	default:
	}
}

// Stop ends the runner and returns once the in-flight run, if any, has
// finished; no run starts after Stop returns. A request still pending when
// Stop is called may be dropped, so callers follow Stop with their own
// final run. Stop is idempotent; Poke after Stop is a harmless no-op.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}
