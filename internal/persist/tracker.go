package persist

import (
	"fmt"
	"sync"
	"time"
)

// degradeAfter is how many consecutive save failures flip a tracker into
// degraded mode (a single hiccup on a healthy disk is not a degradation).
const degradeAfter = 3

// saveAttempts bounds the in-save retry loop of one save; retryDelay is the
// pause before the first in-save retry (doubling after).
const (
	saveAttempts = 3
	retryDelay   = 5 * time.Millisecond
)

// State is a point-in-time snapshot of a persistence path's health,
// reported by the sweep engine's SweepStats and the sweep service's
// /healthz.
type State struct {
	// Errors counts failed save operations (after their bounded in-save
	// retries) since the tracker was created.
	Errors int64 `json:"errors"`
	// Degraded reports degradeAfter or more consecutive failures: the sweep
	// keeps running with in-memory state only, and the next successful save
	// clears the flag.
	Degraded bool `json:"degraded"`
	// LastError is the most recent failure's message, empty when none has
	// occurred yet.
	LastError string `json:"last_error,omitempty"`
}

// Tracker accounts for background persistence failures (checkpoint, status
// and disk-cache saves) without ever failing the sweep they serve:
// persistence is an optimization, losing it degrades restart cost, not
// correctness. The zero value is ready to use; all methods are safe for
// concurrent use.
type Tracker struct {
	mu          sync.Mutex
	errors      int64
	consecutive int
	degraded    bool
	lastErr     string
}

// Fail records a failed save and reports whether the tracker just entered
// degraded mode (so the caller can log the transition once).
func (t *Tracker) Fail(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errors++
	t.consecutive++
	t.lastErr = err.Error()
	if !t.degraded && t.consecutive >= degradeAfter {
		t.degraded = true
		return true
	}
	return false
}

// OK records a successful save, clearing the consecutive-failure streak and
// the degraded flag.
func (t *Tracker) OK() {
	t.mu.Lock()
	t.consecutive = 0
	t.degraded = false
	t.mu.Unlock()
}

// State snapshots the tracker.
func (t *Tracker) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return State{Errors: t.errors, Degraded: t.degraded, LastError: t.lastErr}
}

// Do runs one save under the tracker's bounded-retry discipline: up to
// saveAttempts attempts with a short doubling pause, then the failure is
// recorded (possibly entering degraded mode) and returned for logging. A
// success clears the streak. The sweep the save serves never sees the
// error. A panicking save is recovered into a failed attempt: savers run on
// background goroutines where an escaped panic would kill the process, and
// persistence is never worth that.
func (t *Tracker) Do(save func() error) error {
	guarded := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("save panicked: %v", v)
			}
		}()
		return save()
	}
	var err error
	for a := 0; a < saveAttempts; a++ {
		if a > 0 {
			time.Sleep(retryDelay << uint(a-1))
		}
		if err = guarded(); err == nil {
			t.OK()
			return nil
		}
	}
	t.Fail(err)
	return err
}
