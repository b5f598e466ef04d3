// Failure model of the sweep engine: the typed cell-error taxonomy, the
// transient-vs-permanent classifier retry decisions are made with, and the
// per-cell retry policy. Persistence degradation lives in internal/persist.
// See docs/architecture.md "Failure model".
package dse

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// CellErrorKind classifies a cell-level infrastructure failure.
type CellErrorKind string

const (
	// CellPanic marks a mapping attempt that panicked; the panic was
	// recovered, its stack captured, and the cell failed instead of the
	// process.
	CellPanic CellErrorKind = "panic"
	// CellTimeout marks an attempt cut off by Options.CellTimeout.
	CellTimeout CellErrorKind = "timeout"
	// CellTransient marks an I/O-shaped failure worth retrying (including
	// injected faults in chaos tests).
	CellTransient CellErrorKind = "transient"
)

// CellError is the typed failure of one (candidate, model) mapping attempt.
// Every kind is transient under the Transient classifier: a panic may be a
// one-off allocation failure, a timeout a scheduling hiccup — the retry
// policy decides how often to find out. Cells that fail with a CellError are
// never checkpointed, so resumed sweeps retry them too.
type CellError struct {
	Kind      CellErrorKind
	Candidate string
	Model     string
	// Attempt is the 0-based attempt index that failed.
	Attempt int
	// Stack is the recovered goroutine stack for CellPanic, empty otherwise.
	Stack string
	// Err is the underlying failure (the panic value's rendering, the
	// deadline error, or the injected/transport error).
	Err error
}

// Error renders the failure with its cell coordinates.
func (e *CellError) Error() string {
	msg := fmt.Sprintf("dse: cell %s/%s attempt %d: %s", e.Candidate, e.Model, e.Attempt, e.Kind)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Transient reports whether an error is worth retrying. The classification
// is deliberately explicit: infeasibility is a settled outcome, context
// cancellation means the sweep is over, and an unrecognized error is assumed
// to be a bug or a bad configuration that a retry would only repeat. Only
// typed cell errors (panic, timeout, transient I/O), errors carrying their
// own Transient() bool (e.g. injected faults), and deadline expiries retry.
func Transient(err error) bool {
	if err == nil || errors.Is(err, ErrInfeasible) || errors.Is(err, context.Canceled) {
		return false
	}
	var ce *CellError
	if errors.As(err, &ce) {
		return true
	}
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// RetryPolicy bounds transient-failure retries of one (candidate, model)
// cell. The zero value disables retry (one attempt, exactly the
// pre-hardening engine). Retry state never enters the checkpoint cell
// fingerprint: a cell that succeeds on attempt 3 is bit-identical to one
// that succeeds on attempt 0, because every attempt runs the same seeded
// pipeline from scratch.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt (so Max 2 means
	// up to 3 attempts). <= 0 disables retry.
	Max int
	// BaseDelay is the backoff before the first retry (default 10ms when
	// Max > 0); each further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s when Max > 0).
	MaxDelay time.Duration
}

// withDefaults normalizes the policy: a disabled policy stays zero, an
// enabled one gets the default delays.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Max <= 0 {
		return RetryPolicy{}
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	return p
}

// backoff returns the sleep before retry attempt (1-based): exponential in
// the attempt, capped at MaxDelay, with a deterministic jitter in [50%,
// 100%] derived from (key, attempt) so concurrent cells retrying the same
// incident spread out without consuming any randomness source.
func (p RetryPolicy) backoff(attempt int, key string) time.Duration {
	d := p.MaxDelay
	if shift := uint(attempt - 1); shift < 32 {
		if e := p.BaseDelay << shift; e > 0 && e < d {
			d = e
		}
	}
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	h = fnvWord(h, uint64(attempt))
	frac := 0.5 + 0.5*float64(h>>11)/float64(uint64(1)<<53)
	return time.Duration(float64(d) * frac)
}
