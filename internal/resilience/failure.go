// Package resilience is the failure model of the flow runtime: a recovery
// boundary that converts pass panics into typed failures, a seeded backoff
// policy for transient-error retries, self-contained repro bundles written
// to a quarantine directory, and a crash-tolerant write-ahead journal for
// resumable sweeps. It is a leaf package — every layer of the stack (the
// flows, the evaluation engine, the DSE) builds on it without creating
// import cycles.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// FailureKind classifies how a pipeline unit failed.
type FailureKind string

const (
	// KindPanic is a recovered runtime panic inside the unit.
	KindPanic FailureKind = "panic"
	// KindError is an ordinary error returned by the unit.
	KindError FailureKind = "error"
	// KindVerify is a post-unit verifier or lint-invariant violation: the
	// unit completed but left the IR broken.
	KindVerify FailureKind = "verify"
	// KindTimeout is a deadline expiry observed at a unit boundary.
	KindTimeout FailureKind = "timeout"
	// KindCanceled is an external cancellation observed at a unit boundary.
	KindCanceled FailureKind = "canceled"
	// KindInjected is a deterministic test-injected fault.
	KindInjected FailureKind = "injected"
	// KindMiscompile is a semantic divergence caught by the differential
	// oracle: the unit completed, the IR verifies and schedules, and it
	// computes the wrong answer. Deterministic — never retried, always
	// eligible for fallback and quarantine.
	KindMiscompile FailureKind = "miscompile"
)

// PassFailure is the typed outcome of a failed pipeline unit: which stage
// of which flow broke, in which pass, and how. A recovered panic carries
// the goroutine stack; bisection attaches the IR entering the unit.
type PassFailure struct {
	// Stage is the flow phase ("mlir-opt", "lowering", "translate",
	// "adaptor", "llvm-opt", "synthesis", "emit-hlscpp", "c-frontend").
	Stage string `json:"stage"`
	// Pass is the unit within the stage (a pass name, or the stage name
	// itself for single-unit stages).
	Pass string      `json:"pass"`
	Kind FailureKind `json:"kind"`
	// Msg is the failure text (panic value or error string).
	Msg string `json:"msg"`
	// Stack is the captured goroutine stack for KindPanic.
	Stack string `json:"stack,omitempty"`

	// cause preserves the underlying error for errors.Is/As chains (not
	// serialized; Msg carries the text into bundles).
	cause error
}

// Error implements error.
func (f *PassFailure) Error() string {
	return fmt.Sprintf("%s in %s pass %q: %s", f.Kind, f.Stage, f.Pass, f.Msg)
}

// Unwrap exposes the underlying cause, so errors.Is(err,
// context.DeadlineExceeded) sees through a boundary-observed timeout.
func (f *PassFailure) Unwrap() error { return f.cause }

// NewFailure builds a PassFailure wrapping cause.
func NewFailure(stage, pass string, kind FailureKind, cause error) *PassFailure {
	return &PassFailure{Stage: stage, Pass: pass, Kind: kind, Msg: cause.Error(), cause: cause}
}

// AsPassFailure extracts the typed failure from an error chain.
func AsPassFailure(err error) (*PassFailure, bool) {
	var f *PassFailure
	ok := errors.As(err, &f)
	return f, ok
}

// Guard runs fn inside a recovery boundary attributed to (stage, pass): a
// panic becomes a *PassFailure with the captured stack instead of killing
// the process, and a plain error return is wrapped into a typed failure so
// every failure leaving a guarded unit carries its provenance.
func Guard(stage, pass string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PassFailure{
				Stage: stage, Pass: pass, Kind: KindPanic,
				Msg:   fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
		}
	}()
	if err := fn(); err != nil {
		if _, typed := AsPassFailure(err); typed {
			return err // already attributed by an inner boundary
		}
		kind := KindError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			kind = KindTimeout
		case errors.Is(err, context.Canceled):
			kind = KindCanceled
		}
		return NewFailure(stage, pass, kind, err)
	}
	return nil
}

// Interrupted converts a non-nil ctx.Err() observed before (stage, pass)
// into a typed failure; it returns nil while ctx is live. The flow runner
// calls it at every unit boundary so a timed-out job stops at the next
// boundary instead of running the pipeline to completion in a leaked
// goroutine.
func Interrupted(ctx context.Context, stage, pass string) error {
	if ctx == nil {
		return nil
	}
	err := ctx.Err()
	if err == nil {
		return nil
	}
	kind := KindCanceled
	if errors.Is(err, context.DeadlineExceeded) {
		kind = KindTimeout
	}
	return NewFailure(stage, pass, kind, err)
}

// Transient reports whether err is worth retrying: timeouts and
// cancellations (including their typed boundary forms) are transient;
// panics, verify violations, and ordinary errors are deterministic and are
// not.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if f, ok := AsPassFailure(err); ok {
		return f.Kind == KindTimeout || f.Kind == KindCanceled
	}
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
