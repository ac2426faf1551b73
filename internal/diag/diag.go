// Package diag provides the panic-containment boundary used by the
// public entry points of the verification stack (vm.Run, mc.Check,
// atomig.Port, minic.Compile, ir.ParseModule). An internal invariant
// violation anywhere below those entry points surfaces as a structured
// *InternalError carrying the failing stage and a captured stack trace,
// instead of crashing the calling tool: the CLIs turn it into a
// diagnostic message and a nonzero exit code, and fuzzers can record it
// as a finding with enough context to reproduce.
package diag

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
)

// InternalError is a contained panic: an internal bug in one of the
// stack's stages, reported as an error instead of a crash.
type InternalError struct {
	// Stage is the public entry point whose guard caught the panic,
	// e.g. "vm.Run" or "ir.ParseModule".
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery time.
	Stack string
}

// Error renders the one-line form used in CLI output.
func (e *InternalError) Error() string {
	return fmt.Sprintf("%s: internal error: %v", e.Stage, e.Value)
}

// Diagnostics renders the full report: the error line plus the captured
// stack, trimmed to the frames below the guard.
func (e *InternalError) Diagnostics() string {
	var b strings.Builder
	b.WriteString(e.Error())
	b.WriteByte('\n')
	b.WriteString(e.Stack)
	return b.String()
}

// Guard is the recovery boundary. Use as
//
//	func Entry() (err error) {
//	    defer diag.Guard("pkg.Entry", &err)
//	    ...
//	}
//
// A panic below the deferred call is converted into an *InternalError
// assigned to *err; a normal return (including an error return) passes
// through untouched. A panic whose value already is an *InternalError —
// a worker panic fanout.Each brought home — is reported under stage
// with its original value and stack, so the error reads the same
// whether the panic happened on the caller's goroutine or a worker's.
func Guard(stage string, err *error) {
	if r := recover(); r != nil {
		if ie, ok := r.(*InternalError); ok {
			*err = &InternalError{Stage: stage, Value: ie.Value, Stack: ie.Stack}
			return
		}
		*err = &InternalError{Stage: stage, Value: r, Stack: string(debug.Stack())}
	}
}

// AsInternal reports whether err wraps an *InternalError and returns it.
func AsInternal(err error) (*InternalError, bool) {
	var ie *InternalError
	if errors.As(err, &ie) {
		return ie, true
	}
	return nil, false
}
