package core

import (
	"context"
	"fmt"
)

// SetContext installs (or, with nil, clears) a context the alignment
// kernel consults once per DC window. When the context is done, the
// in-flight Align/AlignGlobal returns ctx.Err() at the next window
// boundary, bounding how long a deadline or cancellation can be ignored
// to one window's work. The pool sets this around every pooled call;
// direct Workspace users may set it themselves. Storing the context is
// allocation-free; a nil context costs one predictable branch per window.
func (w *Workspace) SetContext(ctx context.Context) { w.ctx = ctx }

// checkCtx returns the stored context's error, if any. Called once per
// window from the align loop.
func (w *Workspace) checkCtx() error {
	if w.ctx == nil {
		return nil
	}
	return w.ctx.Err()
}

// PanicError wraps a panic recovered at the pool's isolation boundary
// around a pooled alignment or mapping. The panicking workspace is
// quarantined (never returned to the pool), so a corrupted workspace
// cannot poison later requests; the capacity token is released and the
// next cache miss rebuilds a fresh workspace in its place. The root
// package exports this type as genasm.PanicError, so its message speaks
// for the public API.
type PanicError struct {
	// Site labels where the panic fired: "align" for the kernel path, or
	// a fault-injection site name for injected panics.
	Site string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("genasm: panic in pooled %s (workspace quarantined): %v", e.Site, e.Value)
}
