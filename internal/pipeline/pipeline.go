// Package pipeline carries the cross-cutting execution context of the
// module's long-running paths: a context.Context for cancellation and
// deadlines, a resolved worker budget, and an optional stage/progress
// event sink.
//
// A single *Run is threaded from an entry point (core.EstimateCtx, the
// samplers, the experiment drivers, an HTTP job in internal/server)
// down through every parallel stage. Every long-running operation of
// the module takes a Run — there is no second, blocking form — and a
// nil *Run means a background run on all cores with no sink. The
// contract every consumer obeys:
//
//   - Cancellation only ever *aborts* — a cancelled Run makes the
//     callee return its Context's error, never a perturbed result. For
//     a Run that is never cancelled, results are bit-identical for the
//     same seed whatever the context (checks happen between shards and
//     iterations, off the hot loops, and consume no randomness).
//   - The worker budget is resolved once (Workers() > 0 always) and is
//     the single source of goroutine bounds below the entry point, and
//     results are identical for every budget.
//   - Events are emitted from orchestrating code, and from fan-out
//     shards only through a Counter, and are serialized through one
//     mutex, so a Sink needs no locking of its own.
package pipeline

import (
	"context"
	"sync"
	"time"

	"dpkron/internal/parallel"
)

// Event is one progress notification. Stage is a slash-separated path
// ("algorithm1/degree-release"); Frac is the completed fraction of that
// stage: 0 on start, 1 on completion, intermediate values for stages
// that report incremental progress.
type Event struct {
	Stage string
	Frac  float64
}

// Done reports whether the event marks stage completion.
func (e Event) Done() bool { return e.Frac >= 1 }

// Sink receives progress events. Calls are serialized by the Run, in
// emission order; a Sink must not block for long (it runs on the
// pipeline's goroutines) and must not call back into the pipeline.
type Sink func(Event)

// Run is the execution context threaded through the pipeline. The zero
// value is not usable; construct with New (or use a nil *Run, which
// behaves as a background run on all cores with no sink).
type Run struct {
	ctx     context.Context
	workers int
	sink    Sink
	mu      *sync.Mutex // shared by Sub/WithWorkers derivatives
	prefix  string
}

// New returns a Run over ctx (nil means context.Background()) with the
// given worker budget (<= 0 selects all cores) and optional sink.
func New(ctx context.Context, workers int, sink Sink) *Run {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Run{ctx: ctx, workers: parallel.Normalize(workers), sink: sink, mu: &sync.Mutex{}}
}

// WithTimeout returns a Run whose context is parent (nil means
// context.Background()) bounded by d when d > 0, together with the
// cancel function releasing the deadline's resources. With d <= 0 no
// deadline is attached and the cancel function is a no-op.
func WithTimeout(parent context.Context, d time.Duration, workers int, sink Sink) (*Run, context.CancelFunc) {
	r, cancel := New(parent, workers, sink), context.CancelFunc(func() {})
	if d > 0 {
		r.ctx, cancel = context.WithTimeout(r.ctx, d)
	}
	return r, cancel
}

// Context returns the Run's context; context.Background() for a nil Run.
func (r *Run) Context() context.Context {
	if r == nil {
		return context.Background()
	}
	return r.ctx
}

// Err returns the context's error: nil while the Run is live,
// context.Canceled or context.DeadlineExceeded once it is not.
func (r *Run) Err() error { return r.Context().Err() }

// Workers returns the resolved worker budget (always >= 1).
func (r *Run) Workers() int {
	if r == nil {
		return parallel.Normalize(0)
	}
	return r.workers
}

// WithWorkers returns a Run sharing this Run's context, sink and stage
// prefix with a different worker budget (<= 0 selects all cores). Used
// by drivers that move the budget between fan-out levels.
func (r *Run) WithWorkers(n int) *Run {
	if r == nil {
		return New(nil, n, nil)
	}
	cp := *r
	cp.workers = parallel.Normalize(n)
	return &cp
}

// Sub returns a Run that prefixes every emitted stage with stage + "/",
// so nested pipelines (e.g. the moment fit inside Algorithm 1) report
// hierarchical stage paths. Context and worker budget are shared.
func (r *Run) Sub(stage string) *Run {
	if r == nil || r.sink == nil {
		return r
	}
	cp := *r
	cp.prefix = r.prefix + stage + "/"
	return &cp
}

func (r *Run) emit(stage string, frac float64) {
	if r == nil || r.sink == nil {
		return
	}
	r.mu.Lock()
	r.sink(Event{Stage: r.prefix + stage, Frac: frac})
	r.mu.Unlock()
}

// Stage emits the start event (Frac 0) for the named stage and returns
// a function emitting its completion event (Frac 1). Typical use:
//
//	done := run.Stage("triangle-release")
//	... work ...
//	done()
func (r *Run) Stage(name string) func() {
	r.emit(name, 0)
	return func() { r.emit(name, 1) }
}

// Progress emits an intermediate progress event for the named stage;
// frac is clamped into [0, 1].
func (r *Run) Progress(name string, frac float64) { r.emit(name, min(max(frac, 0), 1)) }

// Counter returns the tick function of a stage of total units that
// concurrent workers finish. Each tick marks one unit done, and the
// fraction done is reported once per whole percent: at most ~100
// events, rising, and the last unit reports 1. A fan-out shard's tick
// is its only progress call. Without a sink a tick does nothing.
func (r *Run) Counter(stage string, total int) (tick func()) {
	if r == nil || r.sink == nil {
		return func() {}
	}
	done, whole := int64(0), int64(max(total, 1)) // done under r.mu
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if done++; done*100/whole > (done-1)*100/whole {
			r.sink(Event{Stage: r.prefix + stage, Frac: min(float64(done)/float64(whole), 1)})
		}
	}
}
