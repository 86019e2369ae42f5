// Package trace is a dependency-free span tracer for the serving tier.
//
// A Tracer records one tree of timed spans — for this repository,
// one tree per served job — and renders it as a JSON span tree
// (Tree), a Chrome/Perfetto trace-event file (WriteChrome), or an
// ASCII waterfall (via internal/textplot in the CLI). Span events
// carry string attributes, which the server uses to attach the
// privacy-audit timeline: every accountant debit or refusal becomes
// an event recording mechanism name, ε/δ charged, and remaining
// budget, so a job's trace doubles as the auditable account of where
// its privacy budget went. The server traces every job it admits and
// keeps the tracer on the job, so a trace is evicted with its job's
// history; a job's StageSpans is also its only stage record, timing
// the progress the job view, the stage histogram and the CLI's
// -progress lines report.
//
// The package follows the repository's observability discipline:
//
//   - A nil *Tracer and a nil *Span are valid receivers everywhere
//     and every method on them is a no-op, so instrumented code never
//     branches on "is tracing on".
//   - Observation never perturbs the observed: span ids come from a
//     per-tracer counter and trace ids from crypto/rand (or the
//     caller's traceparent), never from the seeded generators that
//     drive estimation, so enabling tracing cannot move a single
//     sampled bit.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Attr is one string key/value attribute on a span or event.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: fmt.Sprintf("%d", v)} }

// Float builds a float attribute with full round-trip precision, so
// ε/δ recorded on audit events compare exactly against receipts.
func Float(key string, v float64) Attr { return Attr{Key: key, Value: fmt.Sprintf("%.17g", v)} }

// Tracer records one span tree. Create with New; a nil Tracer is a
// valid no-op. All methods are safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	traceID string // 32 lowercase hex digits
	remote  string // parent span id from an incoming traceparent, "" if local root
	now     func() time.Time
	nextID  uint64
	spans   []*Span // in start order
}

// New builds a Tracer. A well-formed ctx.TraceID is adopted (so the
// tracer joins the caller's trace, or the id the middleware already
// echoed); a well-formed ctx.SpanID is additionally recorded as the
// remote parent. Anything else gets a fresh random trace id. New
// never draws from seeded randomness.
func New(ctx Context) *Tracer {
	t := &Tracer{now: time.Now}
	if hexID(ctx.TraceID, 32) {
		t.traceID = ctx.TraceID
		if hexID(ctx.SpanID, 16) {
			t.remote = ctx.SpanID
		}
	} else {
		t.traceID = NewTraceID()
	}
	return t
}

// WithClock replaces the tracer's clock (golden tests only). Returns
// the receiver for chaining; no-op on nil.
func (t *Tracer) WithClock(now func() time.Time) *Tracer {
	if t == nil || now == nil {
		return t
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
	return t
}

// TraceID returns the 32-hex-digit trace id, or "" on a nil tracer.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Start opens a new span under parent (nil parent = a root-level
// span) and returns it. On a nil tracer it returns nil, which is
// itself a valid no-op span.
func (t *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &Span{
		t:     t,
		id:    t.nextID,
		name:  name,
		start: t.now(),
		attrs: append([]Attr(nil), attrs...),
	}
	if parent != nil && parent.t == t {
		s.parent = parent.id
	}
	t.spans = append(t.spans, s)
	return s
}

// Span is one timed operation inside a trace. The zero of use is a
// nil *Span: every method no-ops, so callers thread spans through
// without nil checks.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64 // 0 = root-level
	name   string
	start  time.Time
	end    time.Time // zero while open
	attrs  []Attr
	events []spanEvent
}

type spanEvent struct {
	name  string
	time  time.Time
	attrs []Attr
}

// Child opens a sub-span. Nil-safe: a nil span returns a nil child.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.Start(s, name, attrs...)
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.t.mu.Unlock()
}

// Event records a timestamped point event on the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.events = append(s.events, spanEvent{name: name, time: s.t.now(), attrs: append([]Attr(nil), attrs...)})
	s.t.mu.Unlock()
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.close(false)
}

// close ends the span unless it already ended — at its start when
// instant, making it zero-length — and returns its duration.
func (s *Span) close(instant bool) float64 {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.end.IsZero() {
		if instant {
			s.end = s.start
		} else {
			s.end = s.t.now()
		}
	}
	secs, _ := s.seconds(s.end)
	return secs
}

// seconds is the span's duration as Tree reports it: up to now while
// the span is open. Callers hold s.t.mu.
func (s *Span) seconds(now time.Time) (secs float64, open bool) {
	end := s.end
	if end.IsZero() {
		end, open = now, true
	}
	if d := end.Sub(s.start); d > 0 {
		secs = d.Seconds()
	}
	return secs, open
}

// Tree is the JSON form of a trace: the span forest plus identity,
// as served by GET /v1/jobs/{id}/trace.
type Tree struct {
	TraceID      string  `json:"trace_id"`
	RemoteParent string  `json:"remote_parent,omitempty"`
	Spans        []*Node `json:"spans"`
}

// Node is one span in a Tree. Seconds is the span duration; for a
// span still open at snapshot time it measures up to the snapshot and
// Open is true.
type Node struct {
	Name     string            `json:"name"`
	SpanID   string            `json:"span_id"`
	Start    time.Time         `json:"start"`
	Seconds  float64           `json:"seconds"`
	Open     bool              `json:"open,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Events   []EventNode       `json:"events,omitempty"`
	Children []*Node           `json:"children,omitempty"`
}

// EventNode is one point event in a Tree.
type EventNode struct {
	Name  string            `json:"name"`
	Time  time.Time         `json:"time"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Tree snapshots the tracer into its JSON form. Safe to call while
// spans are still being recorded; open spans report duration up to
// the snapshot instant. Returns nil on a nil tracer.
func (t *Tracer) Tree() *Tree {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	nodes := make(map[uint64]*Node, len(t.spans))
	tree := &Tree{TraceID: t.traceID, RemoteParent: t.remote}
	for _, s := range t.spans {
		n := &Node{
			Name:   s.name,
			SpanID: fmt.Sprintf("%016x", s.id),
			Start:  s.start,
			Attrs:  attrMap(s.attrs),
		}
		n.Seconds, n.Open = s.seconds(now)
		for _, e := range s.events {
			n.Events = append(n.Events, EventNode{Name: e.name, Time: e.time, Attrs: attrMap(e.attrs)})
		}
		nodes[s.id] = n
		if p, ok := nodes[s.parent]; s.parent != 0 && ok {
			p.Children = append(p.Children, n)
		} else {
			tree.Spans = append(tree.Spans, n)
		}
	}
	return tree
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// Walk visits every node of the tree depth-first in start order,
// calling fn with the node and its depth. Nil-safe.
func (tr *Tree) Walk(fn func(n *Node, depth int)) {
	if tr == nil {
		return
	}
	var rec func(ns []*Node, depth int)
	rec = func(ns []*Node, depth int) {
		for _, n := range ns {
			fn(n, depth)
			rec(n.Children, depth+1)
		}
	}
	rec(tr.Spans, 0)
}

// StageSpans is a job's stage record. It adapts the pipeline's
// stage-progress event stream into spans and keeps every stage's
// furthest progress fraction in first-seen order, so one clock — the
// span's start and end — times each stage for the trace, the job view
// and the stage histogram alike. The first sighting of a stage opens
// its span (already closed, zero-length, when that first event reports
// completion); a fraction ≥ 1 closes it. Nesting follows the
// slash-path convention of pipeline.Run.Sub — a stage whose name
// extends an open stage's name with "/" becomes its child, so
// "algorithm1/moment-fit" parents "algorithm1/moment-fit/kronmom".
// A start event (fraction 0) for a stage whose span already closed is
// that stage's next run, recorded as a new span and a new entry: a
// figure computes the same statistics on several graphs.
type StageSpans struct {
	t      *Tracer
	parent *Span
	attrs  []Attr
	mu     sync.Mutex
	stages []*stageRecord // first-seen order
}

type stageRecord struct {
	name string
	frac float64
	span *Span
	open bool
}

// Stage is one stage's record: its furthest progress fraction and its
// span's duration, exactly as Tree reports it (final once the span is
// closed, up to the snapshot while it is open). It is also the stage
// entry of the server's job view, in this JSON form.
type Stage struct {
	Name    string  `json:"stage"`
	Frac    float64 `json:"frac"`
	Seconds float64 `json:"seconds,omitempty"`
}

// StageSpans builds a stage record rooted at parent; attrs are stamped
// on every stage span (the server records the worker count here).
// Nil-safe: a nil tracer yields a nil record whose methods no-op.
func (t *Tracer) StageSpans(parent *Span, attrs ...Attr) *StageSpans {
	if t == nil {
		return nil
	}
	return &StageSpans{t: t, parent: parent, attrs: attrs}
}

// Observe feeds one pipeline event (stage path, progress fraction).
// When the event closes the stage's span it returns the span's
// duration and true; a stage already closed stays closed.
func (ss *StageSpans) Observe(stage string, frac float64) (seconds float64, closed bool) {
	if ss == nil || stage == "" {
		return 0, false
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var rec *stageRecord
	for i := len(ss.stages) - 1; i >= 0; i-- {
		if ss.stages[i].name == stage {
			rec = ss.stages[i]
			break
		}
	}
	first := rec == nil || (!rec.open && frac <= 0)
	if first {
		parent := ss.parent
		// Deepest open stage whose path prefixes this one is the parent.
		best := -1
		for _, r := range ss.stages {
			if r.open && len(r.name) > best && len(stage) > len(r.name) && stage[:len(r.name)+1] == r.name+"/" {
				best = len(r.name)
				parent = r.span
			}
		}
		rec = &stageRecord{name: stage, frac: frac, span: ss.t.Start(parent, stage, ss.attrs...), open: true}
		ss.stages = append(ss.stages, rec)
	}
	rec.frac = max(rec.frac, frac)
	if frac < 1 || !rec.open {
		return 0, false
	}
	rec.open = false
	// A stage whose first event reports completion is zero-length.
	return rec.span.close(first), true
}

// Stages snapshots the record in first-seen order. Nil-safe.
func (ss *StageSpans) Stages() []Stage {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.t.mu.Lock()
	defer ss.t.mu.Unlock()
	now := ss.t.now()
	out := make([]Stage, len(ss.stages))
	for i, r := range ss.stages {
		secs, _ := r.span.seconds(now)
		out[i] = Stage{Name: r.name, Frac: r.frac, Seconds: secs}
	}
	return out
}

// Close ends any stage spans left open (failed or cancelled runs).
func (ss *StageSpans) Close() {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	// Deterministic close order for stable snapshots.
	var open []*stageRecord
	for _, r := range ss.stages {
		if r.open {
			open = append(open, r)
		}
	}
	sort.Slice(open, func(a, b int) bool { return open[a].name < open[b].name })
	for _, r := range open {
		r.span.End()
		r.open = false
	}
}
