package trace

import (
	"sync"
	"testing"
	"time"
)

// fixedClock yields deterministic, strictly increasing timestamps.
func fixedClock() func() time.Time {
	t := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestNilTracerAndSpanNoOp(t *testing.T) {
	var tr *Tracer
	if got := tr.TraceID(); got != "" {
		t.Fatalf("nil tracer TraceID = %q", got)
	}
	sp := tr.Start(nil, "root")
	if sp != nil {
		t.Fatalf("nil tracer Start returned non-nil span")
	}
	// Every method on the nil span must be a no-op, not a panic.
	sp.SetAttr(String("k", "v"))
	sp.Event("e", Int("n", 1))
	child := sp.Child("child")
	if child != nil {
		t.Fatalf("nil span Child returned non-nil")
	}
	sp.End()
	if tr.Tree() != nil {
		t.Fatalf("nil tracer Tree returned non-nil")
	}
	ss := tr.StageSpans(nil)
	if ss != nil {
		t.Fatalf("nil tracer StageSpans returned non-nil")
	}
	ss.Observe("stage", 0)
	ss.Close()
	tr.WithClock(time.Now)
}

func TestSpanTree(t *testing.T) {
	tr := New(Context{}).WithClock(fixedClock())
	if !hexID(tr.TraceID(), 32) {
		t.Fatalf("generated trace id %q is not 32 hex digits", tr.TraceID())
	}
	root := tr.Start(nil, "job", String("kind", "fit/private"))
	adm := root.Child("admission")
	adm.Child("ledger-debit").End()
	adm.End()
	run := root.Child("run", Int("workers", 4))
	run.Event("audit", Float("eps", 0.25))
	run.End()
	root.End()

	tree := tr.Tree()
	if len(tree.Spans) != 1 {
		t.Fatalf("want 1 root span, got %d", len(tree.Spans))
	}
	r := tree.Spans[0]
	if r.Name != "job" || r.Attrs["kind"] != "fit/private" || r.Open {
		t.Fatalf("root span = %+v", r)
	}
	if len(r.Children) != 2 || r.Children[0].Name != "admission" || r.Children[1].Name != "run" {
		t.Fatalf("root children = %+v", r.Children)
	}
	if len(r.Children[0].Children) != 1 || r.Children[0].Children[0].Name != "ledger-debit" {
		t.Fatalf("admission children = %+v", r.Children[0].Children)
	}
	ev := r.Children[1].Events
	if len(ev) != 1 || ev[0].Name != "audit" || ev[0].Attrs["eps"] != "0.25" {
		t.Fatalf("run events = %+v", ev)
	}
	if r.Seconds <= 0 {
		t.Fatalf("root span has no duration: %v", r.Seconds)
	}
	var count int
	tree.Walk(func(n *Node, depth int) { count++ })
	if count != 4 {
		t.Fatalf("Walk visited %d nodes, want 4", count)
	}
}

func TestTracerAdoptsIncomingContext(t *testing.T) {
	in := Context{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7", Flags: 1}
	tr := New(in)
	if tr.TraceID() != in.TraceID {
		t.Fatalf("tracer did not adopt incoming trace id: %q", tr.TraceID())
	}
	tree := tr.Tree()
	if tree.RemoteParent != in.SpanID {
		t.Fatalf("remote parent = %q, want %q", tree.RemoteParent, in.SpanID)
	}
}

func TestOpenSpanSnapshot(t *testing.T) {
	tr := New(Context{}).WithClock(fixedClock())
	sp := tr.Start(nil, "running")
	tree := tr.Tree()
	if !tree.Spans[0].Open || tree.Spans[0].Seconds <= 0 {
		t.Fatalf("open span snapshot = %+v", tree.Spans[0])
	}
	sp.End()
	sp.End() // second End keeps the first end time
	secs := tr.Tree().Spans[0].Seconds
	if tr.Tree().Spans[0].Seconds != secs {
		t.Fatalf("End not idempotent")
	}
}

func TestStageSpansNesting(t *testing.T) {
	tr := New(Context{}).WithClock(fixedClock())
	root := tr.Start(nil, "run")
	ss := tr.StageSpans(root, Int("workers", 3))
	// The serving pipeline's real stage order, including the nested
	// moment-fit/kronmom pair.
	ss.Observe("algorithm1/degree-release", 0)
	ss.Observe("algorithm1/degree-release", 1)
	ss.Observe("algorithm1/moment-fit", 0)
	ss.Observe("algorithm1/moment-fit/kronmom", 0)
	ss.Observe("algorithm1/moment-fit/kronmom", 0.5)
	ss.Observe("algorithm1/moment-fit/kronmom", 1)
	ss.Observe("algorithm1/moment-fit", 1)
	root.End()

	r := tr.Tree().Spans[0]
	if len(r.Children) != 2 {
		t.Fatalf("want 2 stage spans under run, got %d", len(r.Children))
	}
	mf := r.Children[1]
	if mf.Name != "algorithm1/moment-fit" || len(mf.Children) != 1 ||
		mf.Children[0].Name != "algorithm1/moment-fit/kronmom" {
		t.Fatalf("moment-fit subtree = %+v", mf)
	}
	if mf.Attrs["workers"] != "3" {
		t.Fatalf("stage span missing worker attr: %+v", mf.Attrs)
	}
	if mf.Open || mf.Children[0].Open {
		t.Fatalf("stage spans not closed")
	}
}

func TestStageSpansCloseEndsOpen(t *testing.T) {
	tr := New(Context{})
	ss := tr.StageSpans(nil)
	ss.Observe("a", 0)
	ss.Observe("a/b", 0)
	ss.Close()
	for _, n := range tr.Tree().Spans {
		if n.Open {
			t.Fatalf("span %q left open after Close", n.Name)
		}
	}
	// A done event for an unseen stage records a closed, zero-length
	// span and leaves nothing open.
	if secs, closed := ss.Observe("never-started", 1); !closed || secs != 0 {
		t.Fatalf("first-event completion = (%g, %v), want (0, true)", secs, closed)
	}
	roots := tr.Tree().Spans
	if len(roots) != 2 || roots[1].Name != "never-started" || roots[1].Open || roots[1].Seconds != 0 {
		t.Fatalf("first-event completion spans = %+v", roots)
	}
}

// TestStageRecord: the stage record lists stages in first-seen
// order with their furthest fraction, times each from its span, and
// reports a stage's duration exactly once — on the event that closes
// it.
func TestStageRecord(t *testing.T) {
	tr := New(Context{}).WithClock(fixedClock())
	ss := tr.StageSpans(nil)
	ss.Observe("a", 0)
	ss.Observe("b", 0)
	ss.Observe("a", 0.5)
	if _, closed := ss.Observe("a", 0.25); closed {
		t.Fatal("a progress event closed its stage")
	}
	secs, closed := ss.Observe("a", 1)
	if !closed || secs <= 0 {
		t.Fatalf("closing a = (%g, %v)", secs, closed)
	}
	if _, again := ss.Observe("a", 1); again {
		t.Fatal("a second done event closed the stage again")
	}
	got := ss.Stages()
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("stages = %+v, want a then b", got)
	}
	if got[0].Frac != 1 || got[1].Frac != 0 {
		t.Fatalf("fractions = %g, %g", got[0].Frac, got[1].Frac)
	}
	tree := tr.Tree()
	if got[0].Seconds != secs || tree.Spans[0].Seconds != secs {
		t.Fatalf("a took %g in the record, %g in the tree, %g when closed", got[0].Seconds, tree.Spans[0].Seconds, secs)
	}
	if !tree.Spans[1].Open || got[1].Seconds <= 0 {
		t.Fatalf("open stage b: span %+v, record %+v", tree.Spans[1], got[1])
	}
}

func TestTracerConcurrency(t *testing.T) {
	tr := New(Context{})
	root := tr.Start(nil, "root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := root.Child("work")
				sp.Event("tick", Int("j", j))
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	tree := tr.Tree()
	if len(tree.Spans[0].Children) != 8*50 {
		t.Fatalf("lost spans under concurrency: %d", len(tree.Spans[0].Children))
	}
}
