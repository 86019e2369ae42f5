package pipeline

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestNilRunBehavesAsBackground(t *testing.T) {
	var r *Run
	if r.Err() != nil {
		t.Errorf("nil run Err = %v", r.Err())
	}
	if r.Context() == nil {
		t.Error("nil run has nil context")
	}
	if r.Workers() < 1 {
		t.Errorf("nil run workers = %d", r.Workers())
	}
	// Emission paths must not panic on a nil run.
	done := r.Stage("x")
	done()
	r.Progress("x", 0.5)
	if sub := r.Sub("p"); sub != nil {
		t.Errorf("nil run Sub = %v, want nil", sub)
	}
	if w := r.WithWorkers(3); w.Workers() != 3 {
		t.Errorf("nil run WithWorkers(3).Workers() = %d", w.Workers())
	}
}

func TestNewNormalizesWorkers(t *testing.T) {
	if got := New(nil, 0, nil).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := New(nil, 5, nil).Workers(); got != 5 {
		t.Errorf("workers(5) = %d", got)
	}
	if got := New(nil, -2, nil).Workers(); got < 1 {
		t.Errorf("workers(-2) = %d", got)
	}
}

func TestStageAndProgressEvents(t *testing.T) {
	var got []Event
	r := New(nil, 1, func(e Event) { got = append(got, e) })
	done := r.Stage("fit")
	r.Progress("fit", 0.5)
	r.Progress("fit", -3) // clamped to 0
	r.Progress("fit", 7)  // clamped to 1
	done()
	want := []Event{{"fit", 0}, {"fit", 0.5}, {"fit", 0}, {"fit", 1}, {"fit", 1}}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
	if !got[len(got)-1].Done() {
		t.Error("final event should report Done")
	}
}

func TestSubPrefixesStages(t *testing.T) {
	var got []string
	r := New(nil, 1, func(e Event) { got = append(got, e.Stage) })
	inner := r.Sub("algorithm1").Sub("moment-fit")
	inner.Stage("kronmom")()
	if len(got) != 2 || got[0] != "algorithm1/moment-fit/kronmom" {
		t.Fatalf("stages = %v", got)
	}
	// A sink-less run's Sub is a no-op passthrough.
	if q := New(nil, 1, nil); q.Sub("x") != q {
		t.Error("Sub on sink-less run should return the same run")
	}
}

func TestSinkSerializedAcrossGoroutines(t *testing.T) {
	count := 0
	r := New(nil, 4, func(Event) { count++ }) // data race here would trip -race
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Progress("p", 0.5)
			}
		}()
	}
	wg.Wait()
	if count != 800 {
		t.Errorf("sink saw %d events, want 800", count)
	}
}

func TestWithWorkersSharesContextAndSink(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events int
	r := New(ctx, 4, func(Event) { events++ })
	w := r.WithWorkers(1)
	if w.Workers() != 1 {
		t.Errorf("WithWorkers(1).Workers() = %d", w.Workers())
	}
	if w.Context() != ctx {
		t.Error("WithWorkers must share the context")
	}
	w.Progress("p", 0.25)
	if events != 1 {
		t.Error("WithWorkers must share the sink")
	}
	cancel()
	if w.Err() == nil || r.Err() == nil {
		t.Error("cancellation must propagate to both runs")
	}
}

func TestWithTimeout(t *testing.T) {
	r, cancel := WithTimeout(nil, time.Nanosecond, 1, nil)
	defer cancel()
	deadline, ok := r.Context().Deadline()
	if !ok {
		t.Fatal("no deadline attached")
	}
	if time.Until(deadline) > time.Second {
		t.Errorf("deadline %v too far out", deadline)
	}
	// Zero timeout means no deadline.
	r2, cancel2 := WithTimeout(nil, 0, 1, nil)
	defer cancel2()
	if _, ok := r2.Context().Deadline(); ok {
		t.Error("unexpected deadline for d = 0")
	}
}

// TestCounterRisesOncePerPercent ticks a Counter from 8 goroutines: the
// stage's events rise, end at 1 and come at most once per whole
// percent; below 100 units every unit reports. A sink-less run's
// Counter is a no-op.
func TestCounterRisesOncePerPercent(t *testing.T) {
	for _, total := range []int{7, 100, 1000, 4099} {
		var fracs []float64
		r := New(nil, 8, func(e Event) { fracs = append(fracs, e.Frac) })
		tick := r.Sub("outer").Counter("c", total)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < total; i += 8 {
					tick()
				}
			}(g)
		}
		wg.Wait()
		if want := min(total, 100); len(fracs) != want {
			t.Fatalf("total %d: %d events, want %d", total, len(fracs), want)
		}
		for i, f := range fracs {
			if f <= 0 || i > 0 && f <= fracs[i-1] {
				t.Fatalf("total %d: events %v do not rise", total, fracs)
			}
		}
		if last := fracs[len(fracs)-1]; last != 1 {
			t.Fatalf("total %d: last event %v, want 1", total, last)
		}
	}
	New(nil, 1, nil).Counter("c", 10)() // no sink: nothing to report
	var nilRun *Run
	nilRun.Counter("c", 10)()
}
