package bench

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestClosedLoopMinOps: a run starts its fewest operations even after
// the measured phase has ended, and no more.
func TestClosedLoopMinOps(t *testing.T) {
	for _, clients := range []int{1, 2} {
		var n atomic.Int64
		closedLoop(clients, 5, 0, func(int) { n.Add(1) })
		if n.Load() != 5 {
			t.Errorf("%d clients: %d operations, want 5", clients, n.Load())
		}
	}
	var n atomic.Int64
	closedLoop(2, 1, 20*time.Millisecond, func(int) {
		n.Add(1)
		time.Sleep(time.Millisecond)
	})
	if n.Load() < 5 {
		t.Errorf("%d operations in a 20 ms phase of 1 ms operations", n.Load())
	}
}

func TestSamplesKeepOrder(t *testing.T) {
	var s samples
	for i := 0; i < 10000; i++ {
		s.add(float64(i))
	}
	all := s.all()
	if len(all) != 10000 {
		t.Fatalf("%d samples, want 10000", len(all))
	}
	for i, x := range all {
		if x != float64(i) {
			t.Fatalf("sample %d is %v", i, x)
		}
	}
}
