package parallel

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	for _, ctx := range []context.Context{nil, context.Background()} {
		for _, workers := range []int{1, 4} {
			var sum atomic.Int64
			if err := Run(ctx, workers, 100, func(s int) { sum.Add(int64(s)) }); err != nil {
				t.Fatal(err)
			}
			if sum.Load() != 4950 {
				t.Errorf("ctx=%v workers=%d: sum = %d, want 4950", ctx, workers, sum.Load())
			}
		}
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ran := atomic.Int64{}
		err := Run(cancelledCtx(), workers, 1000, func(int) { ran.Add(1) })
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d shards ran on a pre-cancelled ctx", workers, ran.Load())
		}
	}
}

func TestRunCtxMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Run(ctx, 4, 10000, func(s int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if n := ran.Load(); n >= 10000 {
		t.Errorf("all %d shards ran despite cancellation", n)
	}
}

func TestRunIndexedCtxPreCancelled(t *testing.T) {
	var ran atomic.Int64
	if err := RunIndexed(cancelledCtx(), 4, 100, func(w, s int) { ran.Add(1) }); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d shards ran", ran.Load())
	}
}

func TestReductionCtxVariantsMatchPlain(t *testing.T) {
	n := 10000
	fI := func(lo, hi int) int64 { return int64(hi - lo) }
	fF := func(lo, hi int) float64 { return float64(hi-lo) * 1.5 }
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	for _, workers := range []int{1, 4} {
		si, err := SumInt64(live, workers, n, fI)
		if plain, _ := SumInt64(nil, workers, n, fI); err != nil || si != plain {
			t.Errorf("SumInt64 live ctx = %d, %v; nil ctx = %d", si, err, plain)
		}
		sf, err := SumFloat64(live, workers, n, fF)
		if plain, _ := SumFloat64(nil, workers, n, fF); err != nil || sf != plain {
			t.Errorf("SumFloat64 live ctx = %v, %v; nil ctx = %v", sf, err, plain)
		}
	}
	if _, err := SumInt64(cancelledCtx(), 2, n, fI); err != context.Canceled {
		t.Errorf("SumInt64 pre-cancelled err = %v", err)
	}
	if _, err := SumFloat64(cancelledCtx(), 2, n, fF); err != context.Canceled {
		t.Errorf("SumFloat64 pre-cancelled err = %v", err)
	}
	if err := ForBlocks(cancelledCtx(), 2, n, func(s, lo, hi int) {}); err != context.Canceled {
		t.Errorf("ForBlocks pre-cancelled err = %v", err)
	}
}

func TestSortInt64CtxMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	for _, n := range []int{0, 10, 1000, 1 << 16} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63()
		}
		want := append([]int64(nil), keys...)
		SortInt64(nil, 2, want, nil)

		got := append([]int64(nil), keys...)
		if _, err := SortInt64(live, 2, got, nil); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: ctx sort diverged", n)
		}
		// Serial ctx path too.
		got2 := append([]int64(nil), keys...)
		if _, err := SortInt64(live, 1, got2, nil); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got2, want) {
			t.Fatalf("n=%d: serial ctx sort diverged", n)
		}
	}
}

func TestSortInt64CtxPreCancelled(t *testing.T) {
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = int64(len(keys) - i)
	}
	if _, err := SortInt64(cancelledCtx(), 4, keys, nil); err != context.Canceled {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestRunIndexedWorkerPanic: a panic on a pool goroutine reaches the
// caller as a *WorkerPanic with the value and the worker's stack, only
// after the other workers have left their shards, and no shard is
// handed out after it.
func TestRunIndexedWorkerPanic(t *testing.T) {
	const shards = 10000
	var inFlight, ran atomic.Int64
	release := make(chan struct{})
	recovered := func() (v any) {
		defer func() { v = recover() }()
		RunIndexed(context.Background(), 4, shards, func(_, s int) {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			ran.Add(1)
			if s == 3 {
				close(release)
				panicInShard()
			}
			<-release
		})
		return nil
	}()
	p, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T %v, want *WorkerPanic", recovered, recovered)
	}
	if p.Value != "shard exploded" || !strings.Contains(string(p.Stack), "panicInShard") {
		t.Fatalf("WorkerPanic value %v, stack:\n%s", p.Value, p.Stack)
	}
	// Unrecovered, the runtime prints String: the value and the stack.
	if s := p.String(); !strings.HasPrefix(s, "shard exploded") || !strings.Contains(s, "panicInShard") {
		t.Fatalf("WorkerPanic.String() = %q", s)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d shards still running when the panic reached the caller", n)
	}
	if n := ran.Load(); n >= shards {
		t.Fatalf("all %d shards ran after a worker panicked", n)
	}
	// A nested pool's panic keeps its innermost stack.
	recovered = func() (v any) {
		defer func() { v = recover() }()
		Run(nil, 2, 4, func(int) {
			Run(nil, 2, 4, func(s int) {
				if s == 1 {
					panicInShard()
				}
			})
		})
		return nil
	}()
	if p, ok := recovered.(*WorkerPanic); !ok || !strings.Contains(string(p.Stack), "panicInShard") {
		t.Fatalf("nested panic recovered as %T %v", recovered, recovered)
	}
}

//go:noinline
func panicInShard() { panic("shard exploded") }
