package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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
			if err := Run(ctx, workers, 100, func(s int) error { sum.Add(int64(s)); return nil }); err != nil {
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
		err := Run(cancelledCtx(), workers, 1000, func(int) error { ran.Add(1); return nil })
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
	err := Run(ctx, 4, 10000, func(s int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
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
	if err := RunIndexed(cancelledCtx(), 4, 100, func(w, s int) error { ran.Add(1); return nil }); err != context.Canceled {
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
		RunIndexed(context.Background(), 4, shards, func(_, s int) error {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			ran.Add(1)
			if s == 3 {
				close(release)
				panicInShard()
			}
			<-release
			return nil
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
		Run(nil, 2, 4, func(int) error {
			return Run(nil, 2, 4, func(s int) error {
				if s == 1 {
					panicInShard()
				}
				return nil
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

// TestRunLowestIndexErrorWins: with two failing shards the pool returns
// the lower index's error at every worker count, though the higher one
// fails first in time, and every shard still runs.
func TestRunLowestIndexErrorWins(t *testing.T) {
	const shards = 100
	for _, workers := range []int{1, 2, 3, 8} {
		var ran atomic.Int64
		err := Run(nil, workers, shards, func(s int) error {
			ran.Add(1)
			switch s {
			case 7:
				time.Sleep(5 * time.Millisecond)
				return fmt.Errorf("shard %d failed", s)
			case 23:
				return fmt.Errorf("shard %d failed", s)
			}
			return nil
		})
		if err == nil || err.Error() != "shard 7 failed" {
			t.Errorf("workers=%d: err = %v, want shard 7's", workers, err)
		}
		if n := ran.Load(); n != shards {
			t.Errorf("workers=%d: %d of %d shards ran", workers, n, shards)
		}
	}
}

// TestRunCancellationBeatsShardError: a shard fails, a later one
// cancels the context, and the pool, which sees the cancellation
// before the next shard, returns the context's error.
func TestRunCancellationBeatsShardError(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		err := RunIndexed(ctx, workers, 1000, func(_, s int) error {
			switch s {
			case 2:
				return errors.New("shard 2 failed")
			case 5:
				cancel()
			}
			return nil
		})
		cancel()
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want Canceled", workers, err)
		}
	}
}

// TestRunNestedPoolErrors: an outer shard returns its inner pool's
// error, so the outer pool returns the inner error of its lowest failed
// shard.
func TestRunNestedPoolErrors(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		err := Run(nil, workers, 6, func(outer int) error {
			return Run(nil, workers, 10, func(inner int) error {
				if outer%2 == 0 && outer > 0 && inner >= 4 {
					return fmt.Errorf("outer %d inner %d", outer, inner)
				}
				return nil
			})
		})
		if err == nil || err.Error() != "outer 2 inner 4" {
			t.Errorf("workers=%d: err = %v, want outer 2 inner 4", workers, err)
		}
	}
}
