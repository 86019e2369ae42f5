// Package parallel is the concurrency substrate of the module: a
// bounded worker pool with dynamic shard scheduling, deterministic
// work partitioning, and per-shard random streams derived from randx.
//
// Every helper is designed so that the result of a computation is
// bit-identical for every worker count, which is what lets the hot
// paths (SKG sampling, feature counting, ANF propagation, the moment
// and likelihood estimators) run on all cores while seeded experiments
// stay exactly reproducible. Two rules achieve this:
//
//   - Work is split into a fixed number of shards that depends only on
//     the problem size, never on the worker count. Workers pull shards
//     dynamically, so any number of goroutines executes the same shard
//     set.
//   - Order-sensitive state is attached to shards, not workers:
//     per-shard RNG streams are derived serially up front (Streams),
//     and floating-point reductions combine per-shard partials in
//     shard order (SumFloat64), so neither scheduling nor associativity
//     can perturb the outcome.
//
// Every fan-out goes through one pool, RunIndexed (Run drops the worker
// index), under one contract. A shard returns an error, and a failed
// shard does not stop the others. The pool checks its context between
// shards (and the radix sort between passes), never inside the per-key
// loops, so a live context costs one Err() call per shard; a nil
// context cannot be cancelled. A shard that stops early because it saw
// the context done returns ctx.Err(). The pool returns the context's
// error if it saw a cancellation, and otherwise the error of the
// lowest-indexed failed shard, which is the same error for every worker
// count. A caller needs no check of its own after the fan-out, and
// discards the partial output of a run that returned an error.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"dpkron/internal/randx"
)

// DefaultShards is the fixed shard count used by the block helpers.
// It is independent of the worker count — a prerequisite for
// determinism (see the package comment) — and large enough to keep the
// pool load-balanced: with dynamic scheduling, 64 shards keep up to
// ~16 workers busy even when per-shard cost varies by a factor of a
// few, while bounding per-shard bookkeeping (RNG derivation, partial
// buffers) to a constant.
const DefaultShards = 64

// Normalize resolves a worker-count option: values <= 0 select
// runtime.GOMAXPROCS(0), i.e. "use the hardware". It is the single
// defaulting rule for pipeline.Run worker budgets and the server's
// Workers setting.
func Normalize(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Block is a contiguous index range [Lo, Hi).
type Block struct{ Lo, Hi int }

// Blocks splits [0, n) into at most count contiguous, near-equal,
// non-empty blocks. The boundaries depend only on n and count.
func Blocks(n, count int) []Block {
	if n <= 0 || count <= 0 {
		return nil
	}
	count = min(count, n)
	out := make([]Block, count)
	for i := 0; i < count; i++ {
		out[i] = Block{Lo: i * n / count, Hi: (i + 1) * n / count}
	}
	return out
}

// PairBlocks splits the row range [0, n) of a lower-triangular pair
// loop — row u visits the u pairs (u, v), v < u — into at most count
// contiguous blocks of approximately equal pair mass, so a block near
// the top of the triangle spans many more rows than one near the
// bottom. The boundaries depend only on n and count.
func PairBlocks(n, count int) []Block {
	if n <= 0 || count <= 0 {
		return nil
	}
	total := int64(n) * int64(n-1) / 2
	if total == 0 {
		return []Block{{Lo: 0, Hi: n}}
	}
	count = int(min(int64(count), total))
	pairsBelow := func(u int) int64 { return int64(u) * int64(u-1) / 2 }
	out := make([]Block, 0, count)
	lo := 0
	for i := 1; i <= count; i++ {
		want := total * int64(i) / int64(count)
		// Smallest hi with pairsBelow(hi) >= want.
		a, b := lo, n
		for a < b {
			mid := (a + b) / 2
			if pairsBelow(mid) < want {
				a = mid + 1
			} else {
				b = mid
			}
		}
		hi := a
		if i == count {
			hi = n
		}
		if hi > lo {
			out = append(out, Block{Lo: lo, Hi: hi})
			lo = hi
		}
	}
	return out
}

// Run executes fn(shard) for every shard in [0, shards) on up to
// workers goroutines with dynamic (work-stealing counter) scheduling,
// under the contract of the package comment. Shards may run
// concurrently and in any order; fn must tolerate that. With workers
// <= 1 (or a single shard) everything runs on the calling goroutine,
// which is the serial baseline the benchmarks compare against. A run
// that returns nil executed exactly the fixed shard set, so its result
// is bit-identical for every worker count.
func Run(ctx context.Context, workers, shards int, fn func(shard int) error) error {
	return RunIndexed(ctx, workers, shards, func(_, s int) error { return fn(s) })
}

// RunIndexed is Run with the executing worker's index (in [0, workers))
// passed to fn alongside the shard. It exists for commutative
// reductions that want dynamic shard balancing but per-worker
// accumulators or scratch buffers: allocate `workers` buffers, let any
// worker process any shard, and merge afterwards. Only reductions that
// are invariant to shard→worker assignment (integer sums, maxima)
// should use it; order-sensitive reductions belong on the per-shard
// helpers.
//
// A panic in fn on a pool goroutine does not take the process down
// from there: the pool recovers it, stops handing out shards, waits for
// the other workers to finish the shards they hold, and then panics in
// the caller's goroutine with a *WorkerPanic that carries the value and
// the worker's stack. A caller that recovers it (the server's job
// goroutine does) can fail one operation and keep running.
func RunIndexed(ctx context.Context, workers, shards int, fn func(worker, shard int) error) error {
	if shards <= 0 {
		return ctxErr(ctx)
	}
	var next atomic.Int64
	var aborted atomic.Bool
	var panicked atomic.Pointer[WorkerPanic]
	var mu sync.Mutex
	failed, firstErr := shards, error(nil) // the lowest failed shard and its error
	work := func(worker int) {
		for panicked.Load() == nil {
			s := int(next.Add(1)) - 1
			if s >= shards {
				return
			}
			if ctxErr(ctx) != nil {
				aborted.Store(true)
				return
			}
			if err := fn(worker, s); err != nil {
				mu.Lock()
				if s < failed {
					failed, firstErr = s, err
				}
				mu.Unlock()
			}
		}
	}
	if workers = min(workers, shards); workers <= 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(worker int) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						p, ok := v.(*WorkerPanic) // a nested pool's, with its own stack
						if !ok {
							p = &WorkerPanic{Value: v}
						}
						// Publish before the slow stack capture, so the others
						// stop claiming shards; the caller reads it after Wait.
						if panicked.CompareAndSwap(nil, p) && !ok {
							p.Stack = debug.Stack()
						}
					}
				}()
				work(worker)
			}(w)
		}
		wg.Wait()
		if p := panicked.Load(); p != nil {
			panic(p)
		}
	}
	if aborted.Load() {
		return ctx.Err()
	}
	return firstErr
}

// WorkerPanic is what RunIndexed panics with in the caller's goroutine
// when fn panicked on a pool goroutine: the recovered value and the
// stack of the goroutine it was raised on.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// String gives the value and the worker's stack, which is what the
// runtime prints if nothing recovers the panic.
func (p *WorkerPanic) String() string {
	return fmt.Sprintf("%v [recovered from a parallel worker]\n\n%s", p.Value, p.Stack)
}

// ctxErr is ctx.Err() for a context that may be nil (never cancelled).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ForBlocks runs fn over the fixed DefaultShards-way split of [0, n)
// on up to workers goroutines, with the cancellation contract of Run.
// fn receives the shard index and its range; writes to disjoint ranges
// need no synchronization.
func ForBlocks(ctx context.Context, workers, n int, fn func(shard, lo, hi int)) error {
	blocks := Blocks(n, DefaultShards)
	return Run(ctx, workers, len(blocks), func(s int) error {
		fn(s, blocks[s].Lo, blocks[s].Hi)
		return nil
	})
}

// SumInt64 reduces fn over the fixed DefaultShards-way split of [0, n),
// with the cancellation contract of Run (the partial sum of a cancelled
// run is not returned). Integer addition is associative, so the result
// equals the serial sum for every worker count.
func SumInt64(ctx context.Context, workers, n int, fn func(lo, hi int) int64) (int64, error) {
	return sum(ctx, workers, n, fn)
}

// SumFloat64 reduces fn over the fixed DefaultShards-way split of
// [0, n), combining the per-shard partials in shard order, with the
// cancellation contract of Run. Because the shard boundaries depend
// only on n and the reduction order is fixed, the (non-associative)
// floating-point result is bit-identical for every worker count —
// including workers = 1.
func SumFloat64(ctx context.Context, workers, n int, fn func(lo, hi int) float64) (float64, error) {
	return sum(ctx, workers, n, fn)
}

// sum adds the per-shard partials of fn in shard order; the slots of
// shards beyond the split stay +0, which leaves every sum unchanged.
func sum[T int64 | float64](ctx context.Context, workers, n int, fn func(lo, hi int) T) (T, error) {
	part := make([]T, DefaultShards)
	if err := ForBlocks(ctx, workers, n, func(s, lo, hi int) { part[s] = fn(lo, hi) }); err != nil {
		return 0, err
	}
	var total T
	for _, p := range part {
		total += p
	}
	return total, nil
}

// Streams derives count independent random sub-streams from rng by
// drawing seeds serially, before any parallel work starts. Attaching
// one stream per shard (never per worker) keeps sampled output
// identical across worker counts. The parent rng advances by count
// draws.
func Streams(rng *randx.Rand, count int) []*randx.Rand {
	out := make([]*randx.Rand, count)
	for i := range out {
		out[i] = rng.Split()
	}
	return out
}
