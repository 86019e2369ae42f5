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
// Integer reductions (SumInt64) are associative and would be
// deterministic under any partition; they use the same fixed sharding
// for uniformity.
//
// Every pool helper takes a context that is checked between shards
// (and, in the radix sort, between passes) — never inside the per-key
// loops — so a live context costs one Err() call per shard. A nil
// context means the work cannot be cancelled.
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

// Len returns Hi - Lo.
func (b Block) Len() int { return b.Hi - b.Lo }

// Blocks splits [0, n) into at most count contiguous, near-equal,
// non-empty blocks. The boundaries depend only on n and count.
func Blocks(n, count int) []Block {
	if n <= 0 || count <= 0 {
		return nil
	}
	if count > n {
		count = n
	}
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
	if int64(count) > total {
		count = int(total)
	}
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
// workers goroutines with dynamic (work-stealing counter) scheduling.
// Shards may run concurrently and in any order; fn must tolerate that.
// With workers <= 1 (or a single shard) everything runs on the calling
// goroutine, which is the serial baseline the benchmarks compare
// against.
//
// Cancellation is cooperative and shard-grained: workers check ctx
// between shards (never inside fn), and a nil ctx means the pool cannot
// be cancelled. Run returns nil after every shard executed, or
// ctx.Err() if cancellation was observed before some claimed shard ran
// (that shard and any unclaimed ones are skipped). A run that returns
// nil executed exactly the fixed shard set, so its result is
// bit-identical for every worker count; the partial output of a
// cancelled run must be discarded.
func Run(ctx context.Context, workers, shards int, fn func(shard int)) error {
	return RunIndexed(ctx, workers, shards, func(_, s int) { fn(s) })
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
func RunIndexed(ctx context.Context, workers, shards int, fn func(worker, shard int)) error {
	if shards <= 0 {
		return ctxErr(ctx)
	}
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			fn(0, s)
		}
		return nil
	}
	var next atomic.Int64
	var aborted atomic.Bool
	var panicked atomic.Pointer[WorkerPanic]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					p, ok := v.(*WorkerPanic) // a nested pool's, with its own stack
					if !ok {
						p = &WorkerPanic{Value: v, Stack: debug.Stack()}
					}
					panicked.CompareAndSwap(nil, p)
				}
			}()
			for panicked.Load() == nil {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				if ctxErr(ctx) != nil {
					aborted.Store(true)
					return
				}
				fn(worker, s)
			}
		}(w)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	if aborted.Load() {
		return ctx.Err()
	}
	return nil
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
	return Run(ctx, workers, len(blocks), func(s int) { fn(s, blocks[s].Lo, blocks[s].Hi) })
}

// SumInt64 reduces fn over the fixed DefaultShards-way split of [0, n),
// with the cancellation contract of Run (the partial sum of a cancelled
// run is not returned). Integer addition is associative, so the result
// equals the serial sum for every worker count.
func SumInt64(ctx context.Context, workers, n int, fn func(lo, hi int) int64) (int64, error) {
	blocks := Blocks(n, DefaultShards)
	part := make([]int64, len(blocks))
	if err := Run(ctx, workers, len(blocks), func(s int) { part[s] = fn(blocks[s].Lo, blocks[s].Hi) }); err != nil {
		return 0, err
	}
	var total int64
	for _, p := range part {
		total += p
	}
	return total, nil
}

// SumFloat64 reduces fn over the fixed DefaultShards-way split of
// [0, n), combining the per-shard partials in shard order, with the
// cancellation contract of Run. Because the shard boundaries depend
// only on n and the reduction order is fixed, the (non-associative)
// floating-point result is bit-identical for every worker count —
// including workers = 1.
func SumFloat64(ctx context.Context, workers, n int, fn func(lo, hi int) float64) (float64, error) {
	blocks := Blocks(n, DefaultShards)
	part := make([]float64, len(blocks))
	if err := Run(ctx, workers, len(blocks), func(s int) { part[s] = fn(blocks[s].Lo, blocks[s].Hi) }); err != nil {
		return 0, err
	}
	total := 0.0
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
