package parallel

import (
	"sync/atomic"
	"testing"

	"dpkron/internal/randx"
)

func TestNormalizeResolution(t *testing.T) {
	if Normalize(4) != 4 {
		t.Fatal("explicit worker count not honoured")
	}
	if Normalize(0) < 1 || Normalize(-3) < 1 {
		t.Fatal("default worker count must be >= 1")
	}
}

func TestBlocksCoverAndPartition(t *testing.T) {
	for _, tc := range []struct{ n, count int }{
		{10, 3}, {1, 1}, {5, 64}, {64, 64}, {1000, 7}, {3, 1},
	} {
		blocks := Blocks(tc.n, tc.count)
		prev := 0
		for _, b := range blocks {
			if b.Lo != prev || b.Hi <= b.Lo {
				t.Fatalf("Blocks(%d,%d): bad block %+v after %d", tc.n, tc.count, b, prev)
			}
			prev = b.Hi
		}
		if prev != tc.n {
			t.Fatalf("Blocks(%d,%d) cover ends at %d", tc.n, tc.count, prev)
		}
	}
	if Blocks(0, 4) != nil {
		t.Fatal("Blocks(0, _) should be nil")
	}
}

func TestPairBlocksBalanced(t *testing.T) {
	n, count := 4096, 16
	blocks := PairBlocks(n, count)
	prev := 0
	total := int64(n) * int64(n-1) / 2
	want := total / int64(count)
	for _, b := range blocks {
		if b.Lo != prev {
			t.Fatalf("gap before %+v", b)
		}
		prev = b.Hi
		pairs := int64(b.Hi)*int64(b.Hi-1)/2 - int64(b.Lo)*int64(b.Lo-1)/2
		// Balanced within 2x of the ideal share (boundaries are rows).
		if pairs > 2*want+int64(n) {
			t.Errorf("block %+v has %d pairs, ideal %d", b, pairs, want)
		}
	}
	if prev != n {
		t.Fatalf("cover ends at %d, want %d", prev, n)
	}
}

func TestPairBlocksTiny(t *testing.T) {
	for n := 1; n <= 5; n++ {
		blocks := PairBlocks(n, 64)
		last := 0
		for _, b := range blocks {
			if b.Lo != last {
				t.Fatalf("n=%d: gap at %+v", n, b)
			}
			last = b.Hi
		}
		if last != n {
			t.Fatalf("n=%d: cover ends at %d", n, last)
		}
	}
}

func TestRunVisitsEveryShardOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const shards = 37
		var hits [shards]atomic.Int32
		Run(nil, workers, shards, func(s int) error { hits[s].Add(1); return nil })
		for s := range hits {
			if hits[s].Load() != 1 {
				t.Fatalf("workers=%d: shard %d visited %d times", workers, s, hits[s].Load())
			}
		}
	}
}

func TestRunIndexedVisitsEveryShardWithValidWorker(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const shards = 29
		var hits [shards]atomic.Int32
		var badWorker atomic.Bool
		RunIndexed(nil, workers, shards, func(worker, s int) error {
			if worker < 0 || worker >= workers {
				badWorker.Store(true)
			}
			hits[s].Add(1)
			return nil
		})
		if badWorker.Load() {
			t.Fatalf("workers=%d: worker index out of range", workers)
		}
		for s := range hits {
			if hits[s].Load() != 1 {
				t.Fatalf("workers=%d: shard %d visited %d times", workers, s, hits[s].Load())
			}
		}
	}
}

func TestSumInt64MatchesSerial(t *testing.T) {
	n := 1000
	want := int64(n) * int64(n-1) / 2 // sum of 0..n-1
	for _, workers := range []int{1, 4, 8} {
		got, _ := SumInt64(nil, workers, n, func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			return s
		})
		if got != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got, want)
		}
	}
}

func TestSumFloat64WorkerInvariant(t *testing.T) {
	n := 997
	f := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += 1.0 / float64(i+1)
		}
		return s
	}
	base, _ := SumFloat64(nil, 1, n, f)
	for _, workers := range []int{2, 4, 8, 32} {
		if got, _ := SumFloat64(nil, workers, n, f); got != base {
			t.Fatalf("workers=%d: %v != %v (must be bit-identical)", workers, got, base)
		}
	}
}

func TestStreamsIndependentOfConsumption(t *testing.T) {
	// Streams derived from equal-seeded parents are identical, and
	// consuming one stream does not affect another.
	a := Streams(randx.New(5), 4)
	b := Streams(randx.New(5), 4)
	a[0].Float64() // consume
	for i := 1; i < 4; i++ {
		if a[i].Float64() != b[i].Float64() {
			t.Fatal("streams are not independent of sibling consumption")
		}
	}
}
