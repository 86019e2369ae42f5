package parallel

// Radix sorting for the packed int64 edge keys used throughout the
// module (graph.Builder pairs, skg ball-drop dedup). An LSD counting
// sort over 8-bit digits needs no comparator calls and runs in O(m) per
// pass, which beats comparison sorting by a wide margin on the
// million-key inputs the samplers produce; a bytewise OR/AND pre-pass
// skips the digits on which every key agrees (typically most of the
// high bytes, since node ids are far below 2^31).
//
// The parallel path shards each pass with the package's fixed-shard
// partition: per-shard histograms, a serial (digit, shard)-ordered
// prefix scan, and a scatter into precomputed disjoint offsets. The
// scatter is stable and its output depends only on the input, so — like
// every helper here — the result is identical for every worker count.

import "context"

const (
	radixBuckets = 256
	// radixSerialMin is the input size below which the sharded path's
	// histogram bookkeeping costs more than it saves; smaller inputs
	// sort serially even when more workers are available.
	radixSerialMin = 1 << 15
	// insertionMax is the input size below which a binary-insertion
	// pass beats any radix setup.
	insertionMax = 48
)

// SortInt64 sorts keys ascending in place. All keys must be
// non-negative (the packed-pair encodings used in this module always
// are; negative keys would order after positive ones). scratch is an
// optional reusable buffer: it is grown as needed and returned so
// callers with repeated sorts can avoid reallocating. The sorted result
// is identical for every worker count (workers <= 0 selects
// runtime.GOMAXPROCS(0)).
//
// ctx (nil means the sort cannot be cancelled) is checked before each
// radix pass, never inside the per-key loops. On cancellation the keys
// are left a partially sorted permutation of the input and ctx.Err()
// is returned; a nil error means keys is fully sorted.
func SortInt64(ctx context.Context, workers int, keys, scratch []int64) ([]int64, error) {
	n := len(keys)
	if cap(scratch) < n {
		scratch = make([]int64, n)
	}
	scratch = scratch[:n]
	if err := ctxErr(ctx); err != nil {
		return scratch, err
	}
	if n <= insertionMax {
		insertionSortInt64(keys)
		return scratch, nil
	}
	w := Normalize(workers)
	if w <= 1 || n < radixSerialMin {
		return scratch, radixSortSerial(ctx, keys, scratch)
	}
	return scratch, radixSortParallel(ctx, w, keys, scratch)
}

func insertionSortInt64(keys []int64) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = k
	}
}

// activeDigits returns a bitmask of the byte positions on which the
// keys differ: OR and AND aggree on a byte exactly when every key
// carries the same value there, and such digits can be skipped.
func activeDigits(or, and uint64) int {
	active := 0
	for d := 0; d < 8; d++ {
		if byte(or>>(8*uint(d))) != byte(and>>(8*uint(d))) {
			active |= 1 << d
		}
	}
	return active
}

func radixSortSerial(ctx context.Context, keys, scratch []int64) error {
	var or uint64
	and := ^uint64(0)
	for _, k := range keys {
		or |= uint64(k)
		and &= uint64(k)
	}
	active := activeDigits(or, and)
	src, dst := keys, scratch
	var count [radixBuckets]int
	for d := 0; d < 8; d++ {
		if active&(1<<d) == 0 {
			continue
		}
		if err := ctxErr(ctx); err != nil {
			restore(keys, src)
			return err
		}
		radixPass(src, dst, 8*uint(d), &count)
		src, dst = dst, src
	}
	restore(keys, src)
	return nil
}

// radixPass stably scatters src into dst by the byte at shift, using
// count as histogram scratch. It stays out of line so the per-key loops
// keep their few live values in registers: inlined into the caller,
// whose context and key slices are live across the passes, the loops
// spill and the serial sort runs 10–20% slower.
//
//go:noinline
func radixPass(src, dst []int64, shift uint, count *[radixBuckets]int) {
	*count = [radixBuckets]int{}
	for _, k := range src {
		count[byte(uint64(k)>>shift)]++
	}
	total := 0
	for b := range count {
		c := count[b]
		count[b] = total
		total += c
	}
	for _, k := range src {
		b := byte(uint64(k) >> shift)
		dst[count[b]] = k
		count[b]++
	}
}

// restore copies the latest pass output back into keys when it lives
// in the scratch buffer.
func restore(keys, src []int64) {
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// radixSortParallel shards every pass over the fixed DefaultShards
// split. The per-shard fan-outs run uncancellable: a pass is O(n) and
// an aborted scatter would leave dst holding a mix of old and new keys,
// so ctx is checked once per pass instead.
func radixSortParallel(ctx context.Context, workers int, keys, scratch []int64) error {
	n := len(keys)
	blocks := Blocks(n, DefaultShards)
	S := len(blocks)
	ors := make([]uint64, S)
	ands := make([]uint64, S)
	Run(nil, workers, S, func(s int) error {
		var or uint64
		and := ^uint64(0)
		for _, k := range keys[blocks[s].Lo:blocks[s].Hi] {
			or |= uint64(k)
			and &= uint64(k)
		}
		ors[s], ands[s] = or, and
		return nil
	})
	var or uint64
	and := ^uint64(0)
	for s := 0; s < S; s++ {
		or |= ors[s]
		and &= ands[s]
	}
	active := activeDigits(or, and)

	src, dst := keys, scratch
	hist := make([]int, S*radixBuckets)
	for d := 0; d < 8; d++ {
		if active&(1<<d) == 0 {
			continue
		}
		if err := ctxErr(ctx); err != nil {
			restore(keys, src)
			return err
		}
		shift := 8 * uint(d)
		Run(nil, workers, S, func(s int) error {
			h := hist[s*radixBuckets : (s+1)*radixBuckets]
			clear(h)
			for _, k := range src[blocks[s].Lo:blocks[s].Hi] {
				h[byte(uint64(k)>>shift)]++
			}
			return nil
		})
		// Exclusive prefix in (bucket, shard) order: shard s scatters
		// its bucket-b keys after every lower bucket and after the
		// bucket-b keys of lower shards, which is exactly the stable
		// serial order.
		total := 0
		for b := 0; b < radixBuckets; b++ {
			for s := 0; s < S; s++ {
				idx := s*radixBuckets + b
				c := hist[idx]
				hist[idx] = total
				total += c
			}
		}
		Run(nil, workers, S, func(s int) error {
			h := hist[s*radixBuckets : (s+1)*radixBuckets]
			for _, k := range src[blocks[s].Lo:blocks[s].Hi] {
				b := byte(uint64(k) >> shift)
				dst[h[b]] = k
				h[b]++
			}
			return nil
		})
		src, dst = dst, src
	}
	restore(keys, src)
	return nil
}

// MergeSortedInt64 merges ascending-sorted b into ascending-sorted a
// and returns the result (reusing a's storage when capacity allows).
// Elements common to both appear twice; callers that need a set merge
// disjoint inputs.
func MergeSortedInt64(a, b []int64) []int64 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append(a, b...)
	}
	na, nb := len(a), len(b)
	a = append(a, b...) // grow to final size; tail will be overwritten
	// Merge backwards so a's original prefix is consumed before it is
	// overwritten.
	i, j, k := na-1, nb-1, na+nb-1
	for j >= 0 {
		if i >= 0 && a[i] > b[j] {
			a[k] = a[i]
			i--
		} else {
			a[k] = b[j]
			j--
		}
		k--
	}
	return a
}
