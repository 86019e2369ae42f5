package extsort

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"dpkron/internal/faultfs"
)

// drain pulls every key from it, failing the test on iterator errors.
func drain(t *testing.T, it *Iterator) []int64 {
	t.Helper()
	var out []int64
	for {
		k, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, k)
	}
}

// reference is the in-memory model the external sort must match.
func reference(keys []int64) []int64 {
	s := append([]int64(nil), keys...)
	slices.Sort(s)
	return slices.Compact(s)
}

func TestMergeMatchesReference(t *testing.T) {
	for _, chunk := range []int{1, 2, 7, 64, 1 << 20} {
		s, err := New(faultfs.OS, t.TempDir(), chunk)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(chunk)))
		var all []int64
		w := s.Writer()
		for i := 0; i < 500; i++ {
			k := int64(rng.Intn(200)) // dense → many duplicates
			all = append(all, k)
			if err := w.Add(k); err != nil {
				t.Fatal(err)
			}
		}
		// A second writer contributes a pre-sorted run, as sampler shards do.
		sorted := reference([]int64{5, 999, 1000, 1001, 5})
		w2 := s.Writer()
		if err := w2.AddSorted(sorted); err != nil {
			t.Fatal(err)
		}
		all = append(all, sorted...)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		it, err := s.Merge()
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, it)
		it.Close()
		if want := reference(all); !slices.Equal(got, want) {
			t.Fatalf("chunk %d: merge produced %d keys, want %d", chunk, len(got), len(want))
		}
		s.RemoveAll()
	}
}

func TestMergeRefusesOpenWriters(t *testing.T) {
	s, err := New(faultfs.OS, t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.RemoveAll()
	w := s.Writer()
	if _, err := s.Merge(); err == nil {
		t.Fatal("Merge succeeded with an open writer")
	}
	w.Close()
	if _, err := s.Merge(); err != nil {
		t.Fatal(err)
	}
}

func TestConsolidateAndContains(t *testing.T) {
	s, err := New(faultfs.OS, t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.RemoveAll()
	w := s.Writer()
	var want []int64
	for i := int64(0); i < 1000; i += 3 {
		want = append(want, i)
		if err := w.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := s.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if run.Count() != int64(len(want)) {
		t.Fatalf("Count = %d, want %d", run.Count(), len(want))
	}
	for i := int64(0); i < 1000; i++ {
		got, err := run.Contains(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := i%3 == 0; got != want {
			t.Fatalf("Contains(%d) = %v, want %v", i, got, want)
		}
	}
	// Iteration after consolidation reproduces the full sequence, and
	// IterWith splices in-memory extras into their sorted positions.
	it, err := run.Iter()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	it.Close()
	if !slices.Equal(got, want) {
		t.Fatal("consolidated run iterates differently from its inputs")
	}
	itw, err := run.IterWith([]int64{-5, 4, 999})
	if err != nil {
		t.Fatal(err)
	}
	gotw := drain(t, itw)
	itw.Close()
	wantw := reference(append(append([]int64(nil), want...), -5, 4, 999))
	if !slices.Equal(gotw, wantw) {
		t.Fatal("IterWith merged incorrectly")
	}
}

// TestSpillFaults proves spill-file I/O failures surface as errors —
// a short write mid-run, a failed open, a failed rename during
// consolidation — rather than producing a silently truncated edge set.
func TestSpillFaults(t *testing.T) {
	add := func(s *Sorter, n int) error {
		w := s.Writer()
		for i := 0; i < n; i++ {
			if err := w.Add(int64(i * 7 % 50)); err != nil {
				w.Close()
				return err
			}
		}
		return w.Close()
	}
	t.Run("short-write", func(t *testing.T) {
		inj := faultfs.NewInjector(faultfs.OS).Fail(faultfs.Fault{Op: faultfs.OpWrite, Path: ".run", Short: 12})
		s, err := New(inj, t.TempDir(), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer s.RemoveAll()
		if err := add(s, 100); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("torn spill write surfaced as %v, want ErrInjected", err)
		}
	})
	t.Run("open", func(t *testing.T) {
		inj := faultfs.NewInjector(faultfs.OS).Fail(faultfs.Fault{Op: faultfs.OpOpen, Path: ".run"})
		s, err := New(inj, t.TempDir(), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer s.RemoveAll()
		if err := add(s, 100); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("failed spill open surfaced as %v, want ErrInjected", err)
		}
	})
	t.Run("consolidate-rename", func(t *testing.T) {
		inj := faultfs.NewInjector(faultfs.OS).Fail(faultfs.Fault{Op: faultfs.OpRename, Path: "merged"})
		s, err := New(inj, t.TempDir(), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer s.RemoveAll()
		if err := add(s, 100); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Consolidate(); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("failed consolidate rename surfaced as %v, want ErrInjected", err)
		}
	})
	t.Run("merge-read", func(t *testing.T) {
		inj := faultfs.NewInjector(faultfs.OS)
		s, err := New(inj, t.TempDir(), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer s.RemoveAll()
		if err := add(s, 100); err != nil {
			t.Fatal(err)
		}
		// Fail the read-side open of the first run during merge.
		inj.Fail(faultfs.Fault{Op: faultfs.OpOpen, Path: ".run"})
		if _, err := s.Merge(); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("failed run open during merge surfaced as %v, want ErrInjected", err)
		}
	})
}

// TestMergeBlockBoundaries: runs one key short of, exactly at, one key
// past and well past a block boundary, sharing keys across runs, merge
// to the reference through Merge, Consolidate + Iter and IterWith.
func TestMergeBlockBoundaries(t *testing.T) {
	lens := []int{blockKeys - 1, blockKeys, blockKeys + 1, 3*blockKeys + 5}
	runKeys := func(i, n int) []int64 {
		keys := make([]int64, n)
		for j := range keys {
			keys[j] = int64(j * (i + 1)) // every run holds 0, and many more collide
		}
		return keys
	}
	merge := func(t *testing.T, runs [][]int64) {
		s, err := New(faultfs.OS, t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.RemoveAll()
		var all []int64
		for _, keys := range runs {
			w := s.Writer()
			if err := w.AddSorted(keys); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			all = append(all, keys...)
		}
		want := reference(all)
		it, err := s.Merge()
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, it); !slices.Equal(got, want) {
			t.Fatalf("Merge: %d keys, want %d", len(got), len(want))
		}
		it.Close()
		run, err := s.Consolidate()
		if err != nil {
			t.Fatal(err)
		}
		defer run.Close()
		if run.Count() != int64(len(want)) {
			t.Fatalf("Consolidate: Count %d, want %d", run.Count(), len(want))
		}
		it, err = run.Iter()
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, it); !slices.Equal(got, want) {
			t.Fatalf("Consolidate + Iter: %d keys, want %d", len(got), len(want))
		}
		it.Close()
		extra := []int64{-1, 1, int64(blockKeys), 1 << 40}
		it, err = run.IterWith(extra)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := drain(t, it), reference(append(want, extra...)); !slices.Equal(got, want) {
			t.Fatalf("IterWith: %d keys, want %d", len(got), len(want))
		}
		it.Close()
	}
	var all [][]int64
	for i, n := range lens {
		keys := runKeys(i, n)
		all = append(all, keys)
		t.Run(fmt.Sprintf("one-run-%d", n), func(t *testing.T) { merge(t, [][]int64{keys}) })
	}
	t.Run("all-runs", func(t *testing.T) { merge(t, all) })
}

// TestMergeTruncatedRun: a run file cut short — mid-key, mid-block or
// exactly at a block boundary — makes Next fail instead of ending
// cleanly with fewer keys, alone and inside a multi-run merge.
func TestMergeTruncatedRun(t *testing.T) {
	const n = 3*blockKeys + 5
	for _, size := range []int64{8*blockKeys + 8*10 + 3, 8 * (2*blockKeys + 1), 8 * blockKeys, 8*n - 1, 0} {
		s, err := New(faultfs.OS, t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(2 * i)
		}
		w := s.Writer()
		if err := w.AddSorted(keys); err != nil {
			t.Fatal(err)
		}
		if err := w.AddSorted([]int64{1, 3, 5}); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if err := os.Truncate(s.runs[0].path, size); err != nil {
			t.Fatal(err)
		}
		it, err := s.Merge()
		if err != nil {
			t.Fatal(err)
		}
		var got int
		for {
			_, ok, err := it.Next()
			if err != nil {
				break
			}
			if !ok {
				t.Fatalf("truncated to %d bytes: merge ended cleanly after %d keys", size, got)
			}
			got++
		}
		it.Close()
		// A consolidation of the same runs fails too, leaving no merged run.
		if _, err := s.Consolidate(); err == nil {
			t.Fatalf("truncated to %d bytes: Consolidate succeeded", size)
		}
		s.RemoveAll()
	}
}

// scriptSource serves fixed blocks, then err (nil for a clean end),
// and counts its closes.
type scriptSource struct {
	blocks [][]int64
	err    error
	closes int
}

func (s *scriptSource) block() ([]int64, error) {
	if len(s.blocks) == 0 {
		return nil, s.err
	}
	b := s.blocks[0]
	s.blocks = s.blocks[1:]
	return b, nil
}

func (s *scriptSource) close() error {
	s.closes++
	return nil
}

// TestMergeErrorClosesOnce: after a source fails mid-merge, Next keeps
// returning the error and every source — finished, failed or still
// open — has been closed exactly once, however often Close is called.
func TestMergeErrorClosesOnce(t *testing.T) {
	boom := errors.New("boom")
	srcs := []*scriptSource{
		{blocks: [][]int64{{0}}},                                    // ends first
		{blocks: [][]int64{{1, 2}, {6, 7}}},                         // still open
		{blocks: [][]int64{{3}, {4}}, err: boom},                    // fails
		{blocks: [][]int64{{5, 10}}},                                // still open
		{blocks: nil, err: nil},                                     // empty from the start
		{blocks: [][]int64{{2, 3, 4, 5, 6, 7, 8, 9, 11}}, err: nil}, // duplicates
	}
	in := make([]source, len(srcs))
	for i, s := range srcs {
		in[i] = s
	}
	it := newIterator(in)
	var got []int64
	var err error
	for {
		var k int64
		var ok bool
		if k, ok, err = it.Next(); err != nil || !ok {
			break
		}
		got = append(got, k)
	}
	// Key 4 is never returned: taking it advances its source, which fails.
	if !errors.Is(err, boom) || !slices.Equal(got, []int64{0, 1, 2, 3}) {
		t.Fatalf("merge yielded %v then %v, want [0 1 2 3] then boom", got, err)
	}
	if _, _, err := it.Next(); !errors.Is(err, boom) {
		t.Fatalf("Next after the failure: %v, want boom", err)
	}
	it.Close()
	it.Close()
	for i, s := range srcs {
		if s.closes != 1 {
			t.Errorf("source %d closed %d times, want once", i, s.closes)
		}
	}
}

// TestNextAllocatesNothing: the per-key merge step, block refills
// included, makes no allocation.
func TestNextAllocatesNothing(t *testing.T) {
	s, err := New(faultfs.OS, t.TempDir(), blockKeys)
	if err != nil {
		t.Fatal(err)
	}
	defer s.RemoveAll()
	w := s.Writer()
	for i := 0; i < 64*blockKeys; i++ {
		if err := w.Add(int64(i * 7919 % (64 * blockKeys))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	it, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if allocs := testing.AllocsPerRun(16*blockKeys, func() { it.Next() }); allocs != 0 {
		t.Fatalf("Next allocates %.3f times per key", allocs)
	}
}

// FuzzMergeDedup drives the external sort with arbitrary key bytes and
// chunk sizes and checks it against the in-memory reference.
func FuzzMergeDedup(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, chunk8 uint8) {
		if len(raw) > 1<<12 {
			return
		}
		chunk := int(chunk8%16) + 1
		var keys []int64
		for i := 0; i+8 <= len(raw); i += 8 {
			var k int64
			for j := 0; j < 8; j++ {
				k = k<<8 | int64(raw[i+j])
			}
			keys = append(keys, k)
		}
		s, err := New(faultfs.OS, t.TempDir(), chunk)
		if err != nil {
			t.Fatal(err)
		}
		defer s.RemoveAll()
		w := s.Writer()
		for _, k := range keys {
			if err := w.Add(k); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		it, err := s.Merge()
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, it)
		it.Close()
		if want := reference(keys); !slices.Equal(got, want) {
			t.Fatalf("external sort diverged from reference: %d vs %d keys", len(got), len(want))
		}
	})
}
