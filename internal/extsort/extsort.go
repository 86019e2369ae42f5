// Package extsort sorts and deduplicates streams of int64 keys in
// bounded memory: keys accumulate in fixed-size chunks that are sorted
// and spilled to disk as runs, and a k-way merge streams the unique
// ascending sequence back. It is the machinery behind streaming
// generate-to-store — the sampled edge keys of a graph too large to
// hold are spilled shard by shard and consolidated into one sorted run,
// which the store's v2 encoder re-reads once per row window, so peak
// memory is O(chunk), not O(edges).
//
// Runs are raw little-endian int64s, written and read blockKeys keys at
// a time. The merge keeps one decoded block and a cursor per run and a
// heap of (key, cursor) slots; the per-key step replaces the heap top
// and sifts it down once, with no interface call and no allocation.
//
// All spill I/O goes through faultfs.FS, so the fault-injection tests
// that cover the durable stores cover the spill files too: a torn
// write or failed rename surfaces as an error from Add/Merge, never as
// a silently wrong edge set.
//
// Keys are packed undirected edges (int64(u)<<32 | v, u < v) in
// practice, but nothing here depends on that: any int64 ordering
// works.
package extsort

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"dpkron/internal/faultfs"
)

// DefaultChunk is the spill threshold in keys (8 MiB of int64s) when
// New is given chunkKeys <= 0.
const DefaultChunk = 1 << 20

// Sorter accumulates keys through per-goroutine Writers and merges the
// spilled runs. A Sorter owns a directory of run files; Remove deletes
// them. Methods on the Sorter are safe for concurrent use; each Writer
// is for a single goroutine.
type Sorter struct {
	fs    faultfs.FS
	dir   string
	chunk int

	mu      sync.Mutex
	runs    []runInfo
	seq     int
	writers int
}

type runInfo struct {
	path  string
	count int64
}

// New returns a Sorter spilling into dir (created if needed) through
// fsys. chunkKeys bounds the in-memory buffer of each Writer;
// <= 0 selects DefaultChunk.
func New(fsys faultfs.FS, dir string, chunkKeys int) (*Sorter, error) {
	if fsys == nil {
		fsys = faultfs.OS
	}
	if chunkKeys <= 0 {
		chunkKeys = DefaultChunk
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("extsort: creating spill dir: %w", err)
	}
	return &Sorter{fs: fsys, dir: dir, chunk: chunkKeys}, nil
}

// NewTemp is New in a fresh os.MkdirTemp directory. RemoveAll deletes
// the directory along with the runs.
func NewTemp(fsys faultfs.FS, chunkKeys int) (*Sorter, error) {
	dir, err := os.MkdirTemp("", "dpkron-extsort-")
	if err != nil {
		return nil, fmt.Errorf("extsort: creating spill dir: %w", err)
	}
	return New(fsys, dir, chunkKeys)
}

// Dir returns the spill directory.
func (s *Sorter) Dir() string { return s.dir }

// Remove deletes every run file the sorter has produced. Missing files
// (already consolidated away) are ignored.
func (s *Sorter) Remove() error {
	s.mu.Lock()
	runs := s.runs
	s.runs = nil
	s.mu.Unlock()
	var first error
	for _, r := range runs {
		if err := s.fs.Remove(r.path); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}

// RemoveAll is Remove plus deletion of the spill directory itself.
func (s *Sorter) RemoveAll() error {
	err := s.Remove()
	if rmErr := os.RemoveAll(s.dir); rmErr != nil && err == nil {
		err = rmErr
	}
	return err
}

// nextPath reserves a fresh run-file path.
func (s *Sorter) nextPath(prefix string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return filepath.Join(s.dir, fmt.Sprintf("%s-%06d.run", prefix, s.seq))
}

// addRun registers a finished run file.
func (s *Sorter) addRun(path string, count int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs = append(s.runs, runInfo{path: path, count: count})
}

// writeRun writes the keys it yields as one run file at path: raw
// little-endian int64s, encoded and written blockKeys at a time, no
// fsync (spill data does not survive a crash by design — a failed run
// aborts the whole operation instead). what names the file in errors.
func (s *Sorter) writeRun(path, what string, it *Iterator) (int64, error) {
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return 0, fmt.Errorf("extsort: creating %s: %w", what, err)
	}
	buf := make([]byte, 0, 8*blockKeys)
	var count int64
	for {
		k, ok, err := it.Next()
		if err != nil {
			f.Close()
			return 0, err
		}
		if ok {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
			count++
		}
		if len(buf) == cap(buf) || !ok && len(buf) > 0 {
			if _, err := f.Write(buf); err != nil {
				f.Close()
				return 0, fmt.Errorf("extsort: writing %s: %w", what, err)
			}
			buf = buf[:0]
		}
		if !ok {
			break
		}
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("extsort: closing %s: %w", what, err)
	}
	return count, nil
}

// spill sorts (unless presorted), deduplicates, and writes keys as a
// new run. It takes ownership of keys for the duration of the call.
func (s *Sorter) spill(keys []int64, presorted bool) error {
	if len(keys) == 0 {
		return nil
	}
	if !presorted {
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	path := s.nextPath("run")
	count, err := s.writeRun(path, "run", newIterator([]source{&sliceSource{keys: keys}}))
	if err != nil {
		return err
	}
	s.addRun(path, count)
	return nil
}

// Writer returns a new chunk-buffered writer. Each concurrent
// goroutine feeding the sorter takes its own Writer; Close flushes the
// final partial chunk. All Writers must be closed before Merge or
// Consolidate.
func (s *Sorter) Writer() *Writer {
	s.mu.Lock()
	s.writers++
	s.mu.Unlock()
	return &Writer{s: s}
}

// Writer accumulates keys for one goroutine, spilling a sorted run
// whenever its chunk fills. Not safe for concurrent use.
type Writer struct {
	s      *Sorter
	buf    []int64
	closed bool
}

// Add buffers one key, spilling if the chunk is full.
func (w *Writer) Add(key int64) error {
	if w.buf == nil {
		w.buf = make([]int64, 0, w.s.chunk)
	}
	w.buf = append(w.buf, key)
	if len(w.buf) >= w.s.chunk {
		err := w.s.spill(w.buf, false)
		w.buf = w.buf[:0]
		return err
	}
	return nil
}

// AddSorted spills an already sorted, duplicate-free slice directly as
// one run, bypassing the chunk buffer. The slice is not retained.
func (w *Writer) AddSorted(keys []int64) error {
	return w.s.spill(keys, true)
}

// Close flushes the remaining partial chunk. Idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.s.spill(w.buf, false)
	w.buf = nil
	w.s.mu.Lock()
	w.s.writers--
	w.s.mu.Unlock()
	return err
}

// Merge returns an iterator over the unique ascending union of every
// spilled run. All Writers must be closed first.
func (s *Sorter) Merge() (*Iterator, error) {
	s.mu.Lock()
	if s.writers != 0 {
		n := s.writers
		s.mu.Unlock()
		return nil, fmt.Errorf("extsort: Merge with %d writers still open", n)
	}
	runs := append([]runInfo(nil), s.runs...)
	s.mu.Unlock()
	srcs := make([]source, 0, len(runs))
	for _, r := range runs {
		fs, err := newFileSource(s.fs, r.path, r.count)
		if err != nil {
			for _, src := range srcs {
				src.close()
			}
			return nil, err
		}
		srcs = append(srcs, fs)
	}
	return newIterator(srcs), nil
}

// Consolidate merges every spilled run into a single on-disk run
// (written via tmp + rename, so a failure leaves no half-merged file
// masquerading as the result), deletes the inputs, and returns a
// handle supporting sequential iteration and binary-searched
// membership probes. The sorter afterwards holds just the consolidated
// run.
func (s *Sorter) Consolidate() (*Run, error) {
	it, err := s.Merge()
	if err != nil {
		return nil, err
	}
	path := s.nextPath("merged")
	tmp := path + ".tmp"
	count, err := s.writeRun(tmp, "merged run", it)
	it.Close()
	if err != nil {
		return nil, err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("extsort: committing merged run: %w", err)
	}
	// The inputs are subsumed; drop them and track only the merged run.
	s.mu.Lock()
	old := s.runs
	s.runs = []runInfo{{path: path, count: count}}
	s.mu.Unlock()
	for _, r := range old {
		_ = s.fs.Remove(r.path)
	}
	return &Run{fs: s.fs, path: path, count: count}, nil
}

// Run is one sorted, duplicate-free on-disk run: the product of
// Consolidate. It supports repeated sequential iteration and
// random-access membership probes (the streaming ball-drop top-up's
// exclude set lives here instead of on the heap).
type Run struct {
	fs    faultfs.FS
	path  string
	count int64

	mu sync.Mutex
	r  faultfs.Reader // lazily opened probe handle
}

// Count returns the number of keys in the run.
func (r *Run) Count() int64 { return r.count }

// Iter returns a fresh sequential iterator over the run.
func (r *Run) Iter() (*Iterator, error) { return r.IterWith(nil) }

// IterWith returns an iterator over the unique ascending union of the
// run and a sorted slice — how a streamed sample's disk-resident bulk
// co-merges with its small in-memory top-up.
func (r *Run) IterWith(extra []int64) (*Iterator, error) {
	src, err := newFileSource(r.fs, r.path, r.count)
	if err != nil {
		return nil, err
	}
	return newIterator([]source{src, &sliceSource{keys: extra}}), nil
}

// Contains reports whether key is present, by binary search over the
// run file (O(log n) 8-byte ReadAt probes against the page cache).
func (r *Run) Contains(key int64) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.r == nil {
		f, err := r.fs.Open(r.path)
		if err != nil {
			return false, fmt.Errorf("extsort: opening run for probes: %w", err)
		}
		r.r = f
	}
	lo, hi := int64(0), r.count
	var kb [8]byte
	for lo < hi {
		mid := int64(uint64(lo+hi) >> 1)
		if _, err := r.r.ReadAt(kb[:], mid*8); err != nil {
			return false, fmt.Errorf("extsort: probing run: %w", err)
		}
		k := int64(binary.LittleEndian.Uint64(kb[:]))
		switch {
		case k == key:
			return true, nil
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false, nil
}

// Close releases the probe handle, if open.
func (r *Run) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.r == nil {
		return nil
	}
	err := r.r.Close()
	r.r = nil
	return err
}

// blockKeys is how many keys a run file is written and read in at a
// time: 32 KiB of raw bytes plus 32 KiB decoded per open run.
const blockKeys = 4096

// source is one pull stream of ascending keys, delivered in blocks.
type source interface {
	// block returns the next non-empty block of keys, or nil at the
	// end. The block is valid until the next call.
	block() ([]int64, error)
	close() error
}

// sliceSource yields an in-memory sorted slice as one block.
type sliceSource struct{ keys []int64 }

func (s *sliceSource) block() ([]int64, error) {
	keys := s.keys
	s.keys = nil
	return keys, nil
}

func (s *sliceSource) close() error { return nil }

// fileSource decodes a run file blockKeys keys per read.
type fileSource struct {
	f         faultfs.Reader
	remaining int64
	raw       []byte
	keys      []int64
}

func newFileSource(fsys faultfs.FS, path string, count int64) (*fileSource, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("extsort: opening run: %w", err)
	}
	n := min(count, blockKeys)
	return &fileSource{f: f, remaining: count, raw: make([]byte, 8*n), keys: make([]int64, n)}, nil
}

func (s *fileSource) block() ([]int64, error) {
	n := min(s.remaining, blockKeys)
	if n <= 0 {
		return nil, nil
	}
	raw, keys := s.raw[:8*n], s.keys[:n]
	if _, err := io.ReadFull(s.f, raw); err != nil {
		return nil, fmt.Errorf("extsort: reading run: %w", err)
	}
	for i := range keys {
		keys[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	s.remaining -= n
	return keys, nil
}

func (s *fileSource) close() error { return s.f.Close() }

// Iterator streams the unique ascending union of its sources: a k-way
// merge with duplicate suppression. Close releases the underlying run
// files; Next after exhaustion keeps returning ok = false.
type Iterator struct {
	curs  []cursor
	heap  []slot // min-ordered by key: heap[0] is next
	last  int64
	first bool
	err   error
}

// cursor is one source's current block and position in it; src is nil
// once the source is closed.
type cursor struct {
	src  source
	keys []int64
	pos  int
}

// slot is a heap entry: the key under cursor c.
type slot struct {
	key int64
	c   int
}

func newIterator(srcs []source) *Iterator {
	it := &Iterator{curs: make([]cursor, len(srcs)), first: true}
	for i, src := range srcs {
		it.curs[i].src = src
	}
	for i := range it.curs {
		if it.refill(&it.curs[i]) != nil {
			break
		}
		if c := &it.curs[i]; c.src != nil {
			it.heap = append(it.heap, slot{key: c.keys[0], c: i})
		}
	}
	for i := len(it.heap)/2 - 1; i >= 0; i-- {
		it.siftDown(i)
	}
	return it
}

// siftDown restores the heap order below slot i.
func (it *Iterator) siftDown(i int) {
	h := it.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r].key < h[l].key {
			l = r
		}
		if h[i].key <= h[l].key {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// Next returns the next unique key in ascending order. The top slot is
// replaced by its cursor's next key and sifted down once; a source is
// only called when its block runs out.
func (it *Iterator) Next() (int64, bool, error) {
	if it.err != nil {
		return 0, false, it.err
	}
	for len(it.heap) > 0 {
		top := &it.heap[0]
		k := top.key
		c := &it.curs[top.c]
		if c.pos++; c.pos < len(c.keys) {
			top.key = c.keys[c.pos]
		} else if err := it.refill(c); err != nil {
			return 0, false, err
		} else if c.src != nil {
			top.key = c.keys[0]
		} else {
			last := len(it.heap) - 1
			it.heap[0] = it.heap[last]
			it.heap = it.heap[:last]
		}
		it.siftDown(0)
		if it.first || k != it.last {
			it.first = false
			it.last = k
			return k, true, nil
		}
	}
	return 0, false, nil
}

// refill loads c's next block, closing its source at the end. An error
// closes every source and sticks.
func (it *Iterator) refill(c *cursor) error {
	keys, err := c.src.block()
	c.keys, c.pos = keys, 0
	if err != nil {
		it.err = err
		it.Close()
		return err
	}
	if len(keys) == 0 {
		c.src.close()
		c.src = nil
	}
	return nil
}

// Close releases every source still open.
func (it *Iterator) Close() error {
	var first error
	for i := range it.curs {
		c := &it.curs[i]
		if c.src == nil {
			continue
		}
		if err := c.src.close(); err != nil && first == nil {
			first = err
		}
		c.src = nil
	}
	it.heap = nil
	return first
}
