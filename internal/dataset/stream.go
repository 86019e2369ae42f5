package dataset

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"dpkron/internal/extsort"
)

// EdgeSource is a re-iterable stream of a graph's edges for streaming
// ingest. Edges yields the packed upper-triangle keys u<<32|v (u < v),
// strictly ascending with no duplicates — the order extsort's
// merge-dedup naturally produces — and may be called more than once:
// PutStream makes one counting pass and then one pass per row window of
// the adjacency it writes. The interface is structural on purpose, so
// samplers can satisfy it without importing this package.
type EdgeSource interface {
	// NumNodes is the node count of the streamed graph.
	NumNodes() int
	// Edges returns a fresh iterator over the sorted unique edge keys.
	Edges() (*extsort.Iterator, error)
}

// errSourceChanged reports an EdgeSource whose passes disagree or whose
// keys are out of order.
var errSourceChanged = errors.New("dataset: edge source is not the same strictly ascending edge set on every pass")

// PutStream imports a graph from an edge stream without ever holding
// its edge set in memory. One counting pass sizes the CSR layout and
// computes the content-addressed id, so a re-import of an
// already-stored graph is detected before any file is written. The
// adjacency is then filled one row window at a time, one pass over the
// source per window, straight into the v2 mmap layout. Peak residency
// is O(n) for the CSR offsets plus one window (at most 8 MiB unless a
// single row is larger) — not O(m). Returns the metadata plus whether
// the dataset was newly created.
//
// The id is bit-identical to Put's: the hash consumes the same bytes
// accountant.DatasetID feeds it, in the same (sorted) edge order.
func (s *Store) PutStream(src EdgeSource, name, source string) (Meta, bool, error) {
	return s.putStream(src, name, source, extsort.DefaultChunk)
}

// putStream is PutStream with the window budget set by chunk: 2·chunk
// int32s, as many bytes as a chunk of int64 sort keys (8 MiB at
// extsort.DefaultChunk). Tests shrink it to force many windows.
func (s *Store) putStream(src EdgeSource, name, source string, chunk int) (Meta, bool, error) {
	n := src.NumNodes()
	if n < 0 || n >= 1<<31 {
		return Meta{}, false, fmt.Errorf("dataset: streaming %d nodes exceeds the node-id limit", n)
	}

	// Pass 1: validate and count. Degrees become CSR offsets, and the id
	// hash consumes each edge as accountant.DatasetID would, in batches.
	h := sha256.New()
	hbuf := binary.LittleEndian.AppendUint64(make([]byte, 0, 16<<10), uint64(n))
	off := make([]int32, n+1)
	m := 0
	it, err := src.Edges()
	if err != nil {
		return Meta{}, false, err
	}
	err = func() error {
		defer it.Close()
		for {
			key, ok, err := it.Next()
			if err != nil || !ok {
				return err
			}
			u, v := int(uint64(key)>>32), int(uint64(key)&0xffffffff)
			if u >= v || v >= n {
				return fmt.Errorf("dataset: streamed edge (%d,%d) outside 0 <= u < v < %d", u, v, n)
			}
			if m >= v2MaxEdges {
				return fmt.Errorf("dataset: streamed graph exceeds the v2 limit of %d edges", v2MaxEdges)
			}
			if len(hbuf)+16 > cap(hbuf) {
				h.Write(hbuf)
				hbuf = hbuf[:0]
			}
			hbuf = binary.LittleEndian.AppendUint64(hbuf, uint64(u))
			hbuf = binary.LittleEndian.AppendUint64(hbuf, uint64(v))
			off[u+1]++
			off[v+1]++
			m++
		}
	}()
	if err != nil {
		return Meta{}, false, err
	}
	h.Write(hbuf)
	id := fmt.Sprintf("ds-%x", h.Sum(nil)[:8])

	unlock, err := s.lock()
	if err != nil {
		return Meta{}, false, fmt.Errorf("dataset: locking store: %w", err)
	}
	defer unlock()
	if meta, err := s.readMeta(id); err == nil {
		if _, err := s.fs.Stat(s.graphPath(id)); err == nil {
			return meta, false, nil
		}
	}

	for i := 0; i < n; i++ { // degree counts -> prefix sums
		off[i+1] += off[i]
	}

	tmp := s.graphPath(id) + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return Meta{}, false, fmt.Errorf("dataset: writing %s: %w", tmp, err)
	}
	commit := false
	defer func() {
		if !commit {
			f.Close()
			s.fs.Remove(tmp)
		}
	}()
	if err := writeV2Stream(f, src, n, m, off, 2*chunk); err != nil {
		return Meta{}, false, fmt.Errorf("dataset: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		return Meta{}, false, fmt.Errorf("dataset: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return Meta{}, false, fmt.Errorf("dataset: closing %s: %w", tmp, err)
	}
	if err := s.fs.Rename(tmp, s.graphPath(id)); err != nil {
		return Meta{}, false, fmt.Errorf("dataset: committing %s: %w", s.graphPath(id), err)
	}
	commit = true

	_, fileSize := v2Layout(n, m)
	meta := Meta{
		ID:       id,
		Name:     name,
		Nodes:    n,
		Edges:    m,
		Source:   source,
		Imported: time.Now().UTC().Truncate(time.Second),
		Bytes:    fileSize,
		Format:   2,
	}
	if err := s.writeMeta(meta); err != nil {
		return Meta{}, false, err
	}
	return meta, true, nil
}

// writeV2Stream renders a complete v2 file — header, offsets, padding,
// adjacency, trailing checksum — onto w. The adjacency is filled in
// windows of rows [r0, r1) whose entries plus one cursor per row fit
// budget int32s (a row too large for that gets a window of its own).
// Each window is one pass over src that stops at the first edge with
// u ≥ r1 and places v at row u's cursor and u at row v's. Every row
// comes out sorted: its lower neighbours arrive before its upper ones,
// each in ascending order.
func writeV2Stream(w io.Writer, src EdgeSource, n, m int, off []int32, budget int) error {
	h := sha256.New()
	bw := bufio.NewWriterSize(w, 1<<16)
	mw := io.MultiWriter(bw, h)
	if _, err := mw.Write(v2Header(n, m)); err != nil {
		return err
	}
	if err := writeInt32sLE(mw, off); err != nil {
		return err
	}
	adjPos, _ := v2Layout(n, m)
	if pad := adjPos - int64(v2HeaderLen) - 4*int64(n+1); pad > 0 {
		if _, err := mw.Write(make([]byte, pad)); err != nil {
			return err
		}
	}

	buf := make([]int32, min(budget, n+2*m))
	for r0, r1 := 0, 0; r0 < n; r0 = r1 {
		r1 = r0 + 1
		for r1 < n && int(off[r1+1]-off[r0])+r1+1-r0 <= budget {
			r1++
		}
		if need := int(off[r1]-off[r0]) + r1 - r0; need > len(buf) {
			buf = make([]int32, need)
		}
		cur, adj := buf[:r1-r0], buf[r1-r0:r1-r0+int(off[r1]-off[r0])]
		copy(cur, off[r0:r1])
		if err := fillWindow(src, n, off, r0, r1, cur, adj); err != nil {
			return err
		}
		if err := writeInt32sLE(mw, adj); err != nil {
			return err
		}
	}
	if _, err := bw.Write(h.Sum(nil)); err != nil {
		return err
	}
	return bw.Flush()
}

// fillWindow makes one pass over src placing the neighbours of rows
// [r0, r1) into adj, which starts at offset off[r0]. cur holds each
// row's next absolute adjacency position. A cursor that would pass its
// row's end, or stops short of it, means the source changed since the
// counting pass.
func fillWindow(src EdgeSource, n int, off []int32, r0, r1 int, cur, adj []int32) error {
	it, err := src.Edges()
	if err != nil {
		return err
	}
	defer it.Close()
	base := off[r0]
	place := func(r, nb int) bool {
		c := cur[r-r0]
		if c == off[r+1] {
			return false
		}
		adj[c-base] = int32(nb)
		cur[r-r0] = c + 1
		return true
	}
	prev := int64(-1)
	for {
		key, ok, err := it.Next()
		if err != nil {
			return err
		}
		u, v := int(uint64(key)>>32), int(uint64(key)&0xffffffff)
		if !ok || u >= r1 {
			break
		}
		if key <= prev || u >= v || v >= n ||
			u >= r0 && !place(u, v) || v >= r0 && v < r1 && !place(v, u) {
			return errSourceChanged
		}
		prev = key
	}
	for r := r0; r < r1; r++ {
		if cur[r-r0] != off[r+1] {
			return errSourceChanged
		}
	}
	return nil
}
