package dataset

import (
	"bufio"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"unsafe"

	"dpkron/internal/graph"
	"dpkron/internal/mmapfile"
)

// Binary format ("DPKG", version 2) — the mmap layout. Where v1
// optimizes bytes (gap varints, ~1–2 bytes/edge), v2 optimizes opens:
// the CSR arrays are stored verbatim, fixed-width and aligned, so a
// loader can map the file and serve graph.Graph's slices directly out
// of the page cache — one checksum pass instead of an O(n+m) decode.
//
//	header   64 bytes:
//	  [0:4)   magic "DPKG"
//	  [4]     version byte 0x02 (parses as uvarint 2, so v1-only
//	          decoders fail with ErrBadVersion, not garbage)
//	  [5:8)   reserved (zero)
//	  [8:16)  n  uint64 LE — node count
//	  [16:24) m  uint64 LE — undirected edge count
//	  [24:32) offPos  uint64 LE — byte offset of the off section (64)
//	  [32:40) adjPos  uint64 LE — byte offset of the adj section,
//	          64-byte aligned
//	  [40:48) fileSize uint64 LE — total file length incl. checksum
//	  [48:56) first 8 bytes of SHA-256 over header[0:48)
//	  [56:64) reserved (zero)
//	off      (n+1) int32 LE — CSR row offsets, off[0] = 0, off[n] = 2m
//	padding  zeros to adjPos
//	adj      2m int32 LE — concatenated sorted adjacency
//	checksum SHA-256 over every preceding byte
//
// The trailing checksum matches v1's convention (last 32 bytes, over
// everything before), so Unmarshal verifies both formats identically.
// OpenMapped verifies it too (verifyV2), on both of its routes: one
// streaming pass over the mapping per file, which the store pays once
// per process because it caches mapped graphs. The mapped route still
// skips the heap decode and its O(n+m) structural validation, which a
// forged checksum would need to defeat.

const (
	codecVersion2 = 2
	v2HeaderLen   = 64
	v2Align       = 64
	// v2MaxEdges keeps 2m (and every off value) inside int32, the CSR
	// index type.
	v2MaxEdges = 1 << 30
)

// v2Layout computes the section offsets of a v2 file for n nodes and
// m edges.
func v2Layout(n, m int) (adjPos, fileSize int64) {
	offEnd := int64(v2HeaderLen) + 4*int64(n+1)
	adjPos = (offEnd + v2Align - 1) &^ (v2Align - 1)
	fileSize = adjPos + 8*int64(m) + checksumLen
	return adjPos, fileSize
}

// v2Header renders the 64-byte header, including its checksum field.
func v2Header(n, m int) []byte {
	adjPos, fileSize := v2Layout(n, m)
	h := make([]byte, v2HeaderLen)
	copy(h, magic[:])
	h[4] = codecVersion2
	binary.LittleEndian.PutUint64(h[8:], uint64(n))
	binary.LittleEndian.PutUint64(h[16:], uint64(m))
	binary.LittleEndian.PutUint64(h[24:], v2HeaderLen)
	binary.LittleEndian.PutUint64(h[32:], uint64(adjPos))
	binary.LittleEndian.PutUint64(h[40:], uint64(fileSize))
	sum := sha256.Sum256(h[:48])
	copy(h[48:56], sum[:8])
	return h
}

// parseV2Header validates a v2 header against the total file length
// and returns the declared dimensions. All checks are O(1).
func parseV2Header(data []byte, total int64) (n, m int, adjPos int64, err error) {
	if len(data) < v2HeaderLen {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes of v2 header", ErrTruncated, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return 0, 0, 0, ErrBadMagic
	}
	if data[4] != codecVersion2 {
		return 0, 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, data[4])
	}
	sum := sha256.Sum256(data[:48])
	if subtle.ConstantTimeCompare(sum[:8], data[48:56]) != 1 {
		return 0, 0, 0, fmt.Errorf("%w: v2 header checksum", ErrChecksum)
	}
	nn := binary.LittleEndian.Uint64(data[8:])
	mm := binary.LittleEndian.Uint64(data[16:])
	offPos := binary.LittleEndian.Uint64(data[24:])
	adjP := binary.LittleEndian.Uint64(data[32:])
	fileSize := binary.LittleEndian.Uint64(data[40:])
	if nn >= 1<<31 {
		return 0, 0, 0, fmt.Errorf("%w: %d nodes exceeds the node-id limit", ErrCorrupt, nn)
	}
	if mm >= v2MaxEdges || (nn > 0 && mm > nn*(nn-1)/2) || (nn == 0 && mm > 0) {
		return 0, 0, 0, fmt.Errorf("%w: %d edges on %d nodes", ErrCorrupt, mm, nn)
	}
	if offPos != v2HeaderLen {
		return 0, 0, 0, fmt.Errorf("%w: off section at %d, want %d", ErrCorrupt, offPos, v2HeaderLen)
	}
	wantAdj, wantSize := v2Layout(int(nn), int(mm))
	if int64(adjP) != wantAdj {
		return 0, 0, 0, fmt.Errorf("%w: misaligned adj section at %d, want %d", ErrCorrupt, adjP, wantAdj)
	}
	if int64(fileSize) != wantSize {
		return 0, 0, 0, fmt.Errorf("%w: declared size %d, layout implies %d", ErrCorrupt, fileSize, wantSize)
	}
	switch {
	case total < wantSize:
		return 0, 0, 0, fmt.Errorf("%w: %d of %d bytes", ErrTruncated, total, wantSize)
	case total > wantSize:
		return 0, 0, 0, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, total-wantSize)
	}
	return int(nn), int(mm), wantAdj, nil
}

// v2SpotCheck verifies the O(1) structural anchors of the off section:
// the first offset is 0 and the last is 2m. data is the whole file.
func v2SpotCheck(data []byte, n, m int) error {
	off0 := binary.LittleEndian.Uint32(data[v2HeaderLen:])
	offN := binary.LittleEndian.Uint32(data[v2HeaderLen+4*n:])
	if off0 != 0 {
		return fmt.Errorf("%w: off[0] = %d, want 0", ErrCorrupt, off0)
	}
	if offN != uint32(2*m) {
		return fmt.Errorf("%w: off[n] = %d, want 2m = %d", ErrCorrupt, offN, 2*m)
	}
	return nil
}

// EncodeV2 writes g in the v2 mmap layout, streaming: rows are never
// gathered into one buffer, so the writer's memory is O(1) beyond the
// graph itself.
func EncodeV2(w io.Writer, g *graph.Graph) error {
	off, adj := g.CSR()
	n, m := g.NumNodes(), g.NumEdges()
	if m >= v2MaxEdges {
		return fmt.Errorf("dataset: %d edges exceeds the v2 limit of %d", m, v2MaxEdges)
	}
	if len(off) == 0 {
		off = []int32{0} // the zero Graph still writes a valid off[0]
	}
	return writeV2(w, n, m, off, func(w io.Writer) error { return writeInt32sLE(w, adj) })
}

// writeV2 frames a v2 file onto w: the header, the offsets, the
// padding up to adjPos, the 2m adjacency entries writeAdj streams, and
// the trailing checksum over all of it.
func writeV2(w io.Writer, n, m int, off []int32, writeAdj func(io.Writer) error) error {
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
	if err := writeAdj(mw); err != nil {
		return err
	}
	if _, err := bw.Write(h.Sum(nil)); err != nil {
		return err
	}
	return bw.Flush()
}

// writeInt32sLE streams vals as little-endian int32s through a small
// fixed buffer.
func writeInt32sLE(w io.Writer, vals []int32) error {
	var buf [4096]byte
	for len(vals) > 0 {
		chunk := vals
		if len(chunk) > len(buf)/4 {
			chunk = chunk[:len(buf)/4]
		}
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		if _, err := w.Write(buf[:4*len(chunk)]); err != nil {
			return err
		}
		vals = vals[len(chunk):]
	}
	return nil
}

// decodeV2Payload decodes the v2 sections onto the heap. payload is
// the file without its trailing checksum (already verified by
// UnmarshalLimit). The decoded arrays are fully validated — monotone
// offsets, sorted symmetric adjacency — so a forged checksum still
// cannot smuggle a structurally invalid graph past the typed errors.
func decodeV2Payload(payload []byte, maxNodes int) (*graph.Graph, error) {
	n, m, adjPos, err := parseV2Header(payload, int64(len(payload))+checksumLen)
	if err != nil {
		return nil, err
	}
	if maxNodes > 0 && n > maxNodes {
		return nil, fmt.Errorf("dataset: input has %d nodes, exceeding the cap of %d", n, maxNodes)
	}
	if err := v2SpotCheck(payload, n, m); err != nil {
		return nil, err
	}
	off := readInt32sLE(payload[v2HeaderLen:], n+1)
	adj := readInt32sLE(payload[adjPos:], 2*m)
	g := graph.FromCSR(off, adj)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return g, nil
}

// readInt32sLE copies count little-endian int32s from data onto the
// heap.
func readInt32sLE(data []byte, count int) []int32 {
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return out
}

// mmapSupported reports whether OpenMapped can serve graphs zero-copy
// on this build.
const mmapSupported = mmapfile.Supported

// hostLittleEndian reports whether int32 loads through unsafe match
// the file's little-endian layout, the precondition for serving CSR
// slices straight out of a mapping.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// OpenMapped opens a verified v2 graph file (verifyV2), backing the
// returned graph's CSR arrays directly by an mmap region when the
// platform allows (unix, little-endian, 4-byte mapping alignment —
// all true in practice; anything else falls back to a heap decode, and
// mapped reports which happened). The mapping is released by a
// finalizer when the graph becomes unreachable, so cache eviction or
// store deletion while a fit still holds the graph is safe — the pages
// stay valid until the last reference drops. The file must be a v2
// file (ErrBadVersion otherwise); callers sniff the version first.
func OpenMapped(path string) (g *graph.Graph, mapped bool, err error) {
	mf, err := mmapfile.Open(path)
	if err != nil {
		return nil, false, err
	}
	data := mf.Bytes()
	n, m, adjPos, err := verifyV2(data)
	if err != nil || !mf.Mapped() || !hostLittleEndian || uintptr(unsafe.Pointer(&data[0]))%4 != 0 {
		// Heap route (non-unix, exotic alignment, big-endian): decode a
		// private copy and drop the mapping.
		defer mf.Close()
		if err != nil {
			return nil, false, err
		}
		g, err := decodeV2Payload(data[:len(data)-checksumLen], 0)
		return g, false, err
	}
	off := unsafe.Slice((*int32)(unsafe.Pointer(&data[v2HeaderLen])), n+1)
	adj := unsafe.Slice((*int32)(unsafe.Pointer(&data[adjPos])), 2*m)
	g = graph.FromCSR(off, adj)
	runtime.SetFinalizer(g, func(*graph.Graph) { mf.Close() })
	return g, true, nil
}

// verifyV2 checks a whole v2 file: its header, the trailing checksum
// over every preceding byte, and the off[0]/off[n] anchors.
func verifyV2(data []byte) (n, m int, adjPos int64, err error) {
	if n, m, adjPos, err = parseV2Header(data, int64(len(data))); err != nil {
		return 0, 0, 0, err
	}
	sum := sha256.Sum256(data[:len(data)-checksumLen])
	if subtle.ConstantTimeCompare(sum[:], data[len(data)-checksumLen:]) != 1 {
		return 0, 0, 0, ErrChecksum
	}
	return n, m, adjPos, v2SpotCheck(data, n, m)
}

// Version sniffs the DPKG format version of an encoded graph: 1 or 2.
func Version(data []byte) (int, error) {
	if len(data) < 5 {
		return 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return 0, ErrBadMagic
	}
	v, k := binary.Uvarint(data[4:])
	if k <= 0 || v != codecVersion && v != codecVersion2 {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return int(v), nil
}
