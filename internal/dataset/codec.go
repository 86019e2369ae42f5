// Package dataset is the persistent graph store behind fit-by-id: the
// DPKG binary CSR format, a content-addressed Store with atomic writes
// and cross-process locking, and streaming importers (SNAP text, gzip,
// Matrix Market, DPKG) that feed graph.Builder directly.
//
// The store writes one layout, DPKG v2 (codecv2.go): fixed-width CSR
// arrays that Load maps in O(1). The compact varint layout, DPKG v1
// (below), is read-only: stores and uploads written by older binaries
// still decode, but nothing writes v1 any more.
//
// The paper's estimator is run repeatedly against the same sensitive
// graph (the ε-sweeps of Table 1), and the budget accountant already
// charges spends against content-addressed dataset ids — the store is
// where those datasets actually live. A graph is ingested once
// (`dpkron dataset import`, POST /v1/datasets) and every later fit
// references it by id, loading the binary form, which is bit-identical
// to parsing the original edge list and considerably faster.
package dataset

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dpkron/internal/graph"
)

// Legacy binary format ("DPKG", version 1), decoded but never written:
//
//	magic    [4]byte  "DPKG"
//	version  uvarint  (1)
//	nodes    uvarint  n
//	edges    uvarint  m
//	rows     for each node u in 0..n-1:
//	           cnt    uvarint  number of neighbours w with w > u
//	           gaps   cnt uvarints: first is w0-u-1, then w[i]-w[i-1]-1
//	checksum [32]byte SHA-256 of every preceding byte
//
// Only the upper adjacency (u < w) is stored — half the CSR — and the
// decoder rebuilds the symmetric form through the same two-pass fill
// graph.Builder uses, so the decoded graph is bit-identical to the one
// an older binary encoded. The trailing checksum makes torn or
// bit-rotted files a typed error instead of a silently wrong graph.

// Typed decode errors. Decode failures wrap exactly one of these, so
// callers can distinguish wrong-file-type (ErrBadMagic) from damage
// (ErrTruncated, ErrChecksum, ErrCorrupt) from version skew.
var (
	ErrBadMagic   = errors.New("dataset: not a DPKG graph file")
	ErrBadVersion = errors.New("dataset: unsupported DPKG version")
	ErrTruncated  = errors.New("dataset: truncated DPKG graph file")
	ErrChecksum   = errors.New("dataset: DPKG checksum mismatch")
	ErrCorrupt    = errors.New("dataset: corrupt DPKG graph file")
)

var magic = [4]byte{'D', 'P', 'K', 'G'}

const (
	codecVersion = 1
	checksumLen  = sha256.Size
)

// Unmarshal decodes a DPKG-encoded graph, verifying the checksum
// before parsing. Damaged input returns an error wrapping one of the
// typed errors above; it never panics.
func Unmarshal(data []byte) (*graph.Graph, error) {
	return UnmarshalLimit(data, 0)
}

// UnmarshalLimit is Unmarshal with a node-count cap (0 = none): input
// whose header declares more than maxNodes nodes is rejected as soon
// as the header varint is parsed, before the O(n+m) graph arrays are
// allocated. Servers use it so a hostile upload cannot decode into
// arrays far larger than the upload itself.
func UnmarshalLimit(data []byte, maxNodes int) (*graph.Graph, error) {
	if len(data) < len(magic) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, ErrBadMagic
	}
	if len(data) < len(magic)+1+checksumLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	payload, sum := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	want := sha256.Sum256(payload)
	if subtle.ConstantTimeCompare(want[:], sum) != 1 {
		return nil, ErrChecksum
	}
	return decodePayloadLimit(payload, maxNodes)
}

// decodePayload parses the checksummed region (magic through rows).
// It is split from Unmarshal so the fuzz harness can drive the parser
// directly, without a valid checksum shielding it from mutated input.
func decodePayload(payload []byte) (*graph.Graph, error) {
	return decodePayloadLimit(payload, 0)
}

func decodePayloadLimit(payload []byte, maxNodes int) (*graph.Graph, error) {
	if len(payload) < len(magic) || [4]byte(payload[:4]) != magic {
		return nil, ErrBadMagic
	}
	p := payload[4:]
	version, p, err := uvarint(p)
	if err != nil {
		return nil, err
	}
	if version == codecVersion2 {
		// The v2 mmap layout: fixed-width sections at absolute offsets,
		// so the decoder works on the original payload, not the cursor.
		return decodeV2Payload(payload, maxNodes)
	}
	if version != codecVersion {
		return nil, fmt.Errorf("%w: %d (decoder knows %d and %d)", ErrBadVersion, version, codecVersion, codecVersion2)
	}
	nodes, p, err := uvarint(p)
	if err != nil {
		return nil, err
	}
	if maxNodes > 0 && nodes > uint64(maxNodes) {
		return nil, fmt.Errorf("dataset: input has %d nodes, exceeding the cap of %d", nodes, maxNodes)
	}
	edges, p, err := uvarint(p)
	if err != nil {
		return nil, err
	}
	// Every node costs at least one byte (its count varint) and every
	// edge at least one byte (its gap varint), so both are bounded by
	// the remaining payload — reject absurd headers before allocating
	// anything proportional to them.
	if nodes > uint64(len(p)) || nodes >= 1<<31 {
		return nil, fmt.Errorf("%w: %d nodes in %d payload bytes", ErrCorrupt, nodes, len(p))
	}
	if edges > uint64(len(p)) {
		return nil, fmt.Errorf("%w: %d edges in %d payload bytes", ErrCorrupt, edges, len(p))
	}
	n, m := int(nodes), int(edges)
	// The edge header is attacker-controlled (the checksum proves
	// nothing — an attacker computes both), so like the importers'
	// declared entry counts it is only a capacity hint: clamp it so a
	// padded upload declaring 1e9 edges cannot force an 8x-amplified
	// up-front allocation. Growth by append stays bounded by the gap
	// varints actually present, and the row/total checks below still
	// hold the file to exactly m edges.
	hint := m
	if hint > maxEdgeHint {
		hint = maxEdgeHint
	}
	pairs := make([]int64, 0, hint)
	for u := 0; u < n; u++ {
		cnt, rest, err := uvarint(p)
		if err != nil {
			return nil, err
		}
		p = rest
		if cnt > uint64(len(p)) || len(pairs)+int(cnt) > m {
			return nil, fmt.Errorf("%w: row %d claims %d neighbours", ErrCorrupt, u, cnt)
		}
		w := u
		for i := uint64(0); i < cnt; i++ {
			gap, rest, err := uvarint(p)
			if err != nil {
				return nil, err
			}
			p = rest
			// Bound the gap itself before the addition: a crafted
			// gap near 2^64 would otherwise wrap next past the range
			// check below (n < 2^31, so in-range gaps are < n).
			if gap >= uint64(n) {
				return nil, fmt.Errorf("%w: row %d neighbour gap %d out of range", ErrCorrupt, u, gap)
			}
			next := uint64(w) + 1 + gap
			if next >= uint64(n) {
				return nil, fmt.Errorf("%w: row %d neighbour %d out of range [0, %d)", ErrCorrupt, u, next, n)
			}
			w = int(next)
			pairs = append(pairs, int64(u)<<32|int64(w))
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after rows", ErrCorrupt, len(p))
	}
	if len(pairs) != m {
		return nil, fmt.Errorf("%w: header claims %d edges, rows hold %d", ErrCorrupt, m, len(pairs))
	}
	// pairs is sorted and duplicate-free by construction (rows ascend,
	// gaps are strictly positive), so Build skips its sort and fills the
	// identical CSR arrays the original graph held.
	b := graph.NewBuilderCap(n, m)
	b.AddPackedEdges(pairs)
	return b.Build(), nil
}

// uvarint decodes one varint from p, returning the value and the rest.
func uvarint(p []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(p)
	switch {
	case k > 0:
		return v, p[k:], nil
	case k == 0:
		return 0, nil, fmt.Errorf("%w: unexpected end of varint", ErrTruncated)
	default:
		return 0, nil, fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
	}
}

// DecodeBinaryLimit reads a DPKG-encoded graph (either version) from r
// to EOF and decodes it with UnmarshalLimit's node cap.
func DecodeBinaryLimit(r io.Reader, maxNodes int) (*graph.Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading graph: %w", err)
	}
	return UnmarshalLimit(data, maxNodes)
}
