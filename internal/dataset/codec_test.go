package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"dpkron/internal/graph"
	"dpkron/internal/pipeline"
	"dpkron/internal/randx"
	"dpkron/internal/skg"
)

// testGraphs returns a spread of shapes the codec must round-trip:
// degenerate, structured, isolated-node-bearing, and realistic SKG
// samples.
func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	withIsolated := graph.NewBuilder(50)
	withIsolated.AddEdge(0, 1)
	withIsolated.AddEdge(30, 7)
	withIsolated.AddEdge(48, 49)
	m, err := skg.NewModel(skg.Initiator{A: 0.99, B: 0.55, C: 0.35}, 10)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*graph.Graph{
		"empty":        graph.Empty(0),
		"nodes-only":   graph.Empty(17),
		"single-edge":  graph.FromEdges(2, [][2]int{{0, 1}}),
		"path":         graph.Path(100),
		"cycle":        graph.Cycle(64),
		"star":         graph.Star(33),
		"complete":     graph.Complete(20),
		"isolated":     withIsolated.Build(),
		"skg-k10":      must(m.SampleExactCtx(pipeline.New(nil, 4, nil), randx.New(42))),
		"skg-balldrop": must(skg.Model{Init: skg.Initiator{A: 0.99, B: 0.45, C: 0.25}, K: 12}.SampleBallDropNCtx(nil, randx.New(7), 3000)),
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		data := marshalV1(g)
		back, err := Unmarshal(data)
		if err != nil {
			t.Errorf("%s: decode failed: %v", name, err)
			continue
		}
		if !g.Equal(back) {
			t.Errorf("%s: round trip changed the graph", name)
		}
		if err := back.Validate(); err != nil {
			t.Errorf("%s: decoded graph invalid: %v", name, err)
		}
	}
}

// TestCodecBitIdenticalToTextParse: the acceptance property — loading
// from binary equals parsing the original edge-list text, bit for bit
// (same CSR arrays, so every downstream fixed-seed release matches).
func TestCodecBitIdenticalToTextParse(t *testing.T) {
	for name, g := range testGraphs(t) {
		var text bytes.Buffer
		if err := g.WriteEdgeList(&text); err != nil {
			t.Fatal(err)
		}
		fromText, err := graph.ReadEdgeList(&text, 0)
		if err != nil {
			t.Fatal(err)
		}
		fromBinary, err := Unmarshal(marshalV1(g))
		if err != nil {
			t.Fatal(err)
		}
		if !fromText.Equal(fromBinary) {
			t.Errorf("%s: binary load differs from text parse", name)
		}
	}
}

func TestCodecCompact(t *testing.T) {
	// The gap encoding should beat the text form comfortably on a
	// realistic sample: most gaps fit one varint byte vs ~12 text bytes
	// per edge line.
	g := testGraphs(t)["skg-k10"]
	var text bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	bin := len(marshalV1(g))
	if bin*3 > text.Len() {
		t.Errorf("binary form %d bytes vs text %d: want at least 3x smaller", bin, text.Len())
	}
}

func TestCodecErrors(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 5}, {0, 3}})
	good := marshalV1(g)

	t.Run("truncation", func(t *testing.T) {
		// Every proper prefix must fail cleanly — typed, never a panic.
		for cut := 0; cut < len(good); cut++ {
			_, err := Unmarshal(good[:cut])
			if err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", cut)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadMagic) {
				t.Fatalf("truncation to %d bytes: untyped error %v", cut, err)
			}
		}
	})

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte("NOPE"), good[4:]...)
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("bad magic: got %v, want ErrBadMagic", err)
		}
		if _, err := Unmarshal([]byte("DP")); !errors.Is(err, ErrTruncated) {
			t.Errorf("2-byte input: got %v, want ErrTruncated", err)
		}
	})

	t.Run("bad-checksum", func(t *testing.T) {
		for _, flip := range []int{5, len(good) / 2, len(good) - 1} {
			bad := bytes.Clone(good)
			bad[flip] ^= 0x40
			if _, err := Unmarshal(bad); !errors.Is(err, ErrChecksum) {
				t.Errorf("flipped byte %d: got %v, want ErrChecksum", flip, err)
			}
		}
	})

	t.Run("gap-wraparound-checksummed", func(t *testing.T) {
		// The wraparound payload behind a *valid* checksum: an attacker
		// controls both, so the public Unmarshal path must reject it —
		// with an error, never an AddPackedEdges panic.
		payload := []byte{'D', 'P', 'K', 'G', 1, 2, 1,
			1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0}
		sum := sha256.Sum256(payload)
		if _, err := Unmarshal(append(payload, sum[:]...)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("checksummed gap wraparound: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		bad := append(bytes.Clone(good), 0x00)
		if _, err := Unmarshal(bad); err == nil {
			t.Error("trailing garbage decoded successfully")
		}
	})

	t.Run("bad-version", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[4] = 99 // version varint
		if _, err := decodePayload(bad[:len(bad)-checksumLen]); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version 99: got %v, want ErrBadVersion", err)
		}
	})

	t.Run("node-cap-at-header", func(t *testing.T) {
		// A checksummed file declaring 2^30 nodes must be rejected at
		// the header varint — before any O(n) allocation — when a cap
		// is set, even though the payload itself is tiny.
		payload := []byte{'D', 'P', 'K', 'G', 1}
		payload = binary.AppendUvarint(payload, 1<<30)
		payload = binary.AppendUvarint(payload, 0)
		sum := sha256.Sum256(payload)
		if _, err := UnmarshalLimit(append(payload, sum[:]...), 1000); err == nil {
			t.Error("over-cap header decoded successfully")
		}
		// The in-range graph still decodes under the same cap.
		if _, err := UnmarshalLimit(good, 1000); err != nil {
			t.Errorf("in-cap graph: %v", err)
		}
	})

	t.Run("corrupt-payloads", func(t *testing.T) {
		// Hand-built payloads that pass no checksum gate: decodePayload
		// must reject each with ErrCorrupt/ErrTruncated, never panic.
		for name, payload := range map[string][]byte{
			"huge-node-count":  {'D', 'P', 'K', 'G', 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0},
			"huge-edge-count":  {'D', 'P', 'K', 'G', 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
			"row-count-lies":   {'D', 'P', 'K', 'G', 1, 2, 1, 5},          // row 0 claims 5 neighbours
			"neighbour-range":  {'D', 'P', 'K', 'G', 1, 2, 1, 1, 9},       // gap 9 -> neighbour 10 on 2 nodes
			"edges-undercount": {'D', 'P', 'K', 'G', 1, 3, 2, 1, 0, 0, 0}, // header claims 2, rows hold 1
			"varint-overflow":  {'D', 'P', 'K', 'G', 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
			"varint-cut":       {'D', 'P', 'K', 'G', 0x80},
			// gap near 2^64: w+1+gap must not wrap past the range check.
			"gap-wraparound": {'D', 'P', 'K', 'G', 1, 2, 1,
				1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0},
		} {
			g, err := decodePayload(payload)
			if err == nil {
				t.Errorf("%s: decoded to %d nodes, want error", name, g.NumNodes())
				continue
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Errorf("%s: untyped error %v", name, err)
			}
		}
	})
}

// must unwraps a (value, error) pair from a Run that is never
// cancelled, where an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
