package dataset

import (
	"bytes"
	"compress/gzip"
	"errors"
	"strings"
	"testing"

	"dpkron/internal/graph"
)

func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	if _, err := gw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeGraphFormats(t *testing.T) {
	// One triangle plus a pendant, in every accepted source form.
	want := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	snap := "# toy\n0 1\n1 2\n0 2\n2 3\n"
	mtx := "%%MatrixMarket matrix coordinate pattern symmetric\n% toy\n4 4 4\n1 2\n2 3\n1 3\n3 4\n"
	bin := Marshal(want)

	for name, tc := range map[string]struct {
		data []byte
		want Format
	}{
		"snap":      {[]byte(snap), FormatSNAP},
		"snap+gzip": {gzipBytes(t, []byte(snap)), "snap+gzip"},
		"mtx":       {[]byte(mtx), FormatMatrixMarket},
		"mtx+gzip":  {gzipBytes(t, []byte(mtx)), "mtx+gzip"},
		"dpkg":      {bin, FormatBinary},
		"dpkg+gzip": {gzipBytes(t, bin), "dpkg+gzip"},
	} {
		g, format, err := DecodeGraph(bytes.NewReader(tc.data), DecodeOptions{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if format != tc.want {
			t.Errorf("%s: detected format %q, want %q", name, format, tc.want)
		}
		if !g.Equal(want) {
			t.Errorf("%s: decoded graph differs", name)
		}
	}
}

func TestDecodeGraphMatrixMarketErrors(t *testing.T) {
	for name, in := range map[string]string{
		"array-format":   "%%MatrixMarket matrix array real general\n2 2\n1\n0\n1\n1\n",
		"rectangular":    "%%MatrixMarket matrix coordinate pattern general\n3 4 1\n1 2\n",
		"bad-size-line":  "%%MatrixMarket matrix coordinate pattern general\nx y z\n",
		"entry-range":    "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 9\n",
		"zero-based":     "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
		"missing-size":   "%%MatrixMarket matrix coordinate pattern general\n% only comments\n",
		"truncated":      "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n2 3\n",
		"excess-entries": "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n2 3\n",
		"impossible-nnz": "%%MatrixMarket matrix coordinate pattern general\n2 2 1000000000\n1 2\n",
	} {
		if _, _, err := DecodeGraph(strings.NewReader(in), DecodeOptions{}); err == nil {
			t.Errorf("%s: decoded successfully, want error", name)
		}
	}
}

func TestDecodeGraphMatrixMarketValuesIgnored(t *testing.T) {
	// real/integer coordinate files carry a value column; the adjacency
	// import ignores it (and merges the symmetric duplicates).
	in := "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 2 0.5\n2 1 0.5\n2 3 1.0\n3 3 9\n"
	g, _, err := DecodeGraph(strings.NewReader(in), DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if !g.Equal(want) {
		t.Errorf("decoded %d edges on %d nodes, want 2 on 3", g.NumEdges(), g.NumNodes())
	}
}

func TestDecodeGraphMaxNodes(t *testing.T) {
	for name, in := range map[string]string{
		"snap-id":     "0 999999\n",
		"snap-header": "# Nodes: 999999\n0 1\n",
		"mtx":         "%%MatrixMarket matrix coordinate pattern general\n999999 999999 1\n1 2\n",
	} {
		if _, _, err := DecodeGraph(strings.NewReader(in), DecodeOptions{MaxNodes: 1000}); err == nil {
			t.Errorf("%s: decoded successfully, want node-cap error", name)
		}
		// The same input passes without the cap.
		if _, _, err := DecodeGraph(strings.NewReader(in), DecodeOptions{}); err != nil {
			t.Errorf("%s without cap: %v", name, err)
		}
	}
	// Binary inputs are also capped.
	big := graph.Path(5000)
	if _, _, err := DecodeGraph(bytes.NewReader(Marshal(big)), DecodeOptions{MaxNodes: 1000}); err == nil {
		t.Error("dpkg over cap decoded successfully")
	}
}

func TestDecodeGraphMaxBytes(t *testing.T) {
	// A megabyte of repeated edges gzips to a few KiB; with MaxBytes
	// below the decompressed size the bomb is a typed ErrTooLarge, not
	// a silently truncated (but valid-looking) smaller graph.
	bomb := gzipBytes(t, bytes.Repeat([]byte("0 1\n"), 1<<18))
	if _, _, err := DecodeGraph(bytes.NewReader(bomb), DecodeOptions{MaxBytes: 1 << 16}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("gzip bomb: got %v, want ErrTooLarge", err)
	}
	// The same stream passes once the cap accommodates it.
	if _, _, err := DecodeGraph(bytes.NewReader(bomb), DecodeOptions{MaxBytes: 1 << 23}); err != nil {
		t.Fatalf("in-cap gzip: %v", err)
	}
}

func TestDecodeGraphMatrixMarketHugeDeclaredNnz(t *testing.T) {
	// A tiny upload declaring two billion entries must fail on the
	// entry-count mismatch, not pre-allocate gigabytes for the
	// declared count (the hint is clamped to maxEdgeHint).
	in := "%%MatrixMarket matrix coordinate pattern general\n50000 50000 2000000000\n1 2\n"
	if _, _, err := DecodeGraph(strings.NewReader(in), DecodeOptions{}); err == nil {
		t.Error("decoded successfully, want truncation error")
	}
}

func TestDecodeGraphBadGzip(t *testing.T) {
	// A gzip magic followed by garbage must error, not hang or panic.
	if _, _, err := DecodeGraph(bytes.NewReader([]byte{0x1f, 0x8b, 0xff, 0x00}), DecodeOptions{}); err == nil {
		t.Error("garbage gzip decoded successfully")
	}
	// Empty input decodes as an empty SNAP graph, matching ReadEdgeList.
	g, format, err := DecodeGraph(bytes.NewReader(nil), DecodeOptions{})
	if err != nil || g.NumNodes() != 0 || format != FormatSNAP {
		t.Errorf("empty input: %v, %d nodes, format %q", err, g.NumNodes(), format)
	}
}
