package dataset

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dpkron/internal/graph"
)

// ErrTooLarge marks input whose decompressed size exceeds
// DecodeOptions.MaxBytes. Servers map it to 413.
var ErrTooLarge = errors.New("dataset: input exceeds the size limit")

// Format identifies a source graph encoding the importers understand.
type Format string

const (
	// FormatSNAP is whitespace-separated edge-list text with '#'
	// comments — the format the paper's datasets ship in.
	FormatSNAP Format = "snap"
	// FormatMatrixMarket is the NIST coordinate format (%%MatrixMarket
	// banner, 1-based "i j [value]" entries).
	FormatMatrixMarket Format = "mtx"
	// FormatBinary is this package's DPKG binary CSR encoding.
	FormatBinary Format = "dpkg"
)

// DecodeOptions bounds what an import will accept.
type DecodeOptions struct {
	// MaxNodes rejects inputs implying more than this many nodes before
	// the O(n) graph arrays are allocated (0 = no bound). Servers use it
	// so a tiny hostile upload naming node id 2e9 cannot force a
	// multi-gigabyte allocation.
	MaxNodes int
	// MaxBytes bounds the decompressed input size (0 = no bound), so a
	// gzip bomb cannot expand past what an uncompressed upload of the
	// same cap could ship. Exceeding it fails with ErrTooLarge.
	MaxBytes int64
}

// DecodeGraph reads a graph from r, transparently gunzipping (by the
// 1f 8b magic) and auto-detecting the format: the DPKG binary codec,
// Matrix Market coordinate files (%%MatrixMarket banner), or SNAP
// edge-list text. It returns the graph and the detected source format
// ("snap", "mtx", "dpkg", with "+gzip" appended when compressed).
// Importers stream straight into a graph.Builder — no intermediate
// [][2]int edge slice is ever materialized.
func DecodeGraph(r io.Reader, opt DecodeOptions) (*graph.Graph, Format, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	gzipped, err := sniffGzip(br)
	if err != nil {
		return nil, "", err
	}
	src := br
	if gzipped {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, "", fmt.Errorf("dataset: opening gzip stream: %w", err)
		}
		defer gz.Close()
		var inner io.Reader = gz
		if opt.MaxBytes > 0 {
			inner = &limitReader{r: gz, limit: opt.MaxBytes, n: opt.MaxBytes}
		}
		src = bufio.NewReaderSize(inner, 1<<16)
	}
	format, g, err := decodeSniffed(src, opt)
	if gzipped {
		format += "+gzip"
	}
	return g, format, err
}

// limitReader errors — rather than silently truncating like
// io.LimitReader — once more than limit bytes have been read, so an
// over-limit stream can never parse as a valid smaller graph.
type limitReader struct {
	r        io.Reader
	limit, n int64
}

func (l *limitReader) Read(p []byte) (int, error) {
	k, err := l.r.Read(p)
	l.n -= int64(k)
	if l.n < 0 {
		return k, fmt.Errorf("%w: more than %d decompressed bytes", ErrTooLarge, l.limit)
	}
	return k, err
}

// sniffGzip reports whether the stream starts with the gzip magic,
// consuming nothing.
func sniffGzip(br *bufio.Reader) (bool, error) {
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return false, fmt.Errorf("dataset: sniffing input: %w", err)
	}
	return len(head) == 2 && head[0] == 0x1f && head[1] == 0x8b, nil
}

// decodeSniffed detects the (uncompressed) format by its leading bytes
// and parses accordingly.
func decodeSniffed(br *bufio.Reader, opt DecodeOptions) (Format, *graph.Graph, error) {
	head, err := br.Peek(len(magic))
	if err != nil && err != io.EOF {
		return "", nil, fmt.Errorf("dataset: sniffing input: %w", err)
	}
	if len(head) == len(magic) && [4]byte(head) == magic {
		// The cap is enforced inside the decoder, right after the node
		// header varint, so an over-cap file never allocates its arrays.
		g, err := DecodeBinaryLimit(br, opt.MaxNodes)
		return FormatBinary, g, err
	}
	if line, _ := br.Peek(len(mmBanner)); strings.HasPrefix(string(line), mmBanner) {
		g, err := decodeMatrixMarket(br, opt)
		return FormatMatrixMarket, g, err
	}
	g, err := decodeSNAP(br, opt)
	return FormatSNAP, g, err
}

// decodeSNAP streams edge-list text into a Builder through the shared
// graph-package parser, which enforces opt.MaxNodes before allocation.
func decodeSNAP(r io.Reader, opt DecodeOptions) (*graph.Graph, error) {
	return graph.ReadEdgeListLimit(r, 0, opt.MaxNodes)
}

const mmBanner = "%%MatrixMarket"

// maxEdgeHint caps how many edge slots a declared-but-unverified entry
// count may pre-allocate (8 MiB of packed pairs); real inputs beyond
// it just grow by append.
const maxEdgeHint = 1 << 20

// decodeMatrixMarket parses the coordinate Matrix Market format as an
// undirected simple graph: banner, '%' comments, a "rows cols nnz"
// size line, then 1-based "i j [value]" entries streamed directly into
// a Builder (values ignored; loops dropped; both symmetric and general
// symmetry accepted since the graph is undirected either way).
func decodeMatrixMarket(r *bufio.Reader, opt DecodeOptions) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() {
		return nil, fmt.Errorf("dataset: matrix market: missing banner")
	}
	banner := strings.Fields(sc.Text())
	// %%MatrixMarket matrix coordinate <field> <symmetry>
	if len(banner) < 3 || !strings.EqualFold(banner[1], "matrix") || !strings.EqualFold(banner[2], "coordinate") {
		return nil, fmt.Errorf("dataset: matrix market: unsupported header %q (want matrix coordinate)", sc.Text())
	}
	var b *graph.Builder
	var n, want, got int
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if b == nil {
			// Size line: rows cols nnz.
			if len(fields) != 3 {
				return nil, fmt.Errorf("dataset: matrix market line %d: want 'rows cols nnz', got %q", line, text)
			}
			rows, err1 := strconv.Atoi(fields[0])
			cols, err2 := strconv.Atoi(fields[1])
			nnz, err3 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || err3 != nil || rows < 0 || cols < 0 || nnz < 0 {
				return nil, fmt.Errorf("dataset: matrix market line %d: bad size line %q", line, text)
			}
			if rows != cols {
				return nil, fmt.Errorf("dataset: matrix market: %dx%d matrix is not square (adjacency required)", rows, cols)
			}
			if opt.MaxNodes > 0 && rows > opt.MaxNodes {
				return nil, fmt.Errorf("dataset: input declares %d nodes, exceeding the cap of %d", rows, opt.MaxNodes)
			}
			if rows > 1<<31-1 {
				return nil, fmt.Errorf("dataset: input declares %d nodes, exceeding the CSR limit", rows)
			}
			if int64(nnz) > int64(rows)*int64(rows) {
				return nil, fmt.Errorf("dataset: matrix market: %d entries impossible in a %dx%d matrix", nnz, rows, rows)
			}
			n = rows
			// The declared nnz is attacker-controlled until the entries
			// are actually read, so it is only a capacity hint: clamp it
			// so a tiny upload declaring a huge count cannot force a
			// large up-front allocation. The got/want checks below still
			// hold the input to the declared count exactly.
			hint := nnz
			if hint > maxEdgeHint {
				hint = maxEdgeHint
			}
			b, want = graph.NewBuilderCap(n, hint), nnz
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("dataset: matrix market line %d: want 'i j', got %q", line, text)
		}
		i, err1 := strconv.Atoi(fields[0])
		j, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || i < 1 || j < 1 || i > n || j > n {
			return nil, fmt.Errorf("dataset: matrix market line %d: entry %q out of range [1, %d]", line, text, n)
		}
		got++
		if got > want {
			return nil, fmt.Errorf("dataset: matrix market: more than the declared %d entries", want)
		}
		if i != j {
			b.AddEdge(i-1, j-1)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading matrix market: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("dataset: matrix market: missing size line")
	}
	if got != want {
		return nil, fmt.Errorf("dataset: matrix market: %w: %d of %d declared entries", ErrTruncated, got, want)
	}
	return b.Build(), nil
}
