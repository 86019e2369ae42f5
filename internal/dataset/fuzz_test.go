package dataset

import (
	"testing"
)

// FuzzDatasetRoundTrip drives the binary codec with arbitrary bytes:
// anything that decodes, in either layout, must re-encode through
// EncodeV2 (the only layout written) to a decodable, equal graph, and
// bytes that do not decode must fail with an error — never a panic.
// The harness exercises both the checksum-gated Unmarshal and the raw
// payload parser, so mutated inputs cannot hide behind the checksum.
func FuzzDatasetRoundTrip(f *testing.F) {
	for _, g := range testGraphs(f) {
		f.Add(marshalV1(g))
		f.Add(marshalV2(g)) // the mmap layout shares the decode entry points
	}
	f.Add([]byte{})
	f.Add([]byte("DPKG"))
	f.Add([]byte("# Nodes: 4\n0 1\n"))
	f.Add([]byte{'D', 'P', 'K', 'G', 1, 3, 2, 1, 0, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The full decoder: checksum then parse.
		if g, err := Unmarshal(data); err == nil {
			// Note: encode(decode(data)) == data byte-for-byte would be
			// too strong (a v1 input re-encodes as v2, and
			// binary.Uvarint accepts padded varints); the graph itself
			// must survive the round trip exactly.
			re := marshalV2(g)
			back, err := Unmarshal(re)
			if err != nil {
				t.Fatalf("re-encoded graph does not decode: %v", err)
			}
			if !g.Equal(back) {
				t.Fatal("round trip changed the graph")
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("decoded graph violates CSR invariants: %v", err)
			}
		}
		// The raw parser, reachable by checksum-valid mutations only:
		// fuzz it directly so its guards see hostile structure.
		if g, err := decodePayload(data); err == nil {
			back, err := Unmarshal(marshalV2(g))
			if err != nil || !g.Equal(back) {
				t.Fatalf("payload-decoded graph does not round-trip: %v", err)
			}
		}
	})
}
