// Package frame is the module's one durable record format, shared by
// the job journal (internal/journal) and the privacy ledger
// (internal/accountant). After a store's own header, a file is a run
// of self-delimiting frames, each a uvarint payload length, the
// payload (a record's compact JSON), and the first 8 bytes of the
// payload's SHA-256.
//
// Decoding tells a torn tail — an incomplete final frame, the
// signature of a crash mid-append, which a store truncates away — from
// interior corruption — a checksum or structural failure with complete
// bytes on both sides, which is damage and reported as an error
// wrapping the store's own sentinel, never repaired silently.
package frame

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// sumLen is the length of the checksum closing every frame.
const sumLen = 8

// Append appends payload to dst as one frame and returns the extended
// slice.
func Append(dst, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return append(dst, sum[:sumLen]...)
}

// Decode walks the frames in data, which starts at file offset base,
// calling fn with each payload and the offset of its frame. It returns
// the offset just past the last whole frame fn accepted. A torn tail is
// not an error: Decode stops before it. A frame whose length varint is
// invalid, whose length exceeds maxLen, or whose checksum does not
// match is an error wrapping corrupt; an error from fn stops the walk
// and is returned as is. Decode never panics on hostile input.
func Decode(data []byte, base int64, maxLen uint64, corrupt error, fn func(off int64, payload []byte) error) (end int64, err error) {
	off, rest := base, data
	for len(rest) > 0 {
		n, ln := binary.Uvarint(rest)
		if ln <= 0 {
			if len(rest) < binary.MaxVarintLen64 {
				return off, nil // torn length varint
			}
			return off, fmt.Errorf("%w: invalid frame length at offset %d", corrupt, off)
		}
		if n > maxLen {
			return off, fmt.Errorf("%w: frame of %d bytes at offset %d exceeds the %d-byte cap", corrupt, n, off, maxLen)
		}
		size := int64(ln) + int64(n) + sumLen
		if int64(len(rest)) < size {
			return off, nil // torn payload or checksum
		}
		payload := rest[ln : int64(ln)+int64(n)]
		sum := sha256.Sum256(payload)
		if string(rest[int64(ln)+int64(n):size]) != string(sum[:sumLen]) {
			return off, fmt.Errorf("%w: checksum mismatch at offset %d", corrupt, off)
		}
		if err := fn(off, payload); err != nil {
			return off, err
		}
		off += size
		rest = rest[size:]
	}
	return off, nil
}
