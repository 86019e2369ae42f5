// Package frame is the module's one durable log, shared by the job
// journal (internal/journal) and the privacy ledger
// (internal/accountant). Log owns the whole file discipline — the
// header, incremental reads, torn-tail repair, durable appends and
// atomic rewrites — so its callers keep only their record schemas,
// their folds and their lock policies.
//
// A log file is a header of HeaderLen bytes — a 4-byte magic, a
// version byte and an 8-byte random file id — followed by a run of
// self-delimiting frames, each a uvarint payload length, the payload (a
// record's compact JSON), and the first 8 bytes of the payload's
// SHA-256. The header is written only by an atomic create or rewrite,
// which draws a fresh id, so a reader that finds a different id knows
// the file was replaced and reads it again from the start.
//
// Decoding tells a torn tail — an incomplete final frame, the
// signature of a crash mid-append, which a read leaves out and the next
// append cuts — from interior corruption — a checksum or structural
// failure with complete bytes on both sides, which is damage and
// reported as an error wrapping the caller's own sentinel, never
// repaired silently.
package frame

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"dpkron/internal/faultfs"
)

// sumLen is the length of the checksum closing every frame.
const sumLen = 8

// HeaderLen is the length of a log header: magic, version and file id.
const HeaderLen = 4 + 1 + 8

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

// Format describes one kind of log file.
type Format struct {
	// Magic is the 4-byte magic followed by the version byte.
	Magic string
	// What names the log in errors ("journal", "ledger").
	What string
	// MaxLen caps one frame's payload on decode, so a corrupt length
	// cannot force a huge allocation.
	MaxLen uint64
	// Corrupt is the sentinel that interior damage wraps.
	Corrupt error
	// Convert, when set, reads a whole file that does not begin with
	// Magic (an older format) and returns its records as frames; Log
	// then rewrites the file under Magic holding them. Without Convert
	// such a file is corrupt.
	Convert func(data []byte) (frames []byte, err error)
}

// Decode checks data's header and walks its frames (see Decode). Data
// shorter than a header, or not beginning with Magic, is an error
// wrapping Corrupt with end 0: a header is only ever written whole, so
// a short one means the history was lost, not torn.
func (f Format) Decode(data []byte, fn func(off int64, payload []byte) error) (end int64, err error) {
	if len(data) < HeaderLen || !bytes.HasPrefix(data, []byte(f.Magic)) {
		return 0, fmt.Errorf("%w: bad header", f.Corrupt)
	}
	return Decode(data[HeaderLen:], HeaderLen, f.MaxLen, f.Corrupt, fn)
}

// Log is one framed append-only file. It keeps the id of the header it
// last read or wrote and the offset past the last whole frame, so a
// Read decodes only what was appended since. A Log is not safe for
// concurrent use: its owner serializes calls, and takes whatever file
// lock it needs to share the file with other processes.
type Log struct {
	fsys   faultfs.FS
	path   string
	format Format
	hold   bool

	id   string       // the file id of the header last read or written
	size int64        // offset past the last whole frame; 0 while the file has no header
	end  int64        // the file's length as last seen, past size when a torn tail follows
	f    faultfs.File // the held append handle, in hold mode
	// OnSync, when set, receives the duration of each successful fsync.
	OnSync func(time.Duration)
}

// NewLog returns a Log of format at path; it touches nothing on disk.
// With hold, the Log keeps one append handle open from the first read
// or write that finds a header until Close — for a file with a single
// lifetime owner. Otherwise each Append opens and closes the file.
func NewLog(fsys faultfs.FS, path string, format Format, hold bool) *Log {
	return &Log{fsys: fsys, path: path, format: format, hold: hold}
}

func (l *Log) errorf(step string, err error) error {
	return fmt.Errorf("%s %s %s: %w", step, l.format.What, l.path, err)
}

// Read brings the caller's fold up to date, calling apply on each whole
// frame not yet read. Only the bytes appended since the last Read or
// Append are read, unless the file is new to this Log, was replaced
// (its id changed) or shrank: then reset is called and the whole file
// is read, converting an older format first. A missing file is an
// empty log. A torn final frame is left out; after interior damage (an
// error wrapping Corrupt) the next Read starts over from reset.
func (l *Log) Read(reset func(), apply func(off int64, payload []byte) error) error {
	fi, err := l.fsys.Stat(l.path)
	switch {
	case os.IsNotExist(err):
		l.forget()
		reset()
		return nil
	case err != nil:
		return l.errorf("opening", err)
	case l.size == 0 || fi.Size() < l.size:
		return l.readAll(reset, apply)
	}
	f, err := l.fsys.Open(l.path)
	if err != nil {
		return l.errorf("opening", err)
	}
	defer f.Close()
	buf := make([]byte, HeaderLen+fi.Size()-l.size)
	if _, err := f.ReadAt(buf[:HeaderLen], 0); err != nil {
		return l.errorf("reading", err)
	}
	if string(buf[len(l.format.Magic):HeaderLen]) != l.id {
		return l.readAll(reset, apply)
	}
	if _, err := f.ReadAt(buf[HeaderLen:], l.size); err != nil && err != io.EOF {
		return l.errorf("reading", err)
	}
	end, err := Decode(buf[HeaderLen:], l.size, l.format.MaxLen, l.format.Corrupt, apply)
	if err != nil {
		l.size = 0 // frames before the damage may have been applied
		return l.errorf("reading", err)
	}
	l.size, l.end = end, fi.Size()
	return nil
}

// readAll replaces the caller's fold with the fold of the whole file.
func (l *Log) readAll(reset func(), apply func(off int64, payload []byte) error) error {
	l.forget()
	reset()
	data, err := l.fsys.ReadFile(l.path)
	if err != nil {
		return l.errorf("reading", err)
	}
	end, err := l.format.Decode(data, apply)
	if err != nil && end == 0 && l.format.Convert != nil {
		// Not this format's header: an older format.
		frames, err := l.format.Convert(data)
		if err != nil {
			return l.errorf("converting", err)
		}
		if err := l.Rewrite(frames); err != nil {
			return err
		}
		return l.readAll(reset, apply)
	}
	if err != nil {
		return l.errorf("reading", err)
	}
	err = l.adopt(data, end)
	l.end = int64(len(data))
	return err
}

// adopt takes header's file id as the log's, with size bytes of the
// file whole, and, in hold mode, opens the append handle on the file.
func (l *Log) adopt(header []byte, size int64) error {
	l.forget()
	l.id, l.size, l.end = string(header[len(l.format.Magic):HeaderLen]), size, size
	if !l.hold {
		return nil
	}
	f, err := l.fsys.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return l.errorf("opening", err)
	}
	l.f = f
	return nil
}

// forget drops what the log knew of a file that is gone or replaced,
// closing the held append handle; it returns the error of that close.
func (l *Log) forget() (err error) {
	if l.f != nil {
		err = l.f.Close()
		l.f = nil
	}
	l.size, l.end = 0, 0
	return err
}

// Append durably appends payload as one frame. A file without a header
// is created whole by an atomic write. Otherwise a torn tail past the
// last whole frame is cut first, and with sync the frame is fsynced
// before Append returns. A failed write, fsync or close truncates the
// file back, so it never holds a frame the caller was told failed.
func (l *Log) Append(payload []byte, sync bool) error {
	if l.size == 0 {
		return l.Rewrite(Append(nil, payload))
	}
	if l.end > l.size {
		if err := l.fsys.Truncate(l.path, l.size); err != nil {
			return l.errorf("cutting the torn tail of", err)
		}
		l.end = l.size
	}
	f := l.f
	if f == nil {
		var err error
		if f, err = l.fsys.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return l.errorf("opening", err)
		}
		if l.hold {
			l.f = f
		}
	}
	buf := Append(nil, payload)
	_, err := f.Write(buf)
	if err == nil && sync {
		start := time.Now()
		if err = f.Sync(); err == nil && l.OnSync != nil {
			l.OnSync(time.Since(start))
		}
	}
	if !l.hold {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		// The frame may have landed in part or in whole: cut it, or
		// leave it for the next Append to cut.
		l.end = l.size + int64(len(buf))
		if l.fsys.Truncate(l.path, l.size) == nil {
			l.end = l.size
		}
		return l.errorf("appending to", err)
	}
	l.size += int64(len(buf))
	l.end = l.size
	return nil
}

// Rewrite atomically replaces the whole file with frames, a run of
// whole frames (see Append), under a fresh file id; other Logs on the
// file then read it again from the start. The caller's fold must match
// frames.
func (l *Log) Rewrite(frames []byte) error {
	header := make([]byte, HeaderLen)
	copy(header, l.format.Magic)
	if _, err := rand.Read(header[len(l.format.Magic):]); err != nil {
		return l.errorf("drawing a file id for", err)
	}
	if err := faultfs.WriteAtomicFunc(l.fsys, l.path, l.format.What, func(w io.Writer) error {
		_, err := io.Copy(w, io.MultiReader(bytes.NewReader(header), bytes.NewReader(frames)))
		return err
	}); err != nil {
		return fmt.Errorf("%s: %w", l.path, err)
	}
	return l.adopt(header, int64(len(header)+len(frames)))
}

// Close fsyncs and closes the held append handle, if any.
func (l *Log) Close() (err error) {
	if l.f != nil {
		err = l.f.Sync()
	}
	if cerr := l.forget(); err == nil {
		err = cerr
	}
	if err != nil {
		err = l.errorf("closing", err)
	}
	return err
}
