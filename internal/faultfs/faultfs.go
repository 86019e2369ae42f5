// Package faultfs is the filesystem seam the module's durable stores
// write through, plus a deterministic fault injector for testing them.
//
// Every component that persists irreplaceable state — the privacy
// ledger, the dataset store, the release cache, and the job journal —
// performs its file operations against the FS interface instead of
// calling the os package directly. In production that indirection is
// free: OS is a zero-cost wrapper over os.*. In tests, an Injector
// wraps any FS and fails scripted operations — a rename that returns
// EIO, an fsync that never happens, a write that lands only half its
// bytes — so the crash-consistency claims those stores make (atomic
// rename, fsync-before-rename, torn-tail recovery) are proven against
// injected faults rather than assumed.
//
// The injector is deterministic: faults fire on the Nth matching
// operation, selected by operation kind and path substring, so a test
// can enumerate every fault point of a scenario (run once with a
// counting injector, then re-run failing at each counted point). A
// clock hook rides along for the same reason — time is an input the
// journal records, and tests pin it.
package faultfs

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"
)

// File is the subset of *os.File the durable stores need: sequential
// writes, durability, and close.
type File interface {
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// Reader is the read side of a file: sequential reads plus random
// access. The external-sort spill machinery streams runs back through
// it, and binary-searches merged runs with ReadAt.
type Reader interface {
	io.ReadCloser
	io.ReaderAt
}

// FS is the filesystem surface the durable stores write through. All
// paths are OS paths, semantics match the corresponding os functions.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Open opens a file for reading (os.Open semantics).
	Open(name string) (Reader, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	Stat(name string) (fs.FileInfo, error)
	MkdirAll(path string, perm fs.FileMode) error
	Truncate(name string, size int64) error
	// Now is the clock: recorded timestamps come from here so tests
	// can pin them.
	Now() time.Time
}

// OS is the production FS: direct delegation to the os package and
// time.Now.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		// Return a typed nil-free interface value only on success.
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (Reader, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Now() time.Time                               { return time.Now() }

// WriteAtomic writes data to path through a temporary sibling file;
// see WriteAtomicFunc.
func WriteAtomic(fsys FS, path, what string, data []byte) error {
	return WriteAtomicFunc(fsys, path, what, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteAtomicFunc streams write's output to path through a temporary
// sibling file — write, fsync, close, then rename over path — so
// readers only ever observe a complete file. On any failure path is
// left as it was and the temporary file is removed. Errors name
// the failed step and what is being written ("syncing ledger: …");
// callers prefix their package.
func WriteAtomicFunc(fsys FS, path, what string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("writing %s: %w", what, err)
	}
	if err = write(f); err != nil {
		err = fmt.Errorf("writing %s: %w", what, err)
	} else if err = f.Sync(); err != nil {
		err = fmt.Errorf("syncing %s: %w", what, err)
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing %s: %w", what, cerr)
	}
	if err == nil {
		if err = fsys.Rename(tmp, path); err != nil {
			err = fmt.Errorf("committing %s: %w", what, err)
		}
	}
	if err != nil {
		fsys.Remove(tmp) // best effort: err is what the caller must see
	}
	return err
}
