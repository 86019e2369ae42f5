//go:build unix

// Package fslock provides the advisory cross-process file lock every
// on-disk store in the module uses for its read-modify-write brackets:
// the accountant's budget ledgers, the dataset store, the release
// cache and the job journal all lock a sidecar file, bring their state
// up to date from disk, and then mutate — the ledger and the journal
// by appending, the others by atomically renaming the result into
// place.
package fslock

import (
	"errors"
	"os"
	"syscall"
)

// ErrLocked is returned by LockNB when another process already holds
// the lock.
var ErrLocked = errors.New("fslock: held by another process")

// Lock takes an exclusive advisory flock on path (creating it if
// needed), blocking until the lock is granted, and returns the release
// function. Advisory locks cooperate only with other flock users —
// which every store operation in this module is — giving cross-process
// mutual exclusion for the read-modify-write bracket.
//
// Because flock is tied to the open descriptor, a holder that dies —
// even SIGKILLed mid-critical-section — releases its lock when the
// kernel closes its descriptors, so crashed holders can never
// permanently wedge the stores (there is no stale lock file to clean
// up; the sidecar's contents are irrelevant).
func Lock(path string) (unlock func(), err error) {
	return lock(path, 0)
}

// LockNB is Lock without blocking: when another process holds the
// lock, it fails immediately with ErrLocked. Used by single-owner
// stores (the job journal) to refuse to start rather than queue behind
// a live owner.
func LockNB(path string) (unlock func(), err error) {
	return lock(path, syscall.LOCK_NB)
}

func lock(path string, extraFlags int) (unlock func(), err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	// Retry on EINTR: a signal delivered mid-flock (SIGTERM starting a
	// graceful drain, a profiler's SIGPROF) interrupts the syscall
	// without granting the lock; failing the whole store operation for
	// that would turn routine signals into spurious I/O errors.
	for {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|extraFlags)
		if err == nil {
			break
		}
		if err == syscall.EINTR {
			continue
		}
		f.Close()
		if extraFlags&syscall.LOCK_NB != 0 && (err == syscall.EWOULDBLOCK || err == syscall.EAGAIN) {
			return nil, ErrLocked
		}
		return nil, err
	}
	return func() {
		// Closing the descriptor releases the flock.
		f.Close()
	}, nil
}
