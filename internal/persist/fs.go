package persist

import (
	"errors"
	"io"
	"io/fs"
	"os"
)

// FS abstracts every filesystem operation the persistence layer performs, so
// tests can interpose deterministic faults (see internal/faultfs) between the
// durability protocol and the disk: a failed fsync, ENOSPC mid-append, a torn
// snapshot write, injected latency. Production code uses OS, which forwards
// straight to package os; the indirection is one interface call per
// operation and stays off the per-triple hot paths (records are encoded into
// a buffer first and written with one call).
//
// All paths are interpreted exactly as package os would interpret them; an
// implementation must return errors that match the io/fs sentinels under
// errors.Is (fs.ErrNotExist etc.) where the underlying condition matches.
type FS interface {
	// MkdirAll creates dir (and parents) like os.MkdirAll.
	MkdirAll(dir string, perm os.FileMode) error
	// OpenFile opens name like os.OpenFile (WAL append, snapshot create).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens name read-only (directory fsync handles).
	Open(name string) (File, error)
	// ReadFile returns the contents of name (snapshot and WAL recovery).
	ReadFile(name string) ([]byte, error)
	// ReadFileFrom returns the contents of name from byte offset off to the
	// current end of file — the incremental read a replication follower uses
	// to tail a live WAL. An offset at or past the end returns an empty
	// slice, not an error; reading a file that shrank below off (which the
	// append-only WAL protocol never does) may do either.
	ReadFileFrom(name string, off int64) ([]byte, error)
	// ReadDir lists dir (generation scan).
	ReadDir(dir string) ([]fs.DirEntry, error)
	// Rename atomically moves oldpath to newpath (snapshot publish).
	Rename(oldpath, newpath string) error
	// Remove deletes name (generation GC, temp sweep).
	Remove(name string) error
	// Truncate cuts name to size (torn WAL tail repair).
	Truncate(name string, size int64) error
}

// File is the open-file surface the layer needs: append writes, fsync, size,
// close. *os.File implements it.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Stat() (os.FileInfo, error)
	Close() error
}

// OS is the production FS: every call forwards to package os.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadFileFrom(name string, off int64) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if off >= size {
		return nil, nil
	}
	buf := make([]byte, size-off)
	n, err := f.ReadAt(buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	// A racing append may have grown the file past the Stat; the next poll
	// picks the growth up. A short read against a shrinking file (foreign to
	// the WAL protocol) just returns the shorter prefix.
	return buf[:n], nil
}
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error    { return os.Truncate(name, size) }
