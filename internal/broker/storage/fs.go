package storage

import (
	"io"
	"os"
)

// File is the slice of *os.File the storage engine actually uses. It is
// an interface so a fault-injecting filesystem (internal/faults) can be
// layered under FileLog — torn writes, ENOSPC, slow fsync — without the
// engine knowing.
type File interface {
	io.Reader
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
	Name() string
}

// FS is the filesystem surface FileLog needs. The zero value of
// FileConfig/StorageConfig uses OSFS, the real thing.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Remove(name string) error
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
}

// OSFS is the passthrough FS backed by package os.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
