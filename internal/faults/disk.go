package faults

import (
	"os"
	"sync"
	"syscall"
	"time"

	"streamapprox/internal/broker/storage"
)

// ErrNoSpace is the injected write error: ENOSPC, what a full disk
// returns mid-batch.
var ErrNoSpace error = syscall.ENOSPC

// DiskFaults is the active fault set of a Disk. The zero value passes
// everything through.
type DiskFaults struct {
	// FailWrites makes every WriteAt fail with WriteErr (default
	// ErrNoSpace) after persisting only the first TornBytes bytes — a
	// torn write: the disk kept a prefix, the caller got an error.
	FailWrites bool
	TornBytes  int
	WriteErr   error
	// SyncErr makes every Sync fail (fsync returning EIO/ENOSPC).
	SyncErr error
	// SlowSync delays every Sync — a saturated or degraded disk.
	SlowSync time.Duration
	// ReadErr makes every ReadAt fail after filling in only the first
	// ReadBytes bytes — a medium error (EIO) part way through a file.
	ReadErr   error
	ReadBytes int
}

// Disk is a fault-injecting storage.FS: it wraps a real filesystem and
// applies the current DiskFaults to every file opened through it,
// including files opened before the faults were set.
type Disk struct {
	inner storage.FS

	mu sync.Mutex
	f  DiskFaults
}

// NewDisk wraps inner (nil = the real filesystem).
func NewDisk(inner storage.FS) *Disk {
	if inner == nil {
		inner = storage.OSFS
	}
	return &Disk{inner: inner}
}

// Set replaces the active fault set; it applies to all future
// operations on every file of this Disk.
func (d *Disk) Set(f DiskFaults) {
	d.mu.Lock()
	d.f = f
	d.mu.Unlock()
}

// Faults returns the active fault set.
func (d *Disk) Faults() DiskFaults {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f
}

var _ storage.FS = (*Disk)(nil)

// OpenFile implements storage.FS.
func (d *Disk) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := d.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, disk: d}, nil
}

// Remove implements storage.FS.
func (d *Disk) Remove(name string) error { return d.inner.Remove(name) }

// ReadDir implements storage.FS.
func (d *Disk) ReadDir(name string) ([]os.DirEntry, error) { return d.inner.ReadDir(name) }

// MkdirAll implements storage.FS.
func (d *Disk) MkdirAll(path string, perm os.FileMode) error { return d.inner.MkdirAll(path, perm) }

// faultFile applies the Disk's current faults to one file: the write
// path's (full disk, torn write, slow/failed fsync) and a failing read.
// Truncates pass through untouched.
type faultFile struct {
	storage.File
	disk *Disk
}

// WriteAt injects torn writes: under FailWrites only the first
// TornBytes bytes reach the file and the caller sees WriteErr.
func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	f := ff.disk.Faults()
	if !f.FailWrites {
		return ff.File.WriteAt(p, off)
	}
	werr := f.WriteErr
	if werr == nil {
		werr = ErrNoSpace
	}
	torn := f.TornBytes
	if torn > len(p) {
		torn = len(p)
	}
	n := 0
	if torn > 0 {
		var err error
		n, err = ff.File.WriteAt(p[:torn], off)
		if err != nil {
			return n, err
		}
	}
	return n, werr
}

// ReadAt injects failing reads: under ReadErr only the first ReadBytes
// bytes are read and the caller sees the error.
func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	f := ff.disk.Faults()
	if f.ReadErr == nil {
		return ff.File.ReadAt(p, off)
	}
	n, err := ff.File.ReadAt(p[:min(f.ReadBytes, len(p))], off)
	if err != nil {
		return n, err
	}
	return n, f.ReadErr
}

// Sync injects slow and failing fsyncs.
func (ff *faultFile) Sync() error {
	f := ff.disk.Faults()
	if f.SlowSync > 0 {
		time.Sleep(f.SlowSync)
	}
	if f.SyncErr != nil {
		return f.SyncErr
	}
	return ff.File.Sync()
}
