package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"invisiblebits/internal/storage"
)

// fileClass splits the scheduler's durable artifacts by layer: the
// write-ahead journal (wal), device images (ioatomic safe-saves of
// device state) and everything else (spec and result files).
type fileClass int

const (
	classOther fileClass = iota
	classJournal
	classImage
)

// classify maps a path to its class. ioatomic writes through a temp
// file named "<base>.tmp<random>" before renaming it into place, so the
// temp name classifies like its target.
func classify(path string) fileClass {
	base := filepath.Base(path)
	if i := strings.Index(base, ".tmp"); i > 0 {
		base = base[:i]
	}
	switch {
	case base == "journal.jsonl":
		return classJournal
	case strings.HasSuffix(base, ".img"):
		return classImage
	}
	return classOther
}

// classStats are one class's I/O counters.
type classStats struct {
	Files   int // files created or opened for writing
	Writes  int
	Bytes   int64
	WriteNs []int64 // per file: time spent in Write
	SyncNs  []int64 // per Sync call
	ReadB   int64
	ReadNs  []int64
}

// timingFS is a storage.FS that times and counts the I/O of each file
// class. It is passed as sched.Config.FS; the program sees an ordinary
// filesystem. A timingFS that is not durable skips every file and
// directory fsync (and records none), for a workload that measures the
// program's own path rather than the latency of a shared disk.
type timingFS struct {
	inner   storage.FS
	durable bool
	mu      sync.Mutex
	by      [3]classStats
}

func newTimingFS(durable bool) *timingFS { return &timingFS{inner: storage.OS(), durable: durable} }

// snapshot returns a copy of the counters and resets them.
func (t *timingFS) snapshot() [3]classStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.by
	t.by = [3]classStats{}
	return out
}

func (t *timingFS) wrap(f storage.File, err error, path string) (storage.File, error) {
	if err != nil {
		return nil, err
	}
	c := classify(path)
	t.mu.Lock()
	t.by[c].Files++
	t.mu.Unlock()
	return &timedFile{File: f, fs: t, class: c}, nil
}

func (t *timingFS) OpenFile(path string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := t.inner.OpenFile(path, flag, perm)
	return t.wrap(f, err, path)
}

func (t *timingFS) CreateTemp(dir, pattern string) (storage.File, error) {
	f, err := t.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return t.wrap(f, nil, f.Name())
}

func (t *timingFS) ReadFile(path string) ([]byte, error) {
	start := time.Now()
	b, err := t.inner.ReadFile(path)
	ns := time.Since(start).Nanoseconds()
	c := classify(path)
	t.mu.Lock()
	t.by[c].ReadB += int64(len(b))
	t.by[c].ReadNs = append(t.by[c].ReadNs, ns)
	t.mu.Unlock()
	return b, err
}

func (t *timingFS) Rename(o, n string) error                { return t.inner.Rename(o, n) }
func (t *timingFS) Remove(p string) error                   { return t.inner.Remove(p) }
func (t *timingFS) Truncate(p string, n int64) error        { return t.inner.Truncate(p, n) }
func (t *timingFS) MkdirAll(p string, m os.FileMode) error  { return t.inner.MkdirAll(p, m) }
func (t *timingFS) Stat(p string) (os.FileInfo, error)      { return t.inner.Stat(p) }
func (t *timingFS) ReadDir(p string) ([]os.DirEntry, error) { return t.inner.ReadDir(p) }

func (t *timingFS) SyncDir(p string) error {
	if !t.durable {
		return nil
	}
	return t.inner.SyncDir(p)
}

// timedFile accumulates its write time and reports it at Close.
type timedFile struct {
	storage.File
	fs      *timingFS
	class   fileClass
	writeNs int64
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.writeNs += time.Since(start).Nanoseconds()
	f.fs.mu.Lock()
	f.fs.by[f.class].Writes++
	f.fs.by[f.class].Bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	if !f.fs.durable {
		return nil
	}
	start := time.Now()
	err := f.File.Sync()
	ns := time.Since(start).Nanoseconds()
	f.fs.mu.Lock()
	f.fs.by[f.class].SyncNs = append(f.fs.by[f.class].SyncNs, ns)
	f.fs.mu.Unlock()
	return err
}

func (f *timedFile) Close() error {
	f.fs.mu.Lock()
	f.fs.by[f.class].WriteNs = append(f.fs.by[f.class].WriteNs, f.writeNs)
	f.fs.mu.Unlock()
	return f.File.Close()
}
