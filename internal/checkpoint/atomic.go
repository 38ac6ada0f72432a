package checkpoint

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// WriteFileAtomic writes a whole file via write-temp → fsync → rename so
// readers (and crash recovery) only ever observe the old complete content
// or the new complete content, never a torn file. It is the one way the
// module writes a whole file: store manifests, compacted journals, admitted
// artifacts and CLI exports, and (as a Batch of many) store shards. The
// temp file (<name>.tmp-*) lives in path's directory so the rename stays on
// one filesystem; the directory itself is fsynced afterwards so the rename
// survives a crash too. On an error before the rename the temp file is
// removed and the destination is untouched; a failed directory fsync is
// returned with the new content already in place. It is a Batch of one
// file, its steps run on the caller's goroutine.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := writeTemp(dir, filepath.Base(path), write)
	if err != nil {
		return err
	}
	if err := install(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// Batch writes many whole files into one directory and makes them durable
// together: each WriteFile writes and flushes its temp file on the
// caller's goroutine and leaves the fsync, close and rename to a
// background goroutine, and Commit waits for all of them and fsyncs the
// directory once. A file is durable under its name only after Commit
// returns nil, so a batch suits files that a later commit point (a
// manifest written with WriteFileAtomic) makes trusted. WriteFile may be
// called concurrently. The first failure sticks: later WriteFile calls
// refuse at once and Commit returns it. A failed file leaves no temp file
// behind.
type Batch struct {
	dir     string
	pending sync.WaitGroup

	mu  sync.Mutex
	err error
}

// NewBatch starts an empty batch of files in dir.
func NewBatch(dir string) *Batch { return &Batch{dir: dir} }

// WriteFile writes name (a file in the batch's directory) through write
// and returns once the bytes are flushed to the temp file; write's error,
// or the batch's earlier failure, is returned as is.
func (b *Batch) WriteFile(name string, write func(io.Writer) error) error {
	if err := b.failed(); err != nil {
		return err
	}
	tmp, err := writeTemp(b.dir, name, write)
	if err != nil {
		b.fail(err)
		return err
	}
	b.pending.Add(1)
	go func() {
		defer b.pending.Done()
		if err := install(tmp, filepath.Join(b.dir, name)); err != nil {
			b.fail(err)
		}
	}()
	return nil
}

// Commit waits for every file written so far to be fsynced and renamed,
// then fsyncs the directory once so the renames survive a crash. It
// returns the batch's first failure, in which case the directory is not
// synced.
func (b *Batch) Commit() error {
	b.pending.Wait()
	if err := b.failed(); err != nil {
		return err
	}
	return syncDir(b.dir)
}

func (b *Batch) failed() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

func (b *Batch) fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil {
		b.err = err
	}
}

// writeTemp creates name's temp file in dir and writes and flushes write's
// output into it. On failure the temp file is closed and removed.
func writeTemp(dir, name string, write func(io.Writer) error) (*os.File, error) {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(tmp)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	return tmp, nil
}

// install fsyncs, closes and renames a written temp file to path. On
// failure the temp file is removed and path is untouched.
func install(tmp *os.File, path string) error {
	err := tmp.Sync()
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// syncDir persists the renames made in dir: until the directory is
// fsynced, a crash can undo them, so no caller may treat the files as
// durable before it returns nil.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("checkpoint: syncing directory %s: %w", dir, err)
	}
	return nil
}
