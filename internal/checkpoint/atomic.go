package checkpoint

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a whole file via write-temp → fsync → rename so
// readers (and crash recovery) only ever observe the old complete content
// or the new complete content, never a torn file. It is the one way the
// module writes a whole file: store shards and manifests, compacted
// journals, admitted artifacts and CLI exports. The temp file
// (<name>.tmp-*) lives in path's directory so the rename stays on one
// filesystem; the directory itself is fsynced afterwards so the rename
// survives a crash too. On an error before the rename the temp file is
// removed and the destination is untouched; a failed directory fsync is
// returned with the new content already in place.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	// Until the rename succeeds, every exit removes the temp file.
	defer os.Remove(tmpName)

	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	// Persist the rename: until the directory is fsynced, a crash can undo
	// it, so the caller must not treat the file as durable.
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
