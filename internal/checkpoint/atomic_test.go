package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestWriteFileAtomicReplacesContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	for _, content := range []string{"first", "second generation"} {
		err := WriteFileAtomic(path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("file holds %q, want %q", got, content)
		}
	}
}

// TestWriteFileAtomicReportsDirSyncFailure: a directory that can be
// written and searched but not read lets the temp file be created and
// renamed, then refuses the open the directory fsync needs. Until that
// fsync succeeds a crash can undo the rename, so the caller must hear of
// it, even though the new content is already in place.
func TestWriteFileAtomicReportsDirSyncFailure(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permission bits")
	}
	dir := filepath.Join(t.TempDir(), "wx-only")
	if err := os.Mkdir(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "out.csv")
	if err := os.Chmod(dir, 0o300); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o700) })
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("err = %v, want a directory-sync failure naming %s", err, dir)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("destination after the failed directory sync: %q, %v; want the new content", got, err)
	}
}

func TestWriteFileAtomicFailureLeavesOldFileAndNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half a new file")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's failure", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "precious" {
		t.Fatalf("destination after failed write: %q, %v; want the old content intact", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

// TestBatchCommitsConcurrentWrites writes files from many goroutines into
// one batch; once Commit returns, every file is in place under its name
// with its content and no temp file is left.
func TestBatchCommitsConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	b := NewBatch(dir)
	const writers, each = 8, 16
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				name := fmt.Sprintf("f-%d-%d", g, i)
				if err := b.WriteFile(name, func(w io.Writer) error {
					_, err := io.WriteString(w, name)
					return err
				}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != writers*each {
		t.Fatalf("directory holds %d entries, want %d", len(entries), writers*each)
	}
	for _, e := range entries {
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil || string(got) != e.Name() {
			t.Errorf("%s holds %q, %v; want its own name", e.Name(), got, err)
		}
	}
}

// TestBatchFailureSticks: once a file fails, the batch refuses further
// files without running their writers, Commit returns the first failure,
// and no temp file is left.
func TestBatchFailureSticks(t *testing.T) {
	dir := t.TempDir()
	b := NewBatch(dir)
	boom := errors.New("boom")
	if err := b.WriteFile("a", func(w io.Writer) error {
		io.WriteString(w, "half a file")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("WriteFile = %v, want the writer's failure", err)
	}
	ran := false
	if err := b.WriteFile("b", func(io.Writer) error { ran = true; return nil }); !errors.Is(err, boom) || ran {
		t.Fatalf("WriteFile after a failure = %v (writer ran: %v), want the first failure at once", err, ran)
	}
	if err := b.Commit(); !errors.Is(err, boom) {
		t.Fatalf("Commit = %v, want the first failure", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("directory after a failed batch holds %v, %v; want nothing", entries, err)
	}
}
