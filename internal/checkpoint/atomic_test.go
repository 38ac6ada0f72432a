package checkpoint

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
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
