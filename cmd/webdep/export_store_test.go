package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

// treeDigest is one SHA-256 over every file under dir, taken as the sorted
// list of "relative-path digest" lines.
func treeDigest(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		fmt.Fprintf(h, "%s %x\n", filepath.ToSlash(rel), sha256.Sum256(b))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRunExportStreamsStore: export -store measures the world straight into
// the store and reads its CSVs and surfaces back from the store, as score
// does. What it writes and prints must equal the in-memory path's: the
// stdout and CSVs of export without -store, and a store byte-equal to Save
// of MeasureWorld's corpus. The digests were recorded when export -store
// still measured in memory and saved the corpus.
func TestRunExportStreamsStore(t *testing.T) {
	const (
		wantStdout = "58e458d8770db5787de5c1d7683fcfb7427a82e15efb92fdfeac53a6710b1df3"
		wantCSVs   = "37dec3f6cbc1e05716cbcf8f552fd32fed215c5d0e852afaae72d246a3603286"
		wantStore  = "96a04c41c5223ecc9f1960a2ec1e0b62964d1f4ffab085066ed08239d849879e"
	)
	world := []string{"-seed", "5", "-sites", "60", "-countries", "TH,US", "-spof", "-what-if", "Cloudflare"}
	streamed, inMemory := t.TempDir(), t.TempDir()
	store := filepath.Join(t.TempDir(), "store")
	got, _ := mustRun(t, append([]string{"export", "-out", streamed, "-store", store}, world...)...)
	want, _ := mustRun(t, append([]string{"export", "-out", inMemory}, world...)...)
	if got != want {
		t.Errorf("export -store printed\n%s\nexport printed\n%s", got, want)
	}
	sameCSVs(t, "export -store wrote other CSVs than export", inMemory, streamed, "TH", "US")

	w, err := worldgen.Build(worldgen.Config{Seed: 5, SitesPerCountry: 60, Countries: []string{"TH", "US"}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	saved := t.TempDir()
	if err := corpusstore.Save(saved, c, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"TH.shard", "US.shard", corpusstore.ManifestName} {
		a, errA := os.ReadFile(filepath.Join(store, name))
		b, errB := os.ReadFile(filepath.Join(saved, name))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s: export -store and Save(MeasureWorld) wrote different bytes (%v, %v)", name, errA, errB)
		}
	}

	for what, d := range map[string][2]string{
		"stdout": {fmt.Sprintf("%x", sha256.Sum256([]byte(got))), wantStdout},
		"CSVs":   {treeDigest(t, streamed), wantCSVs},
		"store":  {treeDigest(t, store), wantStore},
	} {
		if d[0] != d[1] {
			t.Errorf("export -store %s digest %s, pinned %s", what, d[0], d[1])
		}
	}
}
