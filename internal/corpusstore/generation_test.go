package corpusstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// saveGen writes a small complete store under root/name.
func saveGen(t *testing.T, root, name string) {
	t.Helper()
	c := testCorpus(3, []string{"TH"}, 20)
	if err := Save(filepath.Join(root, name), c, &Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestLatestGenerationPicksGreatestName(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"gen-0001", "gen-0003", "gen-0002"} {
		saveGen(t, root, name)
	}
	// Noise the discovery must ignore: an in-flight atomic write, a
	// directory with no manifest yet, and a stray file.
	saveGen(t, root, "gen-9999.tmp")
	if err := os.MkdirAll(filepath.Join(root, "gen-5000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "zz-not-a-dir"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	gens, err := Generations(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"gen-0001", "gen-0002", "gen-0003"}; !reflect.DeepEqual(gens, want) {
		t.Fatalf("Generations = %v, want %v", gens, want)
	}

	dir, label, err := LatestGeneration(root)
	if err != nil {
		t.Fatal(err)
	}
	if label != "gen-0003" || dir != filepath.Join(root, "gen-0003") {
		t.Fatalf("LatestGeneration = (%s, %s)", dir, label)
	}
	// The winner must actually open as a store.
	st, err := Open(dir, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != "2023-05" {
		t.Fatalf("epoch %s", st.Epoch())
	}
}

func TestLatestGenerationAcceptsBareStore(t *testing.T) {
	root := t.TempDir()
	c := testCorpus(4, []string{"US"}, 15)
	if err := Save(root, c, &Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	dir, label, err := LatestGeneration(root)
	if err != nil {
		t.Fatal(err)
	}
	if dir != root || label != "." {
		t.Fatalf("bare store resolved to (%s, %s)", dir, label)
	}
}

// TestCrashedSaveNeverLooksComplete builds, byte for byte, every directory
// a Save killed mid-write can leave behind when everything it wrote before
// the kill survives: the shards renamed so far plus the next one's temp
// file cut at any length, then every shard plus the manifest's temp file
// cut at any length. None of them opens as a store or is discovered as a
// generation, so the previous generation stays latest until the manifest
// is renamed into place.
func TestCrashedSaveNeverLooksComplete(t *testing.T) {
	root := t.TempDir()
	saveGen(t, root, "gen-0001")
	c := testCorpus(6, []string{"DE", "JP", "US"}, 12)
	ref := t.TempDir()
	if err := Save(ref, c, &Options{Workers: 1, BlockRows: 5}); err != nil {
		t.Fatal(err)
	}
	gen := filepath.Join(root, "gen-0002")
	if err := os.Mkdir(gen, 0o755); err != nil {
		t.Fatal(err)
	}

	incomplete := func(state string) {
		t.Helper()
		if _, err := Open(gen, nil); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: Open = %v, want a missing manifest", state, err)
		}
		if gens, err := Generations(root); err != nil || !reflect.DeepEqual(gens, []string{"gen-0001"}) {
			t.Fatalf("%s: Generations = %v, %v; want [gen-0001]", state, gens, err)
		}
		if _, label, err := LatestGeneration(root); err != nil || label != "gen-0001" {
			t.Fatalf("%s: LatestGeneration = %s, %v; want gen-0001", state, label, err)
		}
	}
	// land writes name's temp file at every length of the reference copy,
	// checking each state, then renames the whole file into place.
	land := func(name string) {
		data, err := os.ReadFile(filepath.Join(ref, name))
		if err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(gen, name+".tmp-1")
		for n := 0; n <= len(data); n++ {
			if err := os.WriteFile(tmp, data[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			incomplete(fmt.Sprintf("%s cut at %d of %d bytes", name, n, len(data)))
		}
		if err := os.Rename(tmp, filepath.Join(gen, name)); err != nil {
			t.Fatal(err)
		}
	}

	incomplete("empty directory")
	for _, cc := range c.Countries() {
		land(cc + ".shard")
	}
	incomplete("every shard, no manifest")
	land(ManifestName)

	if _, label, err := LatestGeneration(root); err != nil || label != "gen-0002" {
		t.Fatalf("after the manifest's rename LatestGeneration = %s, %v; want gen-0002", label, err)
	}
	st, err := Open(gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := st.Score()
	if err != nil {
		t.Fatal(err)
	}
	equalScoreSets(t, ss, c.ScoreSet())
}

func TestLatestGenerationRefusesEmptyRoot(t *testing.T) {
	if _, _, err := LatestGeneration(t.TempDir()); err == nil {
		t.Fatal("empty root accepted")
	}
	if _, _, err := LatestGeneration(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing root accepted")
	}
	// A root whose only subdirectory is an incomplete ingest (no manifest)
	// must also refuse: serving half a corpus is worse than erroring.
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "gen-0001"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LatestGeneration(root); err == nil {
		t.Fatal("manifest-less generation accepted")
	}
}
