package webdepd

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"testing"

	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// classesCounters reads the three classification counters from a registry.
func classesCounters(reg *obs.Registry) (clustered, carried, capped int64) {
	return reg.Counter("webdepd.classes.clustered").Value(),
		reg.Counter("webdepd.classes.carried").Value(),
		reg.Counter("webdepd.classes.capped").Value()
}

// wantCounters fails unless the registry counts exactly this many cold
// classes renders that clustered and that were carried, and this many
// reloads that found the store already served.
func wantCounters(t *testing.T, reg *obs.Registry, when string, clustered, carried, unchanged int64) {
	t.Helper()
	cl, ca, _ := classesCounters(reg)
	if un := reg.Counter("webdepd.reloads_unchanged").Value(); cl != clustered || ca != carried || un != unchanged {
		t.Fatalf("%s: clustered/carried/unchanged = %d/%d/%d, want %d/%d/%d", when, cl, ca, un, clustered, carried, unchanged)
	}
}

// saveGeneration writes corpus as a store generation under root.
func saveGeneration(t testing.TB, root, name string, corpus *dataset.Corpus) {
	t.Helper()
	if err := corpusstore.Save(root+"/"+name, corpus, nil); err != nil {
		t.Fatal(err)
	}
}

// mustReload reloads d and fails the test if that fails.
func mustReload(t testing.TB, d *Daemon) {
	t.Helper()
	if _, err := d.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}
}

// serveClasses fetches one layer's classes body, which must equal want's
// direct render.
func serveClasses(t *testing.T, d *Daemon, layer countries.Layer, want *generation) []byte {
	t.Helper()
	path := "/api/classes?layer=" + layer.String()
	wantBody, qerr := want.render(parsePath(t, path))
	if qerr != nil {
		t.Fatalf("%s: direct render: %v", path, qerr)
	}
	status, body := get(t, d, path)
	if status != http.StatusOK || !bytes.Equal(body, wantBody) {
		t.Fatalf("%s: status %d, served bytes differ from direct render\n got: %.200s\nwant: %.200s", path, status, body, wantBody)
	}
	return body
}

// TestReloadCarriesClassification: a reload that finds the store already
// served serves every layer's classes byte-equal to a direct render from an
// independently measured corpus without running affinity propagation again,
// and the counters say so exactly.
func TestReloadCarriesClassification(t *testing.T) {
	root := t.TempDir()
	saveGeneration(t, root, "gen-0001", worldCorpus(t, 7, 300, testCCs))
	reg := obs.NewRegistry()
	d := startDaemon(t, Config{StoreRoot: root, Obs: reg})
	want := direct(worldCorpus(t, 7, 300, testCCs), "gen-0001", 0)

	// What the kernel reports for this corpus, from the one-shot entry.
	var capped int64
	for _, layer := range countries.Layers {
		res, err := classify.Layer(want.scores, layer, classify.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations > 0 && !res.Converged {
			capped++
		}
	}
	if capped == 0 {
		t.Fatal("no layer of the test world runs to the iteration cap: webdepd.classes.capped is not exercised")
	}

	n := int64(len(countries.Layers))
	for _, layer := range countries.Layers {
		serveClasses(t, d, layer, want)
	}
	wantCounters(t, reg, "generation 0", n, 0, 0)
	for _, layer := range countries.Layers {
		serveClasses(t, d, layer, want) // hits: no render, no count
	}
	wantCounters(t, reg, "generation 0, cached", n, 0, 0)

	for reload := int64(1); reload <= 2; reload++ {
		mustReload(t, d)
		if _, swap := d.Generation(); swap != reload {
			t.Fatalf("swap = %d after reload %d", swap, reload)
		}
		for _, layer := range countries.Layers {
			serveClasses(t, d, layer, want)
		}
		wantCounters(t, reg, fmt.Sprintf("after reload %d", reload), n, reload*n, reload)
	}
	// Only a clustering can be capped: the carried renders added none.
	if _, _, cp := classesCounters(reg); cp != capped {
		t.Errorf("webdepd.classes.capped = %d, want %d", cp, capped)
	}
}

// TestReloadReclassifiesOnChange: when a reload lands a new store, classes
// re-clusters and matches the direct render of the new corpus; a third store
// holding the first corpus again re-clusters too (nothing is kept of a store
// no longer served, and nothing compares corpora), and a reload that finds
// that third store still newest is carried. The second world is smaller, not
// just re-seeded: worldgen calibrates provider shares, so a seed alone moves
// no feature.
func TestReloadReclassifiesOnChange(t *testing.T) {
	root := t.TempDir()
	saveGeneration(t, root, "gen-0001", worldCorpus(t, 11, 120, testCCs))
	reg := obs.NewRegistry()
	d := startDaemon(t, Config{StoreRoot: root, Obs: reg})
	wantA := direct(worldCorpus(t, 11, 120, testCCs), "a", 0)
	wantB := direct(worldCorpus(t, 12, 90, testCCs), "b", 0)

	a := serveClasses(t, d, countries.Hosting, wantA)

	saveGeneration(t, root, "gen-0002", worldCorpus(t, 12, 90, testCCs))
	mustReload(t, d)
	b := serveClasses(t, d, countries.Hosting, wantB)
	if bytes.Equal(a, b) {
		t.Fatal("the two worlds classify to the same body: the test corpora no longer differ")
	}
	wantCounters(t, reg, "after the changed reload", 2, 0, 0)

	saveGeneration(t, root, "gen-0003", worldCorpus(t, 11, 120, testCCs))
	mustReload(t, d)
	if back := serveClasses(t, d, countries.Hosting, wantA); !bytes.Equal(back, a) {
		t.Error("the first corpus served again renders differently")
	}
	wantCounters(t, reg, "after the reload back", 3, 0, 0)

	mustReload(t, d)
	serveClasses(t, d, countries.Hosting, wantA)
	wantCounters(t, reg, "after the unchanged reload", 3, 1, 1)
}

// TestReloadSeesBareStoreReplaced: a bare store is generation "." whatever
// it holds, so the label cannot tell a reload that the operator removed the
// store and wrote another in its place. The manifest's identity does: the
// reload scans, re-clusters and serves the new corpus.
func TestReloadSeesBareStoreReplaced(t *testing.T) {
	store := t.TempDir() + "/store"
	if err := corpusstore.Save(store, worldCorpus(t, 11, 120, testCCs), nil); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	d := startDaemon(t, Config{StoreRoot: store, Obs: reg})
	a := serveClasses(t, d, countries.Hosting, direct(worldCorpus(t, 11, 120, testCCs), ".", 0))
	mustReload(t, d)
	wantCounters(t, reg, "bare store, untouched", 1, 0, 1)

	if err := os.RemoveAll(store); err != nil {
		t.Fatal(err)
	}
	if err := corpusstore.Save(store, worldCorpus(t, 12, 90, testCCs), nil); err != nil {
		t.Fatal(err)
	}
	if label, err := d.Reload(); err != nil || label != "." {
		t.Fatalf("reload: %q, %v", label, err)
	}
	b := serveClasses(t, d, countries.Hosting, direct(worldCorpus(t, 12, 90, testCCs), ".", 0))
	if bytes.Equal(a, b) {
		t.Fatal("the two worlds classify to the same body: the test corpora no longer differ")
	}
	wantCounters(t, reg, "bare store, replaced", 2, 0, 1)
}

// handCorpus builds a corpus from per-country hosting-provider site counts.
func handCorpus(hosting map[string]map[string]int) *dataset.Corpus {
	c := dataset.NewCorpus("2023-05")
	for cc, providers := range hosting {
		list := &dataset.CountryList{Country: cc, Epoch: c.Epoch}
		for _, p := range []string{"Alpha", "Beta", "Gamma", "Delta"} { // fixed order: deterministic ranks
			for i := 0; i < providers[p]; i++ {
				rank := len(list.Sites) + 1
				list.Sites = append(list.Sites, dataset.Website{
					Domain: fmt.Sprintf("site%d.%s.example", rank, cc), Country: cc, Rank: rank,
					HostProvider: p, HostProviderCountry: "US", TLD: "example",
				})
			}
		}
		c.Add(list)
	}
	return c
}

// TestNewStoreWithEqualFeaturesRendersItsOwn is why what crosses a swap is
// decided by which store was read, not by comparing what the stores say. Two
// corpora with two countries' distributions swapped have equal per-provider
// features — a usage curve is sorted, so it cannot tell which country gave
// which value — and would classify alike; but each country's class shares
// are its own distribution's, so the second body differs from the first and
// equals its own direct render. The second store shares nothing with the
// first: it clusters for itself.
func TestNewStoreWithEqualFeaturesRendersItsOwn(t *testing.T) {
	us := map[string]int{"Alpha": 12, "Beta": 5, "Gamma": 3}
	de := map[string]int{"Alpha": 2, "Beta": 1, "Delta": 17}
	jp := map[string]int{"Alpha": 8, "Gamma": 8, "Delta": 4}
	first := map[string]map[string]int{"US": us, "DE": de, "JP": jp}
	swapped := map[string]map[string]int{"US": de, "DE": us, "JP": jp}

	root := t.TempDir()
	saveGeneration(t, root, "gen-0001", handCorpus(first))
	reg := obs.NewRegistry()
	d := startDaemon(t, Config{StoreRoot: root, Obs: reg})
	a := serveClasses(t, d, countries.Hosting, direct(handCorpus(first), "first", 0))

	saveGeneration(t, root, "gen-0002", handCorpus(swapped))
	mustReload(t, d)
	b := serveClasses(t, d, countries.Hosting, direct(handCorpus(swapped), "swapped", 0))

	wantCounters(t, reg, "after the swapped store", 2, 0, 0)
	if bytes.Equal(a, b) {
		t.Fatal("swapping two countries' distributions left the classes body unchanged: the test corpora prove nothing")
	}
}
