package pipeline

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/worldgen"
)

// storeGolden measures the frozen golden world straight into an on-disk
// corpus store — the streaming path, never materializing the corpus — and
// returns the opened store.
func storeGolden(t *testing.T, workers int) *corpusstore.Store {
	t.Helper()
	w, err := worldgen.BuildShell(worldgen.Config{
		Seed:               goldenSeed,
		SitesPerCountry:    goldenSites,
		DomesticPerCountry: goldenDomestic,
		Countries:          goldenCountries,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := &corpusstore.Options{Obs: obs.NewRegistry(), Workers: workers}
	sw, err := corpusstore.Create(dir, w.Config.Epoch, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := FromWorld(w)
	p.Workers = workers
	if err := p.MeasureWorldToStore(w, sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := corpusstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGoldenCorpusThroughStore is the golden gate for the store path: the
// frozen world, measured and scored entirely through the on-disk store —
// shell world, streamed ingestion, streamed scoring — must reproduce
// testdata/golden_scores.json exactly, byte for byte, with the golden file
// NOT regenerated. Any divergence means the store round trip is lossy or
// the streamed tallies drift from the in-memory scoring index.
func TestGoldenCorpusThroughStore(t *testing.T) {
	st := storeGolden(t, 0)
	ss, err := st.Score()
	if err != nil {
		t.Fatal(err)
	}

	if got := st.TotalSites(); got != int64(goldenSites*len(goldenCountries)) {
		t.Fatalf("store holds %d sites, golden world has %d", got, goldenSites*len(goldenCountries))
	}
	want := compareGoldenScores(t, ss, "store")

	// Classification reads the streamed scoring surface, never a row: the
	// usage curves it is computed from must reproduce the frozen provider
	// classes.
	for _, layer := range countries.Layers {
		res, err := classify.Layer(ss, layer, classify.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string, len(res.Features))
		for _, f := range res.Features {
			got[f.Provider] = string(f.Class)
		}
		if !reflect.DeepEqual(got, want.Classes[layer.String()]) {
			t.Errorf("provider classes through store drift from golden for %v", layer)
		}
	}
}

// compareGoldenScores holds a scoring surface to testdata/golden_scores.json,
// un-regenerated, and returns the decoded file.
func compareGoldenScores(t *testing.T, ss *dataset.ScoreSet, label string) *goldenFile {
	t.Helper()
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for _, layer := range countries.Layers {
		for cc, wantScore := range wantLayerScores(&want, layer) {
			got := formatScore(ss.DistributionOf(cc, layer).Score())
			if got != wantScore {
				t.Errorf("%s score drift: %s %v = %s, golden %s", label, cc, layer, got, wantScore)
			}
		}
	}
	if got, wantN := len(ss.Countries()), len(goldenCountries); got != wantN {
		t.Fatalf("%s scored %d countries, want %d", label, got, wantN)
	}
	return &want
}

// wantLayerScores flattens the golden file's cc->layer->score map for one
// layer.
func wantLayerScores(g *goldenFile, layer countries.Layer) map[string]string {
	out := make(map[string]string, len(g.Scores))
	for cc, layers := range g.Scores {
		if s, ok := layers[layer.String()]; ok {
			out[cc] = s
		}
	}
	return out
}

// TestMeasureWorldToStoreMatchesMeasureWorld pins row-level equivalence of
// the two measurement paths: streaming into a store and materializing in
// memory must produce identical corpora, whichever the operator picks.
func TestMeasureWorldToStoreMatchesMeasureWorld(t *testing.T) {
	w, err := worldgen.Build(worldgen.Config{
		Seed:               11,
		SitesPerCountry:    200,
		DomesticPerCountry: 20,
		Countries:          []string{"DE", "JP", "US"},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := FromWorld(w)
	inMemory, err := p.MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts := &corpusstore.Options{Obs: obs.NewRegistry()}
	sw, err := corpusstore.Create(dir, w.Config.Epoch, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2 := FromWorld(w)
	if err := p2.MeasureWorldToStore(w, sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := corpusstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if stored.Epoch != inMemory.Epoch {
		t.Fatalf("epochs differ: %q vs %q", stored.Epoch, inMemory.Epoch)
	}
	if !reflect.DeepEqual(stored.Lists, inMemory.Lists) {
		t.Fatal("stored corpus rows differ from MeasureWorld's")
	}
}
