package pipeline

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/worldgen"
)

// update rewrites the golden file from a fresh measurement:
//
//	go test ./internal/pipeline -run TestGoldenCorpus -update
//
// Only do this after an INTENTIONAL change to world generation, the
// enrichment pipeline, scoring, or classification — the golden file exists
// so unintentional drift in any of those fails loudly. Review the diff of
// testdata/golden_scores.json before committing it.
var update = flag.Bool("update", false, "rewrite testdata/golden_scores.json from a fresh measurement")

// The frozen configuration. Changing any of these constants invalidates the
// golden file (the test cross-checks them against the file's header).
const (
	goldenSeed     = 7
	goldenSites    = 600
	goldenDomestic = 30
)

// goldenCountries spans regions, profiles, and paper-score extremes so the
// frozen scores exercise the whole scoring range.
var goldenCountries = []string{"AU", "BR", "CZ", "DE", "IN", "IR", "JP", "TH", "US", "ZA"}

const goldenPath = "testdata/golden_scores.json"

// goldenFile freezes everything the paper's headline results flow through:
// per-country centralization scores per layer and the provider-class
// assignment of every provider per layer.
type goldenFile struct {
	Seed               int64                        `json:"seed"`
	SitesPerCountry    int                          `json:"sites_per_country"`
	DomesticPerCountry int                          `json:"domestic_per_country"`
	Countries          []string                     `json:"countries"`
	Scores             map[string]map[string]string `json:"scores"`  // cc -> layer -> exact score
	Classes            map[string]map[string]string `json:"classes"` // layer -> provider -> class
}

// goldenCorpus measures the frozen golden world in memory — the shared
// fixture for both the score and the SPOF golden gates.
func goldenCorpus(t *testing.T, workers int) *dataset.Corpus {
	t.Helper()
	w, err := worldgen.Build(worldgen.Config{
		Seed:               goldenSeed,
		SitesPerCountry:    goldenSites,
		DomesticPerCountry: goldenDomestic,
		Countries:          goldenCountries,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := FromWorld(w)
	p.Workers = workers
	corpus, err := p.MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// measureGolden runs the frozen world through the full pipeline and
// serializes scores with strconv-exact float formatting ('g', -1), so any
// drift — even in the last ulp — changes the JSON.
func measureGolden(t *testing.T, workers int) *goldenFile {
	t.Helper()
	corpus := goldenCorpus(t, workers)
	g := &goldenFile{
		Seed:               goldenSeed,
		SitesPerCountry:    goldenSites,
		DomesticPerCountry: goldenDomestic,
		Countries:          goldenCountries,
		Scores:             make(map[string]map[string]string),
		Classes:            make(map[string]map[string]string),
	}
	for _, layer := range countries.Layers {
		for cc, score := range corpus.ScoreSet().Scores(layer) {
			if g.Scores[cc] == nil {
				g.Scores[cc] = make(map[string]string)
			}
			g.Scores[cc][layer.String()] = formatScore(score)
		}
		res, err := classify.Layer(corpus, layer, classify.DefaultOptions())
		if err != nil {
			t.Fatalf("classify %v: %v", layer, err)
		}
		byProvider := make(map[string]string, len(res.Features))
		for _, f := range res.Features {
			byProvider[f.Provider] = string(f.Class)
		}
		g.Classes[layer.String()] = byProvider
	}
	return g
}

// formatScore renders a score exactly: Go's shortest-representation float
// formatting round-trips float64, so string equality is bit equality.
func formatScore(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestGoldenCorpus is the regression gate for the measurement pipeline: the
// fixed-seed world's per-country scores and provider classes must match the
// frozen testdata/golden_scores.json exactly. A failure means world
// generation, enrichment, scoring, or classification changed behavior; if
// the change is intentional, regenerate with -update (see the flag's doc).
func TestGoldenCorpus(t *testing.T) {
	got := measureGolden(t, 0)

	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}

	if want.Seed != got.Seed || want.SitesPerCountry != got.SitesPerCountry ||
		want.DomesticPerCountry != got.DomesticPerCountry {
		t.Fatalf("golden file frozen at seed=%d sites=%d domestic=%d, test runs seed=%d sites=%d domestic=%d: regenerate with -update",
			want.Seed, want.SitesPerCountry, want.DomesticPerCountry,
			got.Seed, got.SitesPerCountry, got.DomesticPerCountry)
	}

	for cc, layers := range want.Scores {
		for layer, wantScore := range layers {
			if gotScore := got.Scores[cc][layer]; gotScore != wantScore {
				t.Errorf("score drift: %s %s = %s, golden %s", cc, layer, gotScore, wantScore)
			}
		}
	}
	for cc, layers := range got.Scores {
		for layer := range layers {
			if _, ok := want.Scores[cc][layer]; !ok {
				t.Errorf("score for %s %s not in golden file (regenerate with -update)", cc, layer)
			}
		}
	}

	for layer, wantClasses := range want.Classes {
		gotClasses := got.Classes[layer]
		for provider, wantClass := range wantClasses {
			if gotClass, ok := gotClasses[provider]; !ok {
				t.Errorf("class drift: %s provider %q vanished (golden %s)", layer, provider, wantClass)
			} else if gotClass != wantClass {
				t.Errorf("class drift: %s provider %q = %s, golden %s", layer, provider, gotClass, wantClass)
			}
		}
		for provider := range gotClasses {
			if _, ok := wantClasses[provider]; !ok {
				t.Errorf("class drift: %s provider %q is new (regenerate with -update)", layer, provider)
			}
		}
	}
}

// TestGoldenCorpusDeterministic guards the premise of the golden file: two
// independent measurements of the frozen world — at different worker counts
// — must agree exactly, or golden comparisons would flake.
func TestGoldenCorpusDeterministic(t *testing.T) {
	a := measureGolden(t, 1)
	b := measureGolden(t, 4)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("two measurements of the frozen world disagree")
	}
}

// TestGoldenClassifyRuns pins how each layer's affinity-propagation run
// ends on the frozen world — clusters, rounds, converged or capped — at the
// values the two-sweep reference kernel (internal/cluster's
// affinityReference) produced when the one-pass kernel replaced it. The
// class assignments above could survive a kernel change that these do not.
func TestGoldenClassifyRuns(t *testing.T) {
	want := map[countries.Layer]classify.Result{
		countries.Hosting: {Clusters: 37, Iterations: 101, Converged: true},
		countries.DNS:     {Clusters: 51, Iterations: 300, Converged: false},
		countries.CA:      {Clusters: 4, Iterations: 40, Converged: true},
		countries.TLD:     {Clusters: 3, Iterations: 40, Converged: true},
	}
	corpus := goldenCorpus(t, 0)
	for _, layer := range countries.Layers {
		res, err := classify.Layer(corpus, layer, classify.DefaultOptions())
		if err != nil {
			t.Fatalf("classify %v: %v", layer, err)
		}
		w := want[layer]
		if res.Clusters != w.Clusters || res.Iterations != w.Iterations || res.Converged != w.Converged {
			t.Errorf("%v: %d clusters after %d rounds (converged=%v), want %d after %d (converged=%v)",
				layer, res.Clusters, res.Iterations, res.Converged, w.Clusters, w.Iterations, w.Converged)
		}
	}
}
