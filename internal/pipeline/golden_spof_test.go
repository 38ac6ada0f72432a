package pipeline

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/obs"
)

// The golden SPOF gate freezes the other half of the analysis surface:
// where golden_scores.json pins direct per-country centralization,
// golden_spof.json pins the provider dependency graph built on top of it
// — the top-10 transitive single points of failure and every country's
// transitive centralization per modeled layer. Regenerate with the same
// flag as the score golden:
//
//	go test ./internal/pipeline -run TestGoldenSPOF -update
//
// and review the diff of testdata/golden_spof.json before committing it.
const goldenSPOFPath = "testdata/golden_spof.json"

// goldenSPOF freezes one ranked SPOF row. Radius is an exact integer
// count of site-layer bindings; the fractions use the same
// shortest-representation float encoding as the score golden, so string
// equality is bit equality.
type goldenSPOF struct {
	Provider string `json:"provider"`
	Country  string `json:"country,omitempty"`
	Sym      uint32 `json:"sym"`
	Radius   int64  `json:"radius"`
	Share    string `json:"share"`
	Hosting  string `json:"hosting"`
	DNS      string `json:"dns"`
	CA       string `json:"ca"`
}

type goldenSPOFFile struct {
	Seed               int64                        `json:"seed"`
	SitesPerCountry    int                          `json:"sites_per_country"`
	DomesticPerCountry int                          `json:"domestic_per_country"`
	Countries          []string                     `json:"countries"`
	Nodes              int64                        `json:"nodes"`
	ProviderEdges      int64                        `json:"provider_edges"`
	SPOFs              []goldenSPOF                 `json:"spofs"`
	Transitive         map[string]map[string]string `json:"transitive"` // cc -> layer -> exact score
}

// spofFileFrom reduces a built graph to the frozen representation.
func spofFileFrom(g *depgraph.Graph) *goldenSPOFFile {
	st := g.Stats()
	out := &goldenSPOFFile{
		Seed:               goldenSeed,
		SitesPerCountry:    goldenSites,
		DomesticPerCountry: goldenDomestic,
		Countries:          goldenCountries,
		Nodes:              st.Nodes,
		ProviderEdges:      st.ProviderEdges,
		Transitive:         make(map[string]map[string]string),
	}
	for _, s := range g.TopSPOFs(10) {
		out.SPOFs = append(out.SPOFs, goldenSPOF{
			Provider: s.Provider,
			Country:  s.Country,
			Sym:      s.Sym,
			Radius:   s.Radius,
			Share:    formatScore(s.Share),
			Hosting:  formatScore(s.Hosting),
			DNS:      formatScore(s.DNS),
			CA:       formatScore(s.CA),
		})
	}
	for _, layer := range depgraph.Layers() {
		for cc, score := range g.TransitiveScores(layer) {
			if out.Transitive[cc] == nil {
				out.Transitive[cc] = make(map[string]string)
			}
			out.Transitive[cc][layer.String()] = formatScore(score)
		}
	}
	return out
}

// compareSPOFFiles asserts exact equality through the canonical JSON
// encoding — the golden file is byte-frozen, so this is the whole check.
func compareSPOFFiles(t *testing.T, got *goldenSPOFFile, label string) {
	t.Helper()
	buf, err := os.ReadFile(goldenSPOFPath)
	if err != nil {
		t.Fatalf("reading golden SPOF file (regenerate with -update): %v", err)
	}
	var want goldenSPOFFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing golden SPOF file: %v", err)
	}
	if want.Seed != got.Seed || want.SitesPerCountry != got.SitesPerCountry ||
		want.DomesticPerCountry != got.DomesticPerCountry {
		t.Fatalf("golden SPOF file frozen at seed=%d sites=%d domestic=%d: regenerate with -update",
			want.Seed, want.SitesPerCountry, want.DomesticPerCountry)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(&want)
	if string(gj) != string(wj) {
		if want.Nodes != got.Nodes || want.ProviderEdges != got.ProviderEdges {
			t.Errorf("%s: graph shape drift: %d nodes / %d edges, golden %d / %d",
				label, got.Nodes, got.ProviderEdges, want.Nodes, want.ProviderEdges)
		}
		for i := range want.SPOFs {
			if i >= len(got.SPOFs) || got.SPOFs[i] != want.SPOFs[i] {
				got_ := goldenSPOF{}
				if i < len(got.SPOFs) {
					got_ = got.SPOFs[i]
				}
				t.Errorf("%s: SPOF rank %d drift: got %+v, golden %+v", label, i+1, got_, want.SPOFs[i])
			}
		}
		for cc, layers := range want.Transitive {
			for layer, wantScore := range layers {
				if gotScore := got.Transitive[cc][layer]; gotScore != wantScore {
					t.Errorf("%s: transitive score drift: %s %s = %s, golden %s",
						label, cc, layer, gotScore, wantScore)
				}
			}
		}
		// Catch-all for drift the targeted messages above didn't cover
		// (new countries, trailing SPOFs, header changes).
		t.Errorf("%s: golden SPOF encoding differs (regenerate with -update only if intentional)", label)
	}
}

// TestGoldenSPOF is the regression gate for the dependency-graph engine:
// the fixed-seed world's SPOF ranking and transitive scores must match
// the frozen testdata/golden_spof.json exactly. A failure means graph
// extraction, edge inference, closure, or transitive scoring changed
// behavior; regenerate with -update only if that change is intentional.
func TestGoldenSPOF(t *testing.T) {
	got := spofFileFrom(depgraph.Build(goldenCorpus(t, 0), &depgraph.Options{Obs: obs.NewRegistry()}))

	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenSPOFPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSPOFPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenSPOFPath)
		return
	}

	compareSPOFFiles(t, got, "in-memory build")
}

// TestGoldenSPOFThroughStore holds the store-streamed graph build to the
// SAME frozen fixture, never regenerated: the graph built by streaming
// shards from an on-disk store must be indistinguishable from the graph
// built from the materialized corpus — alone (FromStore) or beside the
// scoring tally in the combined scan the daemon loads through (ScanStore),
// whose scores are held to the golden score file in the same breath.
func TestGoldenSPOFThroughStore(t *testing.T) {
	st := storeGolden(t, 0)
	g, err := depgraph.FromStore(st, &depgraph.Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	compareSPOFFiles(t, spofFileFrom(g), "store-streamed build")

	ss, g, err := depgraph.ScanStore(st, &depgraph.Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	compareSPOFFiles(t, spofFileFrom(g), "combined scan")
	compareGoldenScores(t, ss, "combined scan")
}

// TestGoldenSPOFSimulateAudit is the acceptance gate for the what-if
// engine: on the golden world, Simulate's closure-based impact must be
// byte-identical (through JSON) to AuditSimulate's brute-force
// removal-and-rescore for EVERY provider in the graph.
func TestGoldenSPOFSimulateAudit(t *testing.T) {
	corpus := goldenCorpus(t, 0)
	g := depgraph.Build(corpus, &depgraph.Options{Obs: obs.NewRegistry()})
	for _, provider := range g.Providers() {
		fast, err := g.Simulate(provider)
		if err != nil {
			t.Fatalf("Simulate(%s): %v", provider, err)
		}
		slow, err := g.AuditSimulate(corpus, provider)
		if err != nil {
			t.Fatalf("AuditSimulate(%s): %v", provider, err)
		}
		fj, _ := json.Marshal(fast)
		sj, _ := json.Marshal(slow)
		if string(fj) != string(sj) {
			t.Fatalf("Simulate(%s) diverges from brute force:\n fast: %s\n slow: %s", provider, fj, sj)
		}
	}
}
