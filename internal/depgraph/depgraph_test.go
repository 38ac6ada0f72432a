package depgraph

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

// site builds one website row from the graph-relevant fields.
func site(host, hostCC, dns, dnsCC, ca, caCC string) dataset.Website {
	return dataset.Website{
		Domain:              "example.test",
		HostProvider:        host,
		HostProviderCountry: hostCC,
		DNSProvider:         dns,
		DNSProviderCountry:  dnsCC,
		CAOwner:             ca,
		CAOwnerCountry:      caCC,
	}
}

// handCorpus builds an in-memory corpus from explicit rows per country.
func handCorpus(t *testing.T, rows map[string][]dataset.Website) *dataset.Corpus {
	t.Helper()
	c := dataset.NewCorpus("test-epoch")
	for cc, sites := range rows {
		list := &dataset.CountryList{Country: cc, Epoch: "test-epoch"}
		for i := range sites {
			w := sites[i]
			w.Country = cc
			w.Rank = i + 1
			list.Sites = append(list.Sites, w)
		}
		c.Add(list)
	}
	return c
}

// worldCorpus measures a small synthetic world through the pipeline —
// a realistic corpus for the property tests.
func worldCorpus(t *testing.T, seed int64, sites int, ccs []string) *dataset.Corpus {
	t.Helper()
	w, err := worldgen.Build(worldgen.Config{Seed: seed, SitesPerCountry: sites, Countries: ccs})
	if err != nil {
		t.Fatalf("worldgen.Build: %v", err)
	}
	corpus, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatalf("MeasureWorld: %v", err)
	}
	return corpus
}

// equalGraphs asserts two graphs are structurally identical: same
// countries, symbol table, homes, site-edge columns, provider edges, and
// closure sets.
func equalGraphs(t *testing.T, got, want *Graph) {
	t.Helper()
	if len(got.names) != len(want.names) {
		t.Fatalf("node count %d != %d", len(got.names), len(want.names))
	}
	for s := range want.names {
		if got.names[s] != want.names[s] {
			t.Fatalf("sym %d: name %q != %q", s, got.names[s], want.names[s])
		}
		if got.home[s] != want.home[s] {
			t.Fatalf("sym %d (%s): home %q != %q", s, want.names[s], got.home[s], want.home[s])
		}
		if len(got.edges[s]) != len(want.edges[s]) {
			t.Fatalf("sym %d (%s): edges %v != %v", s, want.names[s], got.edges[s], want.edges[s])
		}
		for i := range want.edges[s] {
			if got.edges[s][i] != want.edges[s][i] {
				t.Fatalf("sym %d (%s): edges %v != %v", s, want.names[s], got.edges[s], want.edges[s])
			}
		}
		if !got.closure[s].equal(want.closure[s]) {
			t.Fatalf("sym %d (%s): closure differs", s, want.names[s])
		}
	}
	if len(got.countries) != len(want.countries) {
		t.Fatalf("country count %d != %d", len(got.countries), len(want.countries))
	}
	for i, cc := range want.countries {
		if got.countries[i] != cc {
			t.Fatalf("country %d: %q != %q", i, got.countries[i], cc)
		}
		for l := 0; l < numGraphLayers; l++ {
			g, w := got.cols[l][i], want.cols[l][i]
			if g.total != w.total || len(g.syms) != len(w.syms) {
				t.Fatalf("%s layer %d: column shape differs", cc, l)
			}
			for k := range w.syms {
				if g.syms[k] != w.syms[k] || g.counts[k] != w.counts[k] {
					t.Fatalf("%s layer %d entry %d: (%d,%d) != (%d,%d)",
						cc, l, k, g.syms[k], g.counts[k], w.syms[k], w.counts[k])
				}
			}
		}
	}
	for l := 0; l < numGraphLayers; l++ {
		if got.layerTotal[l] != want.layerTotal[l] {
			t.Fatalf("layer %d total %d != %d", l, got.layerTotal[l], want.layerTotal[l])
		}
	}
}

// tallyCorpus extracts per-country tallies from a corpus serially, in
// the given country order — the raw material for FromTallies tests.
func tallyCorpus(c *dataset.Corpus, order []string) []*Tally {
	out := make([]*Tally, 0, len(order))
	for _, cc := range order {
		tl := NewTally(cc)
		list := c.Lists[cc]
		for i := range list.Sites {
			tl.Observe(&list.Sites[i])
		}
		out = append(out, tl)
	}
	return out
}

func TestGraphEdgeInference(t *testing.T) {
	// HostA's sites use DNSX twice and DNSY once -> plurality edge
	// HostA -> DNSX. CA is CAZ on every site -> HostA -> CAZ and
	// DNSX/DNSY -> CAZ. SelfHost serves its own DNS -> no self-edge.
	c := handCorpus(t, map[string][]dataset.Website{
		"US": {
			site("HostA", "US", "DNSX", "US", "CAZ", "US"),
			site("HostA", "US", "DNSX", "US", "CAZ", "US"),
			site("HostA", "US", "DNSY", "US", "CAZ", "US"),
			site("SelfHost", "DE", "SelfHost", "DE", "CAZ", "US"),
		},
	})
	g := Build(c, &Options{Obs: obs.NewRegistry()})

	wantDeps := map[string][]string{
		"HostA":    {"DNSX", "CAZ"},
		"DNSX":     {"CAZ"},
		"DNSY":     {"CAZ"},
		"CAZ":      nil,
		"SelfHost": {"CAZ"},
	}
	for p, want := range wantDeps {
		got := g.DependsOn(p)
		if len(got) != len(want) {
			t.Fatalf("DependsOn(%s) = %v, want %v", p, got, want)
		}
		seen := map[string]bool{}
		for _, d := range got {
			seen[d] = true
		}
		for _, d := range want {
			if !seen[d] {
				t.Fatalf("DependsOn(%s) = %v, want %v", p, got, want)
			}
		}
	}
	if s, _ := g.SymbolOf("SelfHost"); g.HomeOf(s) != "DE" {
		t.Fatalf("SelfHost home = %q, want DE", g.HomeOf(s))
	}
	st := g.Stats()
	if st.RowsScanned != 4 || st.Nodes != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEdgePluralityTieBreak(t *testing.T) {
	// HostA observed equally behind DNSB and DNSA: the tie must break to
	// the lexicographically smaller name, regardless of map order.
	c := handCorpus(t, map[string][]dataset.Website{
		"US": {
			site("HostA", "US", "DNSB", "US", "", ""),
			site("HostA", "US", "DNSA", "US", "", ""),
		},
	})
	g := Build(c, &Options{Obs: obs.NewRegistry()})
	if got := g.DependsOn("HostA"); len(got) != 1 || got[0] != "DNSA" {
		t.Fatalf("DependsOn(HostA) = %v, want [DNSA]", got)
	}
}

func TestWorkerCountAndTallyOrderInvariance(t *testing.T) {
	corpus := worldCorpus(t, 11, 120, []string{"TH", "US", "DE", "IR", "JP"})
	want := Build(corpus, &Options{Workers: 1, Obs: obs.NewRegistry()})
	for _, workers := range []int{2, 3, 7} {
		got := Build(corpus, &Options{Workers: workers, Obs: obs.NewRegistry()})
		equalGraphs(t, got, want)
	}
	// Tallies handed over in reverse (and shuffled) country order must
	// merge to the identical graph.
	ccs := corpus.Countries()
	rev := make([]string, len(ccs))
	for i, cc := range ccs {
		rev[len(ccs)-1-i] = cc
	}
	for _, order := range [][]string{rev, {ccs[2], ccs[0], ccs[4], ccs[1], ccs[3]}} {
		got, err := FromTallies(tallyCorpus(corpus, order), &Options{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("FromTallies: %v", err)
		}
		equalGraphs(t, got, want)
	}
}

func TestFromTalliesRejectsDuplicateCountry(t *testing.T) {
	if _, err := FromTallies([]*Tally{NewTally("US"), NewTally("US")}, &Options{Obs: obs.NewRegistry()}); err == nil {
		t.Fatal("duplicate country tallies were accepted")
	}
}

func TestFromStoreMatchesCorpusBuild(t *testing.T) {
	corpus := worldCorpus(t, 5, 90, []string{"BR", "CZ", "ZA"})
	dir := filepath.Join(t.TempDir(), "corpus.store")
	if err := corpusstore.Save(dir, corpus, nil); err != nil {
		t.Fatalf("Save: %v", err)
	}
	st, err := corpusstore.Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fromStore, err := FromStore(st, &Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("FromStore: %v", err)
	}
	want := Build(corpus, &Options{Obs: obs.NewRegistry()})
	equalGraphs(t, fromStore, want)

	// The combined scan feeds both tallies from one decode; neither may
	// notice the other, whether the graph merge and the index build that
	// follow run one after the other (one worker) or side by side.
	for _, workers := range []int{1, 2, 8} {
		scores, scanned, err := ScanStore(st, &Options{Workers: workers, Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("ScanStore with %d workers: %v", workers, err)
		}
		equalGraphs(t, scanned, want)
		equalScores(t, scores, corpus.ScoreSet())
	}

	// Both merges rank on workers and intern on the caller: the same
	// tallies, handed over in any order, at any worker count and on one
	// core, must give the identical graph — stats included — and the
	// identical score set, symbol table and usage curves included.
	wantScores := corpus.ScoreSet()
	rng := rand.New(rand.NewSource(5))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 8} {
			scores := make([]*dataset.CountryTally, len(st.Countries()))
			tallies, err := scanTallies(st, workers, scores)
			if err != nil {
				t.Fatal(err)
			}
			rng.Shuffle(len(tallies), func(i, j int) { tallies[i], tallies[j] = tallies[j], tallies[i] })
			rng.Shuffle(len(scores), func(i, j int) { scores[i], scores[j] = scores[j], scores[i] })
			g, err := FromTallies(tallies, &Options{Workers: workers, Obs: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			equalGraphs(t, g, want)
			if g.Stats() != want.Stats() {
				t.Fatalf("GOMAXPROCS %d, %d workers: stats %+v, want %+v", procs, workers, g.Stats(), want.Stats())
			}
			ss, err := dataset.BuildScoreSet(scores)
			if err != nil {
				t.Fatal(err)
			}
			for _, layer := range countries.Layers {
				if !reflect.DeepEqual(ss.UsageCurves(layer), wantScores.UsageCurves(layer)) {
					t.Fatalf("GOMAXPROCS %d, %d workers: %v usage curves differ", procs, workers, layer)
				}
			}
			if !reflect.DeepEqual(ss, wantScores) {
				t.Fatalf("GOMAXPROCS %d, %d workers: score set differs from the corpus's", procs, workers)
			}
		}
	}
}

// TestTransitiveScoresMatchDistribution holds the dense transitive scores to
// the distribution they summarise, bit for bit, for every country and layer:
// on the golden world, and on corpora drawn to be full of provider cycles,
// unmeasured providers and providers named like countries.
func TestTransitiveScoresMatchDistribution(t *testing.T) {
	w, err := worldgen.Build(worldgen.Config{
		Seed: 7, SitesPerCountry: 600, DomesticPerCountry: 30,
		Countries: []string{"AU", "BR", "CZ", "DE", "IN", "IR", "JP", "TH", "US", "ZA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	corpora := map[string]*dataset.Corpus{"golden world": golden}
	for seed := int64(1); seed <= 12; seed++ {
		corpora[fmt.Sprintf("hostile corpus %d", seed)] = hostileCorpus(t, seed)
	}
	for name, c := range corpora {
		g := Build(c, &Options{Obs: obs.NewRegistry()})
		for _, layer := range Layers() {
			scores := g.TransitiveScores(layer)
			if len(scores) != len(g.Countries()) {
				t.Fatalf("%s %v: %d scores for %d countries", name, layer, len(scores), len(g.Countries()))
			}
			for _, cc := range g.Countries() {
				got, want := scores[cc], g.TransitiveDistribution(cc, layer).Score()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s %v: transitive score %v, distribution says %v", name, cc, layer, got, want)
				}
			}
		}
	}
}

// equalScores requires two scoring surfaces to agree bit for bit on what
// the tallies produce: scores, insularities and the usage matrix.
func equalScores(t *testing.T, got, want *dataset.ScoreSet) {
	t.Helper()
	if !reflect.DeepEqual(got.Countries(), want.Countries()) {
		t.Fatalf("scored countries %v, want %v", got.Countries(), want.Countries())
	}
	for _, layer := range countries.Layers {
		if !reflect.DeepEqual(got.Scores(layer), want.Scores(layer)) {
			t.Errorf("%v: scores differ", layer)
		}
		if !reflect.DeepEqual(got.Insularities(layer), want.Insularities(layer)) {
			t.Errorf("%v: insularities differ", layer)
		}
		if !reflect.DeepEqual(got.UsageMatrix(layer), want.UsageMatrix(layer)) {
			t.Errorf("%v: usage matrices differ", layer)
		}
	}
}

func TestSimulateUnknownProvider(t *testing.T) {
	c := handCorpus(t, map[string][]dataset.Website{
		"US": {site("HostA", "US", "", "", "", "")},
	})
	g := Build(c, &Options{Obs: obs.NewRegistry()})
	if _, err := g.Simulate("NoSuchProvider"); err == nil {
		t.Fatal("Simulate accepted an unknown provider")
	}
	if _, err := g.AuditSimulate(c, "NoSuchProvider"); err == nil {
		t.Fatal("AuditSimulate accepted an unknown provider")
	}
}

func TestNoEdgesTransitiveEqualsDirect(t *testing.T) {
	// Rows where providers never co-occur: each site is measured at
	// exactly one layer, so no provider edges can be inferred and the
	// transitive distribution must BE the direct one, bit for bit.
	c := handCorpus(t, map[string][]dataset.Website{
		"US": {
			site("HostA", "US", "", "", "", ""),
			site("HostA", "US", "", "", "", ""),
			site("HostB", "US", "", "", "", ""),
			site("", "", "DNSX", "US", "", ""),
			site("", "", "", "", "CAZ", "US"),
		},
		"DE": {
			site("HostB", "US", "", "", "", ""),
			site("", "", "DNSX", "US", "", ""),
		},
	})
	g := Build(c, &Options{Obs: obs.NewRegistry()})
	if st := g.Stats(); st.ProviderEdges != 0 {
		t.Fatalf("expected no provider edges, got %d", st.ProviderEdges)
	}
	for _, cc := range g.Countries() {
		for _, layer := range graphLayers {
			direct := c.ScoreSet().DistributionOf(cc, layer).Score()
			trans := g.TransitiveDistribution(cc, layer).Score()
			if direct != trans {
				t.Fatalf("%s %v: transitive score %v != direct %v", cc, layer, trans, direct)
			}
		}
	}
}

func TestObsDualRecordedAgainstStats(t *testing.T) {
	reg := obs.NewRegistry()
	corpus := worldCorpus(t, 3, 60, []string{"AU", "IN"})
	g := Build(corpus, &Options{Obs: reg})
	if _, err := g.Simulate(g.NameOf(0)); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if _, err := g.Simulate(g.NameOf(1)); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	st := g.Stats()
	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	for name, want := range map[string]int64{
		"depgraph.builds":         1,
		"depgraph.rows_scanned":   st.RowsScanned,
		"depgraph.nodes":          st.Nodes,
		"depgraph.site_edges":     st.SiteEdges,
		"depgraph.provider_edges": st.ProviderEdges,
		"depgraph.closure_sccs":   st.ClosureSCCs,
		"depgraph.simulations":    st.Simulations,
	} {
		if counters[name] != want {
			t.Errorf("counter %s = %d, stats say %d", name, counters[name], want)
		}
	}
	if st.Simulations != 2 {
		t.Errorf("Simulations = %d, want 2", st.Simulations)
	}
	hists := map[string]bool{}
	for _, h := range reg.Snapshot().Histograms {
		if h.Count > 0 {
			hists[h.Name] = true
		}
	}
	if !hists["depgraph.build_ms"] || !hists["depgraph.simulate_ms"] {
		t.Errorf("span histograms not recorded: %v", hists)
	}
}

func TestImpactJSONRoundTrips(t *testing.T) {
	c := handCorpus(t, map[string][]dataset.Website{
		"US": {site("HostA", "US", "DNSX", "US", "CAZ", "US")},
	})
	g := Build(c, &Options{Obs: obs.NewRegistry()})
	imp, err := g.Simulate("CAZ")
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	b, err := json.Marshal(imp)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Impact
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Total.CA.Lost != 1 || back.Total.Hosting.Lost != 1 || back.Total.DNS.Lost != 1 {
		t.Fatalf("CAZ failure should cascade to every layer: %+v", back.Total)
	}
}
