// The million-site scale gate lives in an external test package so it can
// drive the real production stack — worldgen shell, pipeline enrichment,
// store ingestion — the way cmd/webdep does (the internal test package
// cannot import pipeline, which imports corpusstore).
package corpusstore_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/analysis"
	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/webdepd"
	"github.com/webdep/webdep/internal/worldgen"
)

const (
	scaleSitesPerCountry = 6700 // × 150 countries = 1,005,000 sites
	scaleDefaultBudgetMB = 400
)

// heapWatermark samples HeapAlloc until stopped, recording the peak. The
// scale gate's budget is a watermark, not an average: one phase that
// materializes the corpus blows it even if the steady state is small.
type heapWatermark struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func watchHeap() *heapWatermark {
	hw := &heapWatermark{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hw.done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			hw.sample()
			select {
			case <-hw.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return hw
}

func (hw *heapWatermark) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		old := hw.peak.Load()
		if ms.HeapAlloc <= old || hw.peak.CompareAndSwap(old, ms.HeapAlloc) {
			return
		}
	}
}

func (hw *heapWatermark) peakMB() float64 {
	close(hw.stop)
	<-hw.done
	return float64(hw.peak.Load()) / (1 << 20)
}

// scaleBudgetMB applies the scale gates' shared switches: skip unless
// WEBDEP_SCALE_SMOKE is set, and read the heap budget.
func scaleBudgetMB(t *testing.T) float64 {
	t.Helper()
	if os.Getenv("WEBDEP_SCALE_SMOKE") == "" {
		t.Skip("set WEBDEP_SCALE_SMOKE=1 to run the million-site scale gates")
	}
	s := os.Getenv("WEBDEP_SCALE_BUDGET_MB")
	if s == "" {
		return scaleDefaultBudgetMB
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("WEBDEP_SCALE_BUDGET_MB=%q: %v", s, err)
	}
	return v
}

// ingestScaleWorld generates the million-site world (every country the
// paper models, 6700 sites each) as a shell and measures it into a fresh
// store country by country, the way cmd/webdep does. Each gate ingests its
// own: a store shared between tests would have to outlive the test that
// wrote it, and the ingest is seconds.
func ingestScaleWorld(t *testing.T, opts *corpusstore.Options) (dir string, ccs []string, sites int64) {
	t.Helper()
	ccs = countries.Codes()
	w, err := worldgen.BuildShell(worldgen.Config{
		Seed:               1,
		SitesPerCountry:    scaleSitesPerCountry,
		DomesticPerCountry: 40,
		Countries:          ccs,
	})
	if err != nil {
		t.Fatal(err)
	}
	sites = int64(len(ccs)) * scaleSitesPerCountry
	if sites < 1_000_000 {
		t.Fatalf("world holds %d sites; the scale gate requires at least a million", sites)
	}
	dir = t.TempDir()
	sw, err := corpusstore.Create(dir, w.Config.Epoch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.FromWorld(w).MeasureWorldToStore(w, sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, ccs, sites
}

// TestScaleMillionSiteStore is the CI memory-budget scale gate: a
// million-site world (every country the paper models, 6700 sites each) is
// generated, enriched, and ingested into a store country by country, then
// scored AND condensed into the provider dependency graph by streaming the
// shards — all without the corpus ever being resident. The test fails if
// the heap watermark exceeds the budget
// (WEBDEP_SCALE_BUDGET_MB, default 400) or if streamed scores diverge from
// a row-scan recomputation on sampled countries.
//
// Gated behind WEBDEP_SCALE_SMOKE=1: it runs minutes, not seconds.
func TestScaleMillionSiteStore(t *testing.T) {
	budgetMB := scaleBudgetMB(t)
	hw := watchHeap()
	opts := &corpusstore.Options{Obs: obs.NewRegistry()}
	start := time.Now()
	dir, ccs, wantSites := ingestScaleWorld(t, opts)
	ingestDone := time.Now()

	st, err := corpusstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.TotalSites(); got != wantSites {
		t.Fatalf("store holds %d sites, world generated %d", got, wantSites)
	}
	ss, err := st.Score()
	if err != nil {
		t.Fatal(err)
	}
	scoreDone := time.Now()

	// Build the provider dependency graph by streaming the same shards:
	// graph construction must fit the streaming budget too — the graph is
	// O(providers), not O(sites), so a million-site store condenses to a
	// few hundred nodes.
	g, err := depgraph.FromStore(st, &depgraph.Options{Obs: opts.Obs})
	if err != nil {
		t.Fatal(err)
	}
	gst := g.Stats()
	if gst.RowsScanned != wantSites {
		t.Fatalf("graph scanned %d rows, store holds %d", gst.RowsScanned, wantSites)
	}
	if gst.Nodes == 0 || gst.ProviderEdges == 0 {
		t.Fatalf("million-site graph is degenerate: %d nodes, %d provider edges", gst.Nodes, gst.ProviderEdges)
	}
	spofs := g.TopSPOFs(1)
	if len(spofs) == 0 || spofs[0].Radius == 0 {
		t.Fatal("million-site graph has no ranked SPOF")
	}
	if _, err := g.Simulate(spofs[0].Provider); err != nil {
		t.Fatal(err)
	}
	graphDone := time.Now()

	// Row-scan cross-check on a sampled subset: re-score each sampled
	// country from its materialized rows and demand exact equality with the
	// streamed tallies.
	sampled := []string{ccs[0], ccs[len(ccs)/4], ccs[len(ccs)/2], ccs[3*len(ccs)/4], ccs[len(ccs)-1]}
	for _, cc := range sampled {
		list, err := st.ReadList(cc)
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(len(list.Sites)); got != scaleSitesPerCountry {
			t.Fatalf("%s: %d rows, want %d", cc, got, scaleSitesPerCountry)
		}
		one := dataset.NewCorpus(st.Epoch())
		one.Add(list)
		rescored := one.ScoreSet()
		for _, layer := range countries.Layers {
			want := rescored.DistributionOf(cc, layer).Score()
			got := ss.DistributionOf(cc, layer).Score()
			if got != want {
				t.Errorf("%s %v: streamed score %v, row-scan score %v", cc, layer, got, want)
			}
		}
		// Release the materialized rows before sampling the next country.
		list.Sites = nil
	}

	peakMB := hw.peakMB()
	t.Logf("scale gate: %d sites, %d countries; ingest %.1fs, score %.1fs, graph %.1fs (%d nodes, %d edges, worst SPOF %q); heap watermark %.1f MB (budget %.0f MB)",
		wantSites, len(ccs), ingestDone.Sub(start).Seconds(), scoreDone.Sub(ingestDone).Seconds(),
		graphDone.Sub(scoreDone).Seconds(), gst.Nodes, gst.ProviderEdges, spofs[0].Provider, peakMB, budgetMB)
	if peakMB > budgetMB {
		t.Fatalf("heap watermark %.1f MB exceeds the %.0f MB scale budget: the streaming path is materializing state it must not hold",
			peakMB, budgetMB)
	}
}

// TestScaleDaemonServesMillionSiteStore holds the serving path to the batch
// path's memory bound: webdepd is started over the million-site store,
// answers one query of every endpoint shape, and is reloaded while a
// goroutine keeps querying — two generations alive at once — all under the
// same heap watermark budget. A daemon that materialized the rows it serves
// would hold gigabytes here. Every body must equal the direct render: the
// exported response type filled from the store's separately pinned
// streaming paths (Score, FromStore) and marshalled.
func TestScaleDaemonServesMillionSiteStore(t *testing.T) {
	budgetMB := scaleBudgetMB(t)
	dir, _, wantSites := ingestScaleWorld(t, &corpusstore.Options{Obs: obs.NewRegistry()})
	st, err := corpusstore.Open(dir, &corpusstore.Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	_, label, err := corpusstore.LatestGeneration(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := directRenders(t, st, label, wantSites)
	runtime.GC() // the watermark is the daemon's, not the reference's

	hw := watchHeap()
	start := time.Now()
	reg := obs.NewRegistry()
	d, err := webdepd.Start("127.0.0.1:0", webdepd.Config{StoreRoot: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	started := time.Now()

	fetch := func(path string) []byte {
		resp, err := http.Get("http://" + d.Addr + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	check := func(path string) {
		body := fetch(path)
		for _, w := range want[path] {
			if bytes.Equal(body, w) {
				return
			}
		}
		t.Errorf("%s: served bytes differ from the direct render\n got: %.200s\nwant: %.200s", path, body, want[path][0])
	}
	for path := range want {
		check(path) // cold
	}
	served := time.Now()

	// One reload with the old generation still answering: queries loop until
	// the swap has happened and every path has been fetched again after it.
	// The manifest is first written again as a new file, which is what a store
	// put in this one's place looks like — a reload that found the very file
	// it serves would scan nothing and share the read model.
	manifest := filepath.Join(dir, corpusstore.ManifestName)
	if label != "." {
		manifest = filepath.Join(dir, label, corpusstore.ManifestName)
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest+".new", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(manifest+".new", manifest); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			for path := range want {
				check(path)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	if _, err := d.Reload(); err != nil {
		t.Errorf("reload: %v", err)
	}
	reloaded := time.Now()
	close(stop)
	<-done
	for path := range want {
		check(path) // the new generation, cold or warm
	}
	if _, swap := d.Generation(); swap != 1 {
		t.Errorf("serving swap %d after one reload", swap)
	}
	if n := reg.Counter("webdepd.reloads_unchanged").Value(); n != 0 {
		t.Errorf("the reload scanned nothing (webdepd.reloads_unchanged = %d): two read models were never alive at once", n)
	}

	peakMB := hw.peakMB()
	t.Logf("daemon scale gate: %d sites; start %.1fs, %d cold queries %.1fs, reload under load %.1fs; heap watermark %.1f MB (budget %.0f MB)",
		wantSites, started.Sub(start).Seconds(), len(want), served.Sub(started).Seconds(),
		reloaded.Sub(served).Seconds(), peakMB, budgetMB)
	if peakMB > budgetMB {
		t.Fatalf("heap watermark %.1f MB exceeds the %.0f MB scale budget: the serving path is holding state that grows with the site count",
			peakMB, budgetMB)
	}
}

// directRenders computes what the daemon must answer, for one query of every
// endpoint shape, without the daemon: the exported response types filled
// from Store.Score and depgraph.FromStore and marshalled as the daemon
// marshals. /api/epoch has one body per swap the test can observe.
func directRenders(t *testing.T, st *corpusstore.Store, label string, sites int64) map[string][][]byte {
	t.Helper()
	ss, err := st.Score()
	if err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.FromStore(st, &depgraph.Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	epoch, ccs := st.Epoch(), ss.Countries()
	out := map[string][][]byte{}

	all := webdepd.AllScoresResponse{Epoch: epoch, Layers: map[string]webdepd.LayerScores{}}
	for _, l := range countries.Layers {
		all.Layers[l.String()] = webdepd.LayerScores{Scores: ss.Scores(l), Insularity: ss.Insularities(l)}
	}
	out["/api/scores"] = [][]byte{body(all)}
	out["/api/scores?layer=tld"] = [][]byte{body(webdepd.LayerScoresResponse{
		Epoch: epoch, Layer: "tld", Scores: ss.Scores(countries.TLD), Insularity: ss.Insularities(countries.TLD),
	})}

	cc := ccs[len(ccs)/2]
	one := webdepd.CountryScoreResponse{
		Epoch: epoch, Layer: "dns", Country: cc, Of: len(ccs),
		Score:      ss.Scores(countries.DNS)[cc],
		Insularity: ss.Insularities(countries.DNS)[cc],
	}
	for i, row := range analysis.SortedScores(ss, countries.DNS) {
		if row.Code == cc {
			one.Rank = i + 1
		}
	}
	out["/api/scores?layer=dns&country="+cc] = [][]byte{body(one)}
	out["/api/rankcurve?layer=hosting&country="+cc] = [][]byte{body(webdepd.RankCurveResponse{
		Epoch: epoch, Layer: "hosting", Country: cc, Curve: ss.DistributionOf(cc, countries.Hosting).RankCurve(),
	})}
	out["/api/coverage"] = [][]byte{body(webdepd.CoverageResponse{
		Epoch: epoch, Countries: map[string]*dataset.Coverage{}, Degraded: []string{},
	})}

	res, err := classify.Layer(ss, countries.CA, classify.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	classes := webdepd.ClassesResponse{Epoch: epoch, Layer: "ca", Counts: res.Counts(), Shares: map[string]map[classify.Class]float64{}}
	for _, cc := range ccs {
		classes.Shares[cc] = classify.CountryBreakdownIndexed(ss, cc, countries.CA, res)
	}
	out["/api/classes?layer=ca"] = [][]byte{body(classes)}

	top := g.TopSPOFs(5)
	out["/api/spof?n=5"] = [][]byte{body(webdepd.SPOFResponse{Epoch: epoch, Top: top})}
	imp, err := g.Simulate(top[0].Provider)
	if err != nil {
		t.Fatal(err)
	}
	out["/api/what-if?provider="+url.QueryEscape(top[0].Provider)] = [][]byte{body(webdepd.WhatIfResponse{Epoch: epoch, Impact: imp})}

	for swap := int64(0); swap <= 1; swap++ {
		out["/api/epoch"] = append(out["/api/epoch"], body(webdepd.EpochResponse{
			Epoch: epoch, Generation: label, Swap: swap, Countries: len(ccs), Sites: int(sites),
		}))
	}
	return out
}
