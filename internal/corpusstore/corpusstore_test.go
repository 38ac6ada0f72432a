package corpusstore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// testCorpus hand-builds a deterministic corpus with the field variety the
// format must carry: repeated providers (interning), empty provider fields
// (failed measurements), anycast flags, and list lengths that do not divide
// the block size.
func testCorpus(seed int64, ccs []string, sitesPer int) *dataset.Corpus {
	rng := rand.New(rand.NewSource(seed))
	providers := []string{"Cloudflare", "Amazon", "Hetzner", "", "LocalHost-01", "LocalHost-02"}
	pcountry := map[string]string{
		"Cloudflare": "US", "Amazon": "US", "Hetzner": "DE",
		"LocalHost-01": "", "LocalHost-02": "",
	}
	cas := []string{"Let's Encrypt", "DigiCert", ""}
	caCC := map[string]string{"Let's Encrypt": "US", "DigiCert": "US"}
	continents := []string{"NA", "EU", "AS", ""}
	tlds := []string{"com", "net", "de", "jp"}
	langs := []string{"en", "de", "ja", ""}

	c := dataset.NewCorpus("2023-05")
	for _, cc := range ccs {
		list := &dataset.CountryList{Country: cc, Epoch: "2023-05"}
		for i := 0; i < sitesPer; i++ {
			host := providers[rng.Intn(len(providers))]
			dns := providers[rng.Intn(len(providers))]
			ca := cas[rng.Intn(len(cas))]
			site := dataset.Website{
				Domain:       fmt.Sprintf("site-%s-%04d.%s", cc, i, tlds[rng.Intn(len(tlds))]),
				Country:      cc,
				Rank:         i + 1,
				HostProvider: host, HostProviderCountry: pcountry[host],
				HostIP:          fmt.Sprintf("10.%d.%d.%d", rng.Intn(256), rng.Intn(256), rng.Intn(256)),
				HostIPContinent: continents[rng.Intn(len(continents))],
				HostAnycast:     rng.Intn(3) == 0,
				DNSProvider:     dns, DNSProviderCountry: pcountry[dns],
				NSIP:          fmt.Sprintf("10.%d.%d.%d", rng.Intn(256), rng.Intn(256), rng.Intn(256)),
				NSIPContinent: continents[rng.Intn(len(continents))],
				NSAnycast:     rng.Intn(4) == 0,
				CAOwner:       ca, CAOwnerCountry: caCC[ca],
				TLD:      tlds[rng.Intn(len(tlds))],
				Language: langs[rng.Intn(len(langs))],
			}
			if rng.Intn(10) == 0 {
				site.HostIP = "" // unreachable site: nothing measured at all
				site.HostProvider, site.HostProviderCountry = "", ""
				site.HostIPContinent, site.HostAnycast = "", false
			}
			list.Sites = append(list.Sites, site)
		}
		c.Add(list)
	}
	return c
}

func testOpts(blockRows int) *Options {
	return &Options{Obs: obs.NewRegistry(), BlockRows: blockRows}
}

func TestRoundTrip(t *testing.T) {
	for _, blockRows := range []int{0, 7, 1000} {
		t.Run(fmt.Sprintf("blockRows=%d", blockRows), func(t *testing.T) {
			dir := t.TempDir()
			c := testCorpus(1, []string{"US", "DE", "JP"}, 123)
			cov := &dataset.Coverage{Country: "US", Sites: 123, Degraded: true,
				Host: dataset.FieldCoverage{OK: 120, Lost: 3}}
			c.SetCoverage(cov)
			if err := Save(dir, c, testOpts(blockRows)); err != nil {
				t.Fatal(err)
			}

			st, err := Open(dir, testOpts(blockRows))
			if err != nil {
				t.Fatal(err)
			}
			if st.Epoch() != "2023-05" {
				t.Fatalf("epoch %q", st.Epoch())
			}
			if got, want := st.Countries(), c.Countries(); !reflect.DeepEqual(got, want) {
				t.Fatalf("countries %v, want %v", got, want)
			}
			if got := st.TotalSites(); got != int64(c.TotalSites()) {
				t.Fatalf("TotalSites %d, want %d", got, c.TotalSites())
			}
			for _, cc := range c.Countries() {
				list, err := st.ReadList(cc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(list, c.Get(cc)) {
					t.Fatalf("%s: list does not round-trip", cc)
				}
			}
			if !reflect.DeepEqual(st.Coverage()["US"], cov) {
				t.Fatalf("coverage does not round-trip: %+v", st.Coverage()["US"])
			}

			loaded, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Epoch != c.Epoch || !reflect.DeepEqual(loaded.Lists, c.Lists) {
				t.Fatal("Load does not round-trip the corpus")
			}
			if !reflect.DeepEqual(loaded.CoverageByCountry, c.CoverageByCountry) {
				t.Fatal("Load does not round-trip coverage")
			}
		})
	}
}

// equalScoreSets requires two scoring surfaces to be bit-identical on every
// metric the analyses read.
func equalScoreSets(t *testing.T, streamed, mem *dataset.ScoreSet) {
	t.Helper()
	if !reflect.DeepEqual(streamed.Countries(), mem.Countries()) {
		t.Fatal("country sets differ")
	}
	for _, layer := range countries.Layers {
		if !reflect.DeepEqual(streamed.Scores(layer), mem.Scores(layer)) {
			t.Errorf("%v: scores differ", layer)
		}
		if !reflect.DeepEqual(streamed.Insularities(layer), mem.Insularities(layer)) {
			t.Errorf("%v: insularities differ", layer)
		}
		if g, w := streamed.GlobalDistribution(layer).Score(), mem.GlobalDistribution(layer).Score(); g != w {
			t.Errorf("%v: global score %v, want %v", layer, g, w)
		}
		if !reflect.DeepEqual(streamed.UsageMatrix(layer), mem.UsageMatrix(layer)) {
			t.Errorf("%v: usage matrices differ", layer)
		}
		if !reflect.DeepEqual(streamed.UsageCurves(layer), mem.UsageCurves(layer)) {
			t.Errorf("%v: usage curves differ", layer)
		}
		for _, cc := range mem.Countries() {
			if g, w := streamed.DistributionOf(cc, layer).Score(), mem.DistributionOf(cc, layer).Score(); g != w {
				t.Errorf("%v %s: distribution score %v, want %v", layer, cc, g, w)
			}
		}
	}
}

// savedScore saves a corpus and scores it from disk, twice: through Score,
// and through a Scan whose every block goes to the country's tally and to
// a second observer — the shape of depgraph.Scan, which this package
// cannot import (depgraph's own store tests and TestGoldenSPOFThroughStore
// hold the graph half). The second observer must see every row and must
// not change what the tally sees.
func savedScore(t *testing.T, c *dataset.Corpus, blockRows int) *dataset.ScoreSet {
	t.Helper()
	dir := t.TempDir()
	if err := Save(dir, c, testOpts(blockRows)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, testOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := st.Score()
	if err != nil {
		t.Fatal(err)
	}

	ccs := st.Countries()
	tallies, rows := make([]*dataset.CountryTally, len(ccs)), make([]int, len(ccs))
	err = st.Scan(0, func(i int, cc string) func(*dataset.SymbolBlock) {
		if cc != ccs[i] {
			t.Errorf("Scan calls country %d %s, Countries() says %s", i, cc, ccs[i])
		}
		tallies[i] = dataset.NewCountryTally(cc)
		return func(b *dataset.SymbolBlock) {
			tallies[i].ObserveBlock(b)
			rows[i] += b.Rows()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := dataset.BuildScoreSet(tallies)
	if err != nil {
		t.Fatal(err)
	}
	equalScoreSets(t, scanned, streamed)
	for i, cc := range ccs {
		if want := len(c.Get(cc).Sites); rows[i] != want {
			t.Errorf("%s: Scan delivered %d rows, corpus holds %d", cc, rows[i], want)
		}
	}
	return streamed
}

// TestStreamedScoresMatchInMemory is the scoring-fidelity invariant: the
// store's streamed ScoreSet must be bit-identical to the in-memory corpus's
// scoring surface on every metric the analyses read.
func TestStreamedScoresMatchInMemory(t *testing.T) {
	c := testCorpus(2, []string{"US", "DE", "JP", "TH"}, 217)
	equalScoreSets(t, savedScore(t, c, 11), c.ScoreSet())
}

// TestStreamedScoresMatchOnHostileCorpora holds the two representations of
// the tally's skip rules equal where they are easiest to get wrong. Score
// counts symbol IDs and Corpus.ScoreSet reads strings, so the corpora are
// drawn to make IDs collide with the rules: unmeasured providers, measured
// providers with no country, an empty TLD, and providers, TLDs and
// languages named exactly like a country code — so the symbol a shard's
// own country gets turns up in provider columns, and is first seen in a
// column that is not a country at all. Blocks of one row make every symbol
// arrive in a different block from the last. (A site country of "" cannot
// be stored; dataset's TestObserveBlockMatchesObserve covers it.)
func TestStreamedScoresMatchOnHostileCorpora(t *testing.T) {
	names := []string{"", "", "US", "DE", "JP", "Cloudflare", "Hetzner", "us"}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func() string { return names[rng.Intn(len(names))] }
		c := dataset.NewCorpus("2023-05")
		for _, cc := range []string{"DE", "JP", "US"} {
			list := &dataset.CountryList{Country: cc, Epoch: c.Epoch}
			for i, n := 0, 1+rng.Intn(40); i < n; i++ {
				list.Sites = append(list.Sites, dataset.Website{
					Domain: fmt.Sprintf("s%d.test", i), Country: cc, Rank: i + 1,
					HostProvider: pick(), HostProviderCountry: pick(),
					DNSProvider: pick(), DNSProviderCountry: pick(),
					CAOwner: pick(), CAOwnerCountry: pick(),
					TLD: pick(), Language: pick(), HostIPContinent: pick(),
				})
			}
			c.Add(list)
		}
		equalScoreSets(t, savedScore(t, c, []int{1, 6, 4096}[seed%3]), c.ScoreSet())
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// TestAppendListBytesPinned pins the writer's bytes at block sizes of one
// row, a few, and more than the default, with a list longer than one block
// of each. The digests were written at PR 19's commit by the row-at-a-time
// Append path this package used to have (rows copied into a pending block,
// the last partial block flushed by Close); AppendList, which encodes the
// blocks in place, must keep reproducing them.
func TestAppendListBytesPinned(t *testing.T) {
	list := testCorpus(7, []string{"US"}, 4100).Get("US")
	for blockRows, want := range map[int]string{
		1:    "082251884eb304ede0f8279a8409d7a583fdddbcf627f0533656a2c734f75def",
		6:    "5a6029e99e4a08e93e9670f34cec37c4a72173d4bc6823f8f20753633013ceb9",
		4096: "e68e70b6b59d128dd1e6cde2c670b294620deb29511684a0b0f60d8d06c85d67",
	} {
		dir := t.TempDir()
		w, err := Create(dir, list.Epoch, testOpts(blockRows))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendList(list); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		shard, err := os.ReadFile(filepath.Join(dir, "US.shard"))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(shard)); got != want {
			t.Errorf("blockRows=%d: AppendList wrote %s, pinned %s", blockRows, got, want)
		}
	}
}

// TestScoreAllocsPerRow is the allocation gate on streamed scoring: the
// symbol view allocates per shard and per symbol, never per row. A return
// to a string or a Website per row costs three allocations a row and fails
// here, not in a later benchmark read.
func TestScoreAllocsPerRow(t *testing.T) {
	c := benchCorpus(t)
	dir := t.TempDir()
	if err := Save(dir, c, benchOpts()); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, benchOpts())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := st.Score(); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / float64(c.TotalSites()); perRow > 0.5 {
		t.Errorf("Score allocates %.2f times per row (%.0f for %d rows), want at most 0.5",
			perRow, allocs, c.TotalSites())
	}
}

// TestScoreBytesPerRow gates streamed scoring in bytes as well as objects,
// at one worker: a scan reads every shard through one set of read buffers,
// so what a score allocates is the per-shard symbol tables, the tallies and
// the score set, about 18 bytes a row on this corpus. A fresh 64 KiB read
// buffer and payload buffer per shard, or a per-row string, fails here.
func TestScoreBytesPerRow(t *testing.T) {
	c := benchCorpus(t)
	dir := t.TempDir()
	if err := Save(dir, c, benchOpts()); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, &Options{Obs: obs.NewRegistry(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	perRow := bytesPerRun(3, func() {
		if _, err := st.Score(); err != nil {
			t.Fatal(err)
		}
	}) / float64(c.TotalSites())
	if perRow > 30 {
		t.Errorf("Score allocates %.1f bytes per row, want at most 30", perRow)
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes: the heap bytes one call of
// f allocates, averaged over runs after a warm-up call, on one core.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestStreamShardMatchesReadList(t *testing.T) {
	dir := t.TempDir()
	c := testCorpus(3, []string{"US"}, 50)
	if err := Save(dir, c, testOpts(8)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []dataset.Website
	err = st.StreamShard("US", func(w *dataset.Website) error {
		streamed = append(streamed, *w) // the callback row is reused; copy
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	list, err := st.ReadList("US")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, list.Sites) {
		t.Fatal("StreamShard and ReadList disagree")
	}
	if st.Rows("US") != int64(len(streamed)) {
		t.Fatalf("Rows(US) = %d, streamed %d", st.Rows("US"), len(streamed))
	}
	if st.Rows("ZZ") != -1 {
		t.Fatal("Rows of an absent country should be -1")
	}
	if err := st.StreamShard("ZZ", func(*dataset.Website) error { return nil }); err == nil {
		t.Fatal("streaming an absent country should fail")
	}
}

// TestSaveDeterministic pins the byte-identical invariant: saving the same
// corpus twice produces identical shard and manifest files.
func TestSaveDeterministic(t *testing.T) {
	c := testCorpus(4, []string{"US", "DE"}, 64)
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := Save(dirA, c, testOpts(16)); err != nil {
		t.Fatal(err)
	}
	if err := Save(dirB, c, testOpts(16)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ManifestName, "US.shard", "DE.shard"} {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two saves of the same corpus differ", name)
		}
	}
}

func TestWriterValidation(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, "2023-05", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create(filepath.Join(dir, "inner\x00bad"), "2023-05", nil); err == nil {
		t.Error("expected invalid dir to fail eventually") // os-level error
	}
	us := &dataset.CountryList{Country: "US", Epoch: "2023-05",
		Sites: []dataset.Website{{Domain: "a.com", Country: "US", Rank: 1}}}
	if err := w.AppendList(us); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendList(us); err == nil {
		t.Error("appending a written shard again should fail")
	}
	if err := w.AppendList(&dataset.CountryList{Country: "../evil", Epoch: "2023-05"}); err == nil {
		t.Error("path-escaping country code should fail")
	}
	// A refused row refuses its list, which leaves no file behind and
	// never reaches the manifest.
	if err := w.AppendList(&dataset.CountryList{Country: "DE", Epoch: "2023-05",
		Sites: []dataset.Website{{Domain: "a.com", Country: "US", Rank: 1}}}); err == nil {
		t.Error("wrong-country row should fail")
	}
	if err := w.AppendList(&dataset.CountryList{Country: "JP", Epoch: "2023-05",
		Sites: []dataset.Website{{Domain: "a.jp", Country: "JP", Rank: 1}, {Country: "JP", Rank: 2}}}); err == nil {
		t.Error("empty-domain row should fail")
	}
	// Close refuses while a shard is still being written.
	w.writing["FR"] = true
	if err := w.Close(); err == nil {
		t.Error("Close with a shard in flight should fail")
	}
	delete(w.writing, "FR")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A shard is renamed into place by Close's commit, so only after Close
	// does the directory hold exactly the written shard and the manifest.
	if got := dirNames(t, dir); !reflect.DeepEqual(got, []string{"US.shard", ManifestName}) {
		t.Errorf("store directory holds %v, want only US.shard and %s", got, ManifestName)
	}
	if err := w.AppendList(&dataset.CountryList{Country: "FR", Epoch: "2023-05"}); err == nil {
		t.Error("appending to a closed writer should fail")
	}
	if _, err := Create(dir, "2023-05", nil); err == nil {
		t.Error("Create over an existing store should refuse")
	}
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Countries(); !reflect.DeepEqual(got, []string{"US"}) {
		t.Fatalf("failed shards must not reach the manifest; got %v", got)
	}
}

// TestCloseReportsFailedShardCommit: a non-empty directory squatting on
// DE.shard's name lets AppendList write the shard's bytes but makes the
// background rename fail. Close must report it by name, write no manifest
// and leave no temp file, so the directory never opens as a store.
func TestCloseReportsFailedShardCommit(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "DE.shard", "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	c := testCorpus(5, []string{"DE", "US"}, 20)
	w, err := Create(dir, c.Epoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range c.Countries() {
		if err := w.AppendList(c.Get(cc)); err != nil {
			t.Fatalf("AppendList(%s) = %v; its bytes were written, so it should succeed", cc, err)
		}
	}
	err = w.Close()
	if err == nil || !strings.Contains(err.Error(), "DE.shard") {
		t.Fatalf("Close = %v, want a failure naming DE.shard", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("manifest after a failed commit: %v, want none", err)
	}
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("Open accepted a store whose commit failed")
	}
	for _, name := range dirNames(t, dir) {
		if strings.Contains(name, ".tmp-") {
			t.Errorf("temp file %s left behind", name)
		}
	}
}

// dirNames lists dir's entries by name, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestOpenMissingManifest(t *testing.T) {
	if _, err := Open(t.TempDir(), nil); err == nil {
		t.Fatal("opening a directory without a manifest should fail")
	}
}

func TestDuplicateTallyRejected(t *testing.T) {
	tallies := []*dataset.CountryTally{
		dataset.NewCountryTally("US"),
		dataset.NewCountryTally("US"),
	}
	if _, err := dataset.BuildScoreSet(tallies); err == nil {
		t.Fatal("duplicate country tallies should be rejected")
	}
}

// TestStoreMetrics spot-checks the store.* instruments fire on both paths.
func TestStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	c := testCorpus(6, []string{"US"}, 20)
	if err := Save(dir, c, &Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.shards_written").Value(); got != 1 {
		t.Errorf("shards_written = %d", got)
	}
	if got := reg.Counter("store.rows_written").Value(); got != 20 {
		t.Errorf("rows_written = %d", got)
	}
	if got := reg.Counter("store.manifest_writes").Value(); got != 1 {
		t.Errorf("manifest_writes = %d", got)
	}
	st, err := Open(dir, &Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Score(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.shards_streamed").Value(); got != 1 {
		t.Errorf("shards_streamed = %d", got)
	}
	if got := reg.Counter("store.rows_streamed").Value(); got != 20 {
		t.Errorf("rows_streamed = %d", got)
	}
	if got := reg.Counter("store.bytes_streamed").Value(); got <= 0 {
		t.Errorf("bytes_streamed = %d", got)
	}
}
