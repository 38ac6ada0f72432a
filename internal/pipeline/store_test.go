package pipeline

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/worldgen"
)

// storeDigest is one SHA-256 over every file of the store at dir — each
// shard and the manifest — taken as the sorted list of "name digest" lines,
// so two stores with one digest are byte-identical file for file.
func storeDigest(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	h := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %x\n", filepath.Base(name), sha256.Sum256(b))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// measureToStore runs MeasureWorldToStore into a fresh store and returns
// its digest.
func measureToStore(t *testing.T, w *worldgen.World, workers, blockRows int) string {
	t.Helper()
	dir := t.TempDir()
	sw, err := corpusstore.Create(dir, w.Config.Epoch, &corpusstore.Options{Obs: obs.NewRegistry(), BlockRows: blockRows})
	if err != nil {
		t.Fatal(err)
	}
	p := FromWorld(w)
	p.Workers, p.Obs = workers, obs.NewRegistry()
	if err := p.MeasureWorldToStore(w, sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return storeDigest(t, dir)
}

// saveMeasured runs MeasureWorld and saves the corpus into a fresh store,
// returning its digest.
func saveMeasured(t *testing.T, w *worldgen.World, workers, blockRows int) string {
	t.Helper()
	p := FromWorld(w)
	p.Workers, p.Obs = workers, obs.NewRegistry()
	c, err := p.MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := &corpusstore.Options{Obs: obs.NewRegistry(), BlockRows: blockRows, Workers: workers}
	if err := corpusstore.Save(dir, c, opts); err != nil {
		t.Fatal(err)
	}
	return storeDigest(t, dir)
}

// TestMeasureWorldToStoreBytesPinned pins the bytes of every file the
// streaming ingest writes: the golden world, a small seed-11 world at block
// sizes of one row, a few and the default (so symbols first appear in a
// later block), and the same world with the geolocation error model on.
// The digests were recorded from the Website-row ingest this package used
// before it enriched into symbol IDs. A shell world, generated country by
// country, must write the same bytes, and so must Save of MeasureWorld's
// in-memory corpus at every worker count.
func TestMeasureWorldToStoreBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       worldgen.Config
		blockRows int
		want      string
	}{
		{"golden", worldgen.Config{Seed: goldenSeed, SitesPerCountry: goldenSites, DomesticPerCountry: goldenDomestic, Countries: goldenCountries}, 0,
			"07b11ced854bd9ffd8718e4f929f33a90a13947c6273a3950eca864493a7778e"},
		{"seed11/block1", seed11Config(0), 1, "0be53872186f888288860c0c39deb7bb5ccd37cb7733c3df4a0873ffb81366ed"},
		{"seed11/block6", seed11Config(0), 6, "abe7eefd9c0f9b46f7a39ed4149901e2cb9e90fdd83c2c4cc22f1e69b30f2f9a"},
		{"seed11/default", seed11Config(0), 0, "c77275d12e13f3de2c3641f153d893d1ffa2becfcf9f82adc1e287a38214b276"},
		{"seed11/geoerr", seed11Config(0.106), 6, "1c4b0e06014c47720a3e6f3a3fbbc1febefb914088bcc1c22fa31e9d87db191f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := worldgen.Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			shell, err := worldgen.BuildShell(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				if got := measureToStore(t, w, workers, tc.blockRows); got != tc.want {
					t.Errorf("MeasureWorldToStore at %d workers wrote %s, pinned %s", workers, got, tc.want)
				}
				if got := saveMeasured(t, w, workers, tc.blockRows); got != tc.want {
					t.Errorf("Save(MeasureWorld) at %d workers wrote %s, pinned %s", workers, got, tc.want)
				}
			}
			if got := measureToStore(t, shell, 2, tc.blockRows); got != tc.want {
				t.Errorf("MeasureWorldToStore of the shell world wrote %s, pinned %s", got, tc.want)
			}
		})
	}
}

// seed11Config is the small three-country world of
// TestMeasureWorldToStoreMatchesMeasureWorld, with a geolocation error
// rate.
func seed11Config(geoErr float64) worldgen.Config {
	return worldgen.Config{
		Seed:               11,
		SitesPerCountry:    200,
		DomesticPerCountry: 20,
		Countries:          []string{"DE", "JP", "US"},
		GeoErrorRate:       geoErr,
	}
}

// rowsAsWebsites writes rows as country cc's shard and reads them back as
// Website rows, through the store's encoder and decoder.
func rowsAsWebsites(t *testing.T, r *corpusstore.Rows, cc, epoch string) []dataset.Website {
	t.Helper()
	dir := t.TempDir()
	opts := &corpusstore.Options{Obs: obs.NewRegistry()}
	sw, err := corpusstore.Create(dir, epoch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AppendRows(cc, r); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := corpusstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	list, err := st.ReadList(cc)
	if err != nil {
		t.Fatal(err)
	}
	return list.Sites
}

// TestEnrichRowsReusedBufferMatchesFresh is TestEnrichIntoReusedListMatchesFresh
// for the store ingest's row buffer: one country is enriched into a buffer,
// then a shorter second country into the same buffer, whose rows with no
// host IP, no nameserver IP or no issuer sit where the first country's rows
// had all three. Written and read back through the store, the rows must
// equal EnrichCountry's, so no field carries over and the two paths agree. The
// world has the geolocation error model on, so rows carry decoy
// continents, and every location a lookup can return must have a name in
// the dictionary.
func TestEnrichRowsReusedBufferMatchesFresh(t *testing.T) {
	w, err := worldgen.Build(worldgen.Config{
		Seed: 7, SitesPerCountry: 1200, DomesticPerCountry: 30,
		Countries: []string{"TH", "US"}, GeoErrorRate: 0.106,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := FromWorld(w)
	j := p.joins()
	dict := newDictionary(&j)
	for _, l := range j.geo.Locations() {
		if _, ok := dict.ids[l.Continent]; !ok {
			t.Fatalf("continent %q of location %+v is not in the dictionary", l.Continent, l)
		}
	}

	buf := &rowBuffer{seen: map[string]uint32{}}
	j.enrichRows(buf, dict, w.Raw["TH"])
	th := rowsAsWebsites(t, &buf.rows, "TH", w.Config.Epoch)
	if want := p.EnrichCountry("TH", w.Config.Epoch, w.Raw["TH"]).Sites; !reflect.DeepEqual(th, want) {
		t.Fatal("TH rows read back through the dictionary differ from EnrichCountry's")
	}
	for i := 0; i < 4; i++ {
		if s := th[i]; s.HostIP == "" || s.HostProvider == "" || s.NSIP == "" || s.DNSProvider == "" || s.CAOwner == "" {
			t.Fatalf("TH row %d is not fully attributed, so it cannot show a stale field: %+v", i, s)
		}
	}
	first := &buf.rows.Rank[0]

	b := slices.Clone(w.Raw["US"][:50])
	b[0].HostIP = netip.Addr{}
	b[1].NSIP = netip.Addr{}
	b[2].IssuerOrg = ""
	b[3].HostIP, b[3].NSIP, b[3].IssuerOrg = netip.Addr{}, netip.Addr{}, ""
	j.enrichRows(buf, dict, b)
	if &buf.rows.Rank[0] != first {
		t.Fatal("the second enrichment did not reuse the buffer's rows")
	}
	got, want := rowsAsWebsites(t, &buf.rows, "US", w.Config.Epoch), p.EnrichCountry("US", w.Config.Epoch, b).Sites
	if len(got) != len(want) {
		t.Fatalf("reused buffer holds %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: reused %+v, fresh %+v", i, got[i], want[i])
		}
	}
	decoy := 0
	truth := w.Truth.Get("US").Sites
	for i := 4; i < len(got); i++ {
		if got[i].HostIPContinent != truth[i].HostIPContinent {
			decoy++
		}
	}
	if decoy == 0 {
		t.Error("no row carries a decoy continent, so the error model went untested")
	}
}

// TestMeasureWorldToStoreAllocsPerSite is the allocation gate on the store
// ingest: enrichment writes IDs and addresses into reused rows and the
// encoder formats addresses straight into the block, so what is left is
// per shard and per dictionary name, a few hundredths of an object per
// site. A return to a string per row — the two IP strings a Website holds
// are 2.0 a site — fails here, not in a later benchmark read.
func TestMeasureWorldToStoreAllocsPerSite(t *testing.T) {
	w, sites := benchWorld(t)
	p := FromWorld(w)
	p.Obs = obs.NewRegistry()
	allocs := testing.AllocsPerRun(2, func() {
		if err := measureInto(t.TempDir(), p, w); err != nil {
			t.Fatal(err)
		}
	})
	if perSite := allocs / float64(sites); perSite > 0.1 {
		t.Errorf("MeasureWorldToStore allocates %.3f times per site (%.0f for %d sites), want at most 0.1",
			perSite, allocs, sites)
	}
}
