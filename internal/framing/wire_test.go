package framing_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/fedtransport"
	"github.com/webdep/webdep/internal/obs"
)

// updateWire rewrites testdata/ from the current code. The fixtures were
// produced by the commit before internal/framing existed; regenerating them
// is a format change and belongs with a Version or magic bump, nowhere else.
var updateWire = flag.Bool("update-wire", false, "rewrite the pinned wire-format fixtures")

const (
	wireEpoch = "2023-05"
	wireKey   = "wire-pin-key"
)

var (
	wireCountries = []string{"CZ", "TH"}
	wireShard     = checkpoint.ShardInfo{Worker: "w1", Index: 0, Total: 2, Gen: 1}
	wireSites     = []dataset.Website{
		{Domain: "a.th", Country: "TH", Rank: 1,
			HostProvider: "Cloudflare", HostProviderCountry: "US", HostIP: "10.0.0.1", HostIPContinent: "AS", HostAnycast: true,
			DNSProvider: "Cloudflare", DNSProviderCountry: "US", NSIP: "10.0.0.2", NSIPContinent: "NA", NSAnycast: true,
			CAOwner: "Let's Encrypt", CAOwnerCountry: "US", TLD: "th", Language: "th"},
		{Domain: "b.co.th", Country: "TH", Rank: 2,
			HostProvider: "LocalHost-01", HostIP: "10.1.2.3", HostIPContinent: "AS",
			DNSProvider: "Cloudflare", DNSProviderCountry: "US", NSIP: "10.0.0.2", NSIPContinent: "NA", NSAnycast: true,
			TLD: "th", Language: "en"},
		{Domain: "unreachable.com", Country: "TH", Rank: 3, TLD: "com"},
	}
	wireOutcomes = []dataset.SiteOutcome{
		{Host: dataset.StatusOK, NS: dataset.StatusOK, CA: dataset.StatusOK, Language: dataset.StatusOK},
		{Host: dataset.StatusOK, NS: dataset.StatusOK, CA: dataset.StatusEmpty, Language: dataset.StatusOK},
		{Host: dataset.StatusLost, NS: dataset.StatusLost, CA: dataset.StatusLost, Language: dataset.StatusLost},
	}
	wireMeta = fedtransport.Meta{Worker: "w1", Gen: 1, Epoch: wireEpoch, Countries: wireCountries}
)

// writeWireJournal writes the pinned shard journal through the production
// append path and returns its bytes.
func writeWireJournal(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w1.journal")
	sh := wireShard
	j, err := checkpoint.CreateShard(path, wireEpoch, wireCountries, &sh, &checkpoint.Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range wireSites {
		j.Append("TH", s, wireOutcomes[i])
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return readFile(t, path)
}

// writeWireStore saves the pinned one-country corpus and returns the store
// directory. Two rows to a block, so the shard holds a full and a partial block.
func writeWireStore(t *testing.T) string {
	t.Helper()
	c := dataset.NewCorpus(wireEpoch)
	c.Add(&dataset.CountryList{Country: "TH", Epoch: wireEpoch, Sites: wireSites})
	c.SetCoverage(&dataset.Coverage{Country: "TH", Sites: 3, Degraded: true,
		Host: dataset.FieldCoverage{OK: 2, Lost: 1}})
	dir := t.TempDir()
	if err := corpusstore.Save(dir, c, &corpusstore.Options{Obs: obs.NewRegistry(), BlockRows: 2}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func writeWireArtifact(t *testing.T, journal []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fedtransport.WriteArtifact(&buf, []byte(wireKey), wireMeta, int64(len(journal)), bytes.NewReader(journal)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pinned compares freshly written bytes with a committed fixture (or, under
// -update-wire, replaces the fixture) and returns the fixture's bytes.
func pinned(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateWire {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readFile(t, path)
	if sha256.Sum256(got) != sha256.Sum256(want) {
		t.Errorf("%s: this build writes %d bytes (sha256 %x), the pinned fixture is %d bytes (sha256 %x)",
			name, len(got), sha256.Sum256(got), len(want), sha256.Sum256(want))
	}
	return want
}

// TestWireFormatPinned holds the three byte formats that share the frame —
// checkpoint journal, corpus store, signed artifact — to fixtures written
// by the commit before internal/framing existed: this build must read each
// fixture back to the values that produced it, and must write those values
// to the fixture's exact bytes.
func TestWireFormatPinned(t *testing.T) {
	t.Run("journal", func(t *testing.T) {
		fixture := pinned(t, "w1.journal", writeWireJournal(t))

		path := filepath.Join(t.TempDir(), "w1.journal")
		if err := os.WriteFile(path, fixture, 0o644); err != nil {
			t.Fatal(err)
		}
		var sites []dataset.Website
		var outcomes []dataset.SiteOutcome
		info, err := checkpoint.StreamSites(path, nil,
			func(country string, s dataset.Website, o dataset.SiteOutcome) error {
				if country != "TH" {
					t.Errorf("record country %q, want TH", country)
				}
				sites, outcomes = append(sites, s), append(outcomes, o)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		want := &checkpoint.JournalInfo{Version: checkpoint.Version, Epoch: wireEpoch,
			Countries: wireCountries, Shard: &wireShard, Sites: 3}
		if !reflect.DeepEqual(info, want) {
			t.Errorf("journal info %+v, want %+v", info, want)
		}
		if !reflect.DeepEqual(sites, wireSites) || !reflect.DeepEqual(outcomes, wireOutcomes) {
			t.Errorf("journal records differ from the pinned inputs:\n%+v\n%+v", sites, outcomes)
		}
		inspected, err := checkpoint.InspectBytes(fixture, path)
		if err != nil || !reflect.DeepEqual(inspected, want) {
			t.Errorf("InspectBytes = %+v, %v; want %+v", inspected, err, want)
		}
	})

	t.Run("store", func(t *testing.T) {
		written := writeWireStore(t)
		dir := t.TempDir()
		for _, name := range []string{"TH.shard", corpusstore.ManifestName} {
			fixture := pinned(t, name, readFile(t, filepath.Join(written, name)))
			if err := os.WriteFile(filepath.Join(dir, name), fixture, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := corpusstore.Open(dir, &corpusstore.Options{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if st.Epoch() != wireEpoch || !reflect.DeepEqual(st.Countries(), []string{"TH"}) || st.Rows("TH") != 3 {
			t.Errorf("manifest: epoch %q countries %v rows %d", st.Epoch(), st.Countries(), st.Rows("TH"))
		}
		if cov := st.Coverage()["TH"]; cov == nil || !cov.Degraded || cov.Host.Lost != 1 {
			t.Errorf("manifest coverage %+v", cov)
		}
		list, err := st.ReadList("TH")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(list.Sites, wireSites) {
			t.Errorf("store rows differ from the pinned inputs:\n%+v", list.Sites)
		}
	})

	t.Run("artifact", func(t *testing.T) {
		journal := readFile(t, filepath.Join("testdata", "w1.journal"))
		fixture := pinned(t, "w1.artifact", writeWireArtifact(t, journal))

		art, err := fedtransport.VerifyArtifact(fixture, fedtransport.Expect{
			Key: []byte(wireKey), Worker: "w1", Gen: 1, Epoch: wireEpoch, Countries: wireCountries})
		if err != nil {
			t.Fatal(err)
		}
		wantMeta := wireMeta
		wantMeta.Version = 1
		if !reflect.DeepEqual(art.Meta, wantMeta) {
			t.Errorf("artifact meta %+v, want %+v", art.Meta, wantMeta)
		}
		if !bytes.Equal(art.Journal, journal) || art.Info.Sites != 3 {
			t.Errorf("artifact journal: %d bytes, %d sites; want %d bytes, 3 sites", len(art.Journal), art.Info.Sites, len(journal))
		}
	})
}
