package pipeline

import (
	"math"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/worldgen"
)

func buildWorld(t *testing.T, ccs ...string) *worldgen.World {
	t.Helper()
	w, err := worldgen.Build(worldgen.Config{
		Seed:               7,
		SitesPerCountry:    1200,
		Countries:          ccs,
		DomesticPerCountry: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMeasureWorldRecoversTruth(t *testing.T) {
	w := buildWorld(t, "TH", "IR", "US")
	measured, err := FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	// With zero geolocation error the measured corpus must equal the
	// ground truth record-for-record.
	for _, cc := range []string{"TH", "IR", "US"} {
		truth := w.Truth.Get(cc)
		got := measured.Get(cc)
		if len(got.Sites) != len(truth.Sites) {
			t.Fatalf("%s: %d sites measured, %d in truth", cc, len(got.Sites), len(truth.Sites))
		}
		for i := range truth.Sites {
			if truth.Sites[i] != got.Sites[i] {
				t.Fatalf("%s site %d:\n truth    %+v\n measured %+v", cc, i, truth.Sites[i], got.Sites[i])
			}
		}
	}
}

func TestMeasuredScoresMatchPaper(t *testing.T) {
	w := buildWorld(t, "TH", "IR", "US", "CZ")
	measured, err := FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range countries.Layers {
		for cc, got := range measured.ScoreSet().Scores(layer) {
			c, _ := countries.ByCode(cc)
			if want := c.PaperScore[layer]; math.Abs(got-want) > 0.012 {
				t.Errorf("%s %v: measured %v, paper %v", cc, layer, got, want)
			}
		}
	}
}

func TestGeoErrorAffectsContinentsNotProviders(t *testing.T) {
	w, err := worldgen.Build(worldgen.Config{
		Seed:               7,
		SitesPerCountry:    1200,
		Countries:          []string{"US"},
		DomesticPerCountry: 30,
		GeoErrorRate:       0.106,
	})
	if err != nil {
		t.Fatal(err)
	}
	measured, err := FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	truth := w.Truth.Get("US")
	got := measured.Get("US")
	providerMismatch, continentMismatch := 0, 0
	for i := range truth.Sites {
		if truth.Sites[i].HostProvider != got.Sites[i].HostProvider {
			providerMismatch++
		}
		if truth.Sites[i].HostIPContinent != got.Sites[i].HostIPContinent {
			continentMismatch++
		}
	}
	// Provider attribution flows through pfx2as, which has no error model.
	if providerMismatch != 0 {
		t.Errorf("%d provider mismatches under geo error", providerMismatch)
	}
	// Continent labels should show roughly the configured error rate.
	// (Truth is generated without the error model; mislabels only disagree
	// when the decoy continent differs from the true one.)
	rate := float64(continentMismatch) / float64(len(truth.Sites))
	if rate < 0.02 || rate > 0.15 {
		t.Errorf("continent mismatch rate %v, expected near the 10.6%% error model", rate)
	}
}

func TestMeasureWorldMissingCountry(t *testing.T) {
	w := buildWorld(t, "US")
	p := FromWorld(w)
	// Corrupt the world: drop the raw sites.
	delete(w.Raw, "US")
	if _, err := p.MeasureWorld(w); err == nil {
		t.Error("missing raw sites accepted")
	}
}

func TestEnrichHandlesUnattributableSites(t *testing.T) {
	w := buildWorld(t, "US")
	p := FromWorld(w)
	raw := []worldgen.RawSite{
		{Domain: "ghost.example.com", Rank: 1}, // zero IPs, no issuer
	}
	list := p.EnrichCountry("US", "2023-05", raw)
	s := list.Sites[0]
	if s.HostProvider != "" || s.DNSProvider != "" || s.CAOwner != "" {
		t.Errorf("unattributable site gained providers: %+v", s)
	}
	if s.TLD != "com" {
		t.Errorf("TLD = %q", s.TLD)
	}
}

// TestEnrichIntoReusedListMatchesFresh enriches one country into a list and
// then a shorter second country into the same list. The result must equal
// a fresh EnrichCountry of the second country: its rows with no host IP,
// no nameserver IP or no issuer sit where the first country's rows had
// all three, so a field left over from the first would show.
func TestEnrichIntoReusedListMatchesFresh(t *testing.T) {
	w := buildWorld(t, "TH", "US")
	p := FromWorld(w)
	epoch := w.Config.Epoch
	list := &dataset.CountryList{}
	p.enrichInto(list, "TH", epoch, w.Raw["TH"])
	for i := 0; i < 4; i++ {
		if s := list.Sites[i]; s.HostIP == "" || s.HostProvider == "" || s.NSIP == "" || s.DNSProvider == "" || s.CAOwner == "" {
			t.Fatalf("TH row %d is not fully attributed, so it cannot show a stale field: %+v", i, s)
		}
	}
	first := &list.Sites[0]

	b := slices.Clone(w.Raw["US"][:50])
	b[0].HostIP = netip.Addr{}
	b[1].NSIP = netip.Addr{}
	b[2].IssuerOrg = ""
	b[3].HostIP, b[3].NSIP, b[3].IssuerOrg = netip.Addr{}, netip.Addr{}, ""
	p.enrichInto(list, "US", epoch, b)
	if &list.Sites[0] != first {
		t.Fatal("the second enrichment did not reuse the list's rows")
	}
	if want := p.EnrichCountry("US", epoch, b); !reflect.DeepEqual(list, want) {
		for i := range want.Sites {
			if list.Sites[i] != want.Sites[i] {
				t.Errorf("row %d: reused %+v, fresh %+v", i, list.Sites[i], want.Sites[i])
			}
		}
		t.Fatalf("reused list (%s, %d rows) differs from a fresh one (%s, %d rows)",
			list.Country, len(list.Sites), want.Country, len(want.Sites))
	}
}
