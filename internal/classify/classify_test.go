package classify

import (
	"testing"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/worldgen"
)

// europeanWorld builds a world with enough European and non-European
// countries for the regional/global split to be meaningful.
func europeanWorld(t *testing.T) *worldgen.World {
	t.Helper()
	w, err := worldgen.Build(worldgen.Config{
		Seed:            5,
		SitesPerCountry: 800,
		Countries: []string{
			"TH", "ID", "US", "CZ", "SK", "RU", "BG", "LT", "FR", "DE",
			"IR", "JP", "BR", "NG", "IN", "GB", "PL", "TR", "MX", "AU",
		},
		DomesticPerCountry: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestHostingClassificationStructure(t *testing.T) {
	w := europeanWorld(t)
	res, err := Layer(w.Truth, countries.Hosting, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Cloudflare and Amazon are the XL globals.
	if got := res.ClassOf("Cloudflare"); got != XLGlobal {
		t.Errorf("Cloudflare = %v", got)
	}
	if got := res.ClassOf("Amazon"); got != XLGlobal {
		t.Errorf("Amazon = %v", got)
	}
	// Google and Akamai are large globals.
	for _, p := range []string{"Google", "Akamai"} {
		if got := res.ClassOf(p); got != LGlobal {
			t.Errorf("%s = %v, want L-GP", p, got)
		}
	}
	// Named regional case-study providers classify regional.
	for _, p := range []string{"Beget LLC", "SuperHosting.BG", "WEDOS"} {
		if got := res.ClassOf(p); !got.IsRegional() {
			t.Errorf("%s = %v, want regional", p, got)
		}
	}
	// Cluster count is substantial (the paper found 305 on full data).
	if res.Clusters < 10 {
		t.Errorf("only %d clusters", res.Clusters)
	}
	// Unknown providers are unclassified.
	if got := res.ClassOf("no-such-provider"); got != Unclassifiable {
		t.Errorf("unknown = %v", got)
	}
}

func TestOVHHetznerAreGlobalRegional(t *testing.T) {
	w := europeanWorld(t)
	res, err := Layer(w.Truth, countries.Hosting, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"OVH", "Hetzner"} {
		got := res.ClassOf(p)
		if got != LGlobalRegion && got != LGlobal {
			t.Errorf("%s = %v, want L-GP (R) (or at least L-GP)", p, got)
		}
	}
}

func TestDNSManagedProvidersAreLargeGlobal(t *testing.T) {
	w := europeanWorld(t)
	res, err := Layer(w.Truth, countries.DNS, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"NSONE", "Neustar UltraDNS"} {
		got := res.ClassOf(p)
		if got != LGlobal && got != XLGlobal && got != MGlobal {
			t.Errorf("%s = %v, want a global class", p, got)
		}
	}
}

func TestCAClassification(t *testing.T) {
	w := europeanWorld(t)
	res, err := Layer(w.Truth, countries.CA, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The seven dominant CAs all land in global classes.
	for _, ca := range []string{"Let's Encrypt", "DigiCert", "Sectigo", "Google", "Amazon", "GlobalSign", "GoDaddy"} {
		if got := res.ClassOf(ca); got.IsRegional() {
			t.Errorf("%s = %v, want global", ca, got)
		}
	}
	// Asseco is the flagship regional CA.
	if got := res.ClassOf("Asseco"); !got.IsRegional() {
		t.Errorf("Asseco = %v, want regional", got)
	}
}

func TestCountsCoverAllProviders(t *testing.T) {
	w := europeanWorld(t)
	res, err := Layer(w.Truth, countries.Hosting, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Counts()
	var sum int
	for _, n := range counts {
		sum += n
	}
	if sum != len(res.Features) {
		t.Errorf("class counts sum %d, features %d", sum, len(res.Features))
	}
	// The regional tail dominates numerically, as in the paper (12,309
	// regionals of ~12,400 providers).
	regionals := counts[LRegional] + counts[SRegional] + counts[XSRegional]
	if regionals < len(res.Features)/2 {
		t.Errorf("regional count %d of %d; tail should dominate", regionals, len(res.Features))
	}
}

func TestCountryBreakdownSumsToOne(t *testing.T) {
	w := europeanWorld(t)
	res, err := Layer(w.Truth, countries.Hosting, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for cc := range w.Truth.Lists {
		breakdown := CountryBreakdownIndexed(w.Truth, cc, countries.Hosting, res)
		var sum float64
		for _, share := range breakdown {
			sum += share
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s breakdown sums to %v", cc, sum)
		}
	}
}

func TestThailandVsIranBreakdown(t *testing.T) {
	// Thailand leans on XL globals; Iran on regionals (Figure 7's extremes).
	w := europeanWorld(t)
	res, err := Layer(w.Truth, countries.Hosting, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	th := CountryBreakdownIndexed(w.Truth, "TH", countries.Hosting, res)
	ir := CountryBreakdownIndexed(w.Truth, "IR", countries.Hosting, res)
	if th[XLGlobal] <= ir[XLGlobal] {
		t.Errorf("TH XL share %v should exceed IR %v", th[XLGlobal], ir[XLGlobal])
	}
	regional := func(b map[Class]float64) float64 {
		return b[LRegional] + b[SRegional] + b[XSRegional]
	}
	if regional(ir) <= regional(th) {
		t.Errorf("IR regional share %v should exceed TH %v", regional(ir), regional(th))
	}
}

func TestClassShares(t *testing.T) {
	w := europeanWorld(t)
	res, err := Layer(w.Truth, countries.Hosting, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	shares := ClassShares(w.Truth, countries.Hosting, res, XLGlobal)
	if len(shares) != len(w.Truth.Lists) {
		t.Fatalf("shares for %d countries", len(shares))
	}
	ccs := w.Truth.ScoreSet().Countries()
	th := -1
	for i, s := range shares {
		if s < 0 || s > 1 {
			t.Errorf("%s XL share %v out of range", ccs[i], s)
		}
		if ccs[i] == "TH" {
			th = i
		}
	}
	// XL share must be large in Thailand.
	if th < 0 || shares[th] < 0.45 {
		t.Errorf("TH XL share missing or low (index %d of %v)", th, shares)
	}
}

func TestEmptyCountryBreakdown(t *testing.T) {
	res := &Result{byName: map[string]*ProviderFeatures{}}
	empty := dataset.NewCorpus("2023-05")
	empty.Add(&dataset.CountryList{Country: "US"})
	if got := CountryBreakdownIndexed(empty, "US", countries.Hosting, res); len(got) != 0 {
		t.Errorf("empty breakdown = %v", got)
	}
}

func TestIsRegional(t *testing.T) {
	if XLGlobal.IsRegional() || LGlobal.IsRegional() || MGlobal.IsRegional() {
		t.Error("global classes flagged regional")
	}
	if !LRegional.IsRegional() || !XSRegional.IsRegional() {
		t.Error("regional classes not flagged")
	}
}
