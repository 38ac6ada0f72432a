package worldgen

import (
	"math"
	"net/netip"
	"testing"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/stats"
)

// smallConfig keeps tests fast while exercising all machinery.
func smallConfig(ccs ...string) Config {
	if len(ccs) == 0 {
		ccs = []string{"TH", "IR", "US", "CZ", "SK", "TM", "AF", "JP", "BG", "TT"}
	}
	return Config{
		Seed:               42,
		SitesPerCountry:    1500,
		Countries:          ccs,
		DomesticPerCountry: 40,
	}
}

func buildSmall(t *testing.T, ccs ...string) *World {
	t.Helper()
	w, err := Build(smallConfig(ccs...))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildValidCorpus(t *testing.T) {
	w := buildSmall(t)
	if err := w.Truth.Validate(); err != nil {
		t.Fatalf("truth corpus invalid: %v", err)
	}
	if got := len(w.Truth.Countries()); got != 10 {
		t.Errorf("countries = %d", got)
	}
	if got := w.Truth.TotalSites(); got != 15000 {
		t.Errorf("total sites = %d", got)
	}
}

func TestRealizedScoresMatchPaper(t *testing.T) {
	w := buildSmall(t)
	for _, layer := range countries.Layers {
		scores := w.Truth.ScoreSet().Scores(layer)
		for cc, got := range scores {
			c, _ := countries.ByCode(cc)
			want := c.PaperScore[layer]
			// C=1500 quantization plus profile-shape limits.
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%s %v: realized %v, paper %v", cc, layer, got, want)
			}
		}
	}
}

func TestCloudflareTopExceptJapan(t *testing.T) {
	w := buildSmall(t)
	for cc, list := range w.Truth.Lists {
		top := list.Distribution(countries.Hosting).Top(1)[0].Provider
		if cc == "JP" {
			if top != "Amazon" {
				t.Errorf("JP top provider = %s, want Amazon", top)
			}
		} else if top != "Cloudflare" {
			t.Errorf("%s top provider = %s, want Cloudflare", cc, top)
		}
	}
}

func TestStructuralAnecdotes(t *testing.T) {
	w := buildSmall(t)

	// Thailand: top provider ≈60% of sites. Iran: ≈14%, regional-heavy.
	th := w.Truth.Get("TH").Distribution(countries.Hosting)
	if share := th.Top(1)[0].Share; share < 0.50 || share > 0.68 {
		t.Errorf("TH top share = %v, paper reports 0.60", share)
	}
	ir := w.Truth.Get("IR").Distribution(countries.Hosting)
	if share := ir.Top(1)[0].Share; share < 0.08 || share > 0.22 {
		t.Errorf("IR top share = %v, paper reports 0.14", share)
	}

	// Insularity: US highest, Iran high, Thailand low.
	ins := w.Truth.ScoreSet().Insularities(countries.Hosting)
	if ins["US"] < 0.80 {
		t.Errorf("US insularity = %v, paper reports 0.921", ins["US"])
	}
	if ins["IR"] < 0.45 {
		t.Errorf("IR insularity = %v, paper reports 0.648", ins["IR"])
	}
	if ins["TH"] > 0.30 {
		t.Errorf("TH insularity = %v, should be low", ins["TH"])
	}

	// Turkmenistan leans on Russian providers (33%), Slovakia on Czech
	// providers (26%), Afghanistan on Iranian providers (20%).
	tm := w.Truth.Get("TM").CrossDependence(countries.Hosting)
	if share := tm.Share("RU"); share < 0.20 || share > 0.45 {
		t.Errorf("TM→RU share = %v, paper reports 0.33", share)
	}
	sk := w.Truth.Get("SK").CrossDependence(countries.Hosting)
	if share := sk.Share("CZ"); share < 0.15 || share > 0.40 {
		t.Errorf("SK→CZ share = %v, paper reports 0.26", share)
	}
	af := w.Truth.Get("AF").CrossDependence(countries.Hosting)
	if share := af.Share("IR"); share < 0.12 || share > 0.30 {
		t.Errorf("AF→IR share = %v, paper reports 0.20", share)
	}
}

func TestAfghanPersianCaseStudy(t *testing.T) {
	w := buildSmall(t)
	list := w.Truth.Get("AF")
	var fa, faIranian int
	for i := range list.Sites {
		s := &list.Sites[i]
		if s.Language == "fa" {
			fa++
			if s.HostProviderCountry == "IR" {
				faIranian++
			}
		}
	}
	faShare := float64(fa) / float64(len(list.Sites))
	if math.Abs(faShare-afghanPersianShare) > 0.03 {
		t.Errorf("AF Persian share = %v, paper reports 0.314", faShare)
	}
	iranShare := float64(faIranian) / float64(fa)
	if math.Abs(iranShare-afghanPersianIranHosting) > 0.08 {
		t.Errorf("AF Persian-in-Iran = %v, paper reports 0.608", iranShare)
	}
}

func TestCASevenGlobalsDominate(t *testing.T) {
	w := buildSmall(t)
	globals := map[string]bool{
		"Let's Encrypt": true, "DigiCert": true, "Sectigo": true, "Google": true,
		"Amazon": true, "GlobalSign": true, "GoDaddy": true,
	}
	for cc, list := range w.Truth.Lists {
		dist := list.Distribution(countries.CA)
		var globalShare float64
		for _, ps := range dist.Ranked() {
			if globals[ps.Provider] {
				globalShare += ps.Share
			}
		}
		// Paper: 80–99.7% across countries.
		if globalShare < 0.70 {
			t.Errorf("%s: 7 global CAs cover %v, paper reports ≥0.80", cc, globalShare)
		}
	}
}

func TestDNSBundlingCorrelation(t *testing.T) {
	// Most sites should keep their hosting provider for DNS.
	w := buildSmall(t)
	same, total := 0, 0
	for _, list := range w.Truth.Lists {
		for i := range list.Sites {
			total++
			if list.Sites[i].HostProvider == list.Sites[i].DNSProvider {
				same++
			}
		}
	}
	frac := float64(same) / float64(total)
	if frac < 0.5 {
		t.Errorf("hosting=DNS for %v of sites; bundling too weak", frac)
	}
}

func TestInfrastructureConsistency(t *testing.T) {
	w := buildSmall(t)
	// Every truth record's host IP must resolve through pfx2as to the
	// recorded provider and through geoip to the recorded continent.
	list := w.Truth.Get("US")
	for i := range list.Sites {
		s := &list.Sites[i]
		addr := netip.MustParseAddr(s.HostIP)
		org, ok := w.ASTable.LookupOrg(addr)
		if !ok || org.Name != s.HostProvider {
			t.Fatalf("%s: pfx2as says %q/%v, truth says %q", s.Domain, org.Name, ok, s.HostProvider)
		}
		loc, ok := w.GeoDB.Lookup(addr)
		if !ok || loc.Continent != s.HostIPContinent {
			t.Fatalf("%s: geoip says %q/%v, truth says %q", s.Domain, loc.Continent, ok, s.HostIPContinent)
		}
		if w.Anycast.Contains(addr) != s.HostAnycast {
			t.Fatalf("%s: anycast flag mismatch", s.Domain)
		}
		nsAddr := netip.MustParseAddr(s.NSIP)
		nsOrg, ok := w.ASTable.LookupOrg(nsAddr)
		if !ok || nsOrg.Name != s.DNSProvider {
			t.Fatalf("%s: NS pfx2as says %q/%v, truth says %q", s.Domain, nsOrg.Name, ok, s.DNSProvider)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := buildSmall(t, "TH", "US")
	b := buildSmall(t, "TH", "US")
	la, lb := a.Truth.Get("TH"), b.Truth.Get("TH")
	for i := range la.Sites {
		if la.Sites[i] != lb.Sites[i] {
			t.Fatalf("site %d differs between identical-seed builds", i)
		}
	}
}

func TestSeedChangesWorld(t *testing.T) {
	cfg := smallConfig("US")
	a, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	b, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	la, lb := a.Truth.Get("US"), b.Truth.Get("US")
	for i := range la.Sites {
		if la.Sites[i].Domain == lb.Sites[i].Domain {
			same++
		}
	}
	if same == len(la.Sites) {
		t.Error("different seeds produced identical domain lists")
	}
}

func TestNextEpochChurnAndDrift(t *testing.T) {
	w := buildSmall(t, "US", "BR", "RU", "TM")
	next, err := BuildNextEpoch(w, "2025-05")
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Truth.Validate(); err != nil {
		t.Fatal(err)
	}

	// Toplist churn: Jaccard near 0.37.
	var jaccards []float64
	for _, cc := range []string{"US", "BR", "RU", "TM"} {
		j := stats.Jaccard(w.Truth.Get(cc).Domains(), next.Truth.Get(cc).Domains())
		jaccards = append(jaccards, j)
	}
	if m := stats.Mean(jaccards); math.Abs(m-0.37) > 0.08 {
		t.Errorf("mean Jaccard = %v, paper reports ≈0.37", m)
	}

	// Brazil rises to ≈0.2354, Russia falls to ≈0.0499.
	scores := next.Truth.ScoreSet().Scores(countries.Hosting)
	if math.Abs(scores["BR"]-0.2354) > 0.01 {
		t.Errorf("BR epoch-2 score = %v, want ≈0.2354", scores["BR"])
	}
	if math.Abs(scores["RU"]-0.0499) > 0.01 {
		t.Errorf("RU epoch-2 score = %v, want ≈0.0499", scores["RU"])
	}

	// Cloudflare grows in Turkmenistan (+11.3 pts in the paper).
	cfOld := w.Truth.Get("TM").Distribution(countries.Hosting).Share("Cloudflare")
	cfNew := next.Truth.Get("TM").Distribution(countries.Hosting).Share("Cloudflare")
	if cfNew <= cfOld {
		t.Errorf("TM Cloudflare share did not grow: %v → %v", cfOld, cfNew)
	}
}

func TestProvidersUniverse(t *testing.T) {
	w := buildSmall(t)
	// Named case-study regionals must exist with the right H.Q.
	cases := map[string]string{
		"Beget LLC":            "RU",
		"SuperHosting.BG":      "BG",
		"WEDOS":                "CZ",
		"Cloudflare":           "US",
		"OVH":                  "FR",
		"Hetzner":              "DE",
		"NSONE":                "US",
		"Asiatech":             "IR",
		"UAB Interneto vizija": "LT",
	}
	for name, cc := range cases {
		p, ok := w.ProviderByName[name]
		if name == "UAB Interneto vizija" || name == "Beget LLC" || name == "SuperHosting.BG" {
			// These countries may be absent from the small world; their
			// named providers exist only if the country was instantiated.
			if !ok {
				continue
			}
		}
		if !ok {
			t.Errorf("provider %s missing", name)
			continue
		}
		if p.Country != cc {
			t.Errorf("%s country = %s, want %s", name, p.Country, cc)
		}
	}
	// DNS-only providers never appear as hosts.
	for _, list := range w.Truth.Lists {
		for i := range list.Sites {
			if p := w.ProviderByName[list.Sites[i].HostProvider]; p.DNSOnly {
				t.Fatalf("DNS-only provider %s hosting %s", p.Name, list.Sites[i].Domain)
			}
		}
	}
}

func TestUnknownCountryRejected(t *testing.T) {
	cfg := smallConfig("XX")
	if _, err := Build(cfg); err == nil {
		t.Error("unknown country accepted")
	}
}

func TestTLDAssignmentsMatchDomains(t *testing.T) {
	w := buildSmall(t, "US", "KG")
	for _, list := range w.Truth.Lists {
		for i := range list.Sites {
			s := &list.Sites[i]
			want := s.TLD
			gotDomainTLD := s.Domain[len(s.Domain)-len(want):]
			if gotDomainTLD != want {
				t.Fatalf("%s: domain %q does not end in TLD %q", list.Country, s.Domain, want)
			}
		}
	}
}
