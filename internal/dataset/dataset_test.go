package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/webdep/webdep/internal/countries"
)

func sampleList() *CountryList {
	return &CountryList{
		Country: "TH",
		Epoch:   "2023-05",
		Sites: []Website{
			{
				Domain: "a.co.th", Country: "TH", Rank: 1,
				HostProvider: "Cloudflare", HostProviderCountry: "US",
				HostIP: "10.0.0.1", HostIPContinent: "AS", HostAnycast: true,
				DNSProvider: "Cloudflare", DNSProviderCountry: "US",
				NSIP: "10.0.0.2", NSIPContinent: "NA", NSAnycast: true,
				CAOwner: "Let's Encrypt", CAOwnerCountry: "US",
				TLD: "th", Language: "th",
			},
			{
				Domain: "b.com", Country: "TH", Rank: 2,
				HostProvider: "Cloudflare", HostProviderCountry: "US",
				DNSProvider: "NSONE", DNSProviderCountry: "US",
				CAOwner: "DigiCert", CAOwnerCountry: "US",
				TLD: "com",
			},
			{
				Domain: "c.th", Country: "TH", Rank: 3,
				HostProvider: "ThaiHost", HostProviderCountry: "TH",
				DNSProvider: "ThaiHost", DNSProviderCountry: "TH",
				CAOwner: "Let's Encrypt", CAOwnerCountry: "US",
				TLD: "th",
			},
			{
				// Failed measurement: no providers resolved.
				Domain: "dead.th", Country: "TH", Rank: 4, TLD: "th",
			},
		},
	}
}

func TestProviderOf(t *testing.T) {
	w := &sampleList().Sites[0]
	if p, c := w.ProviderOf(countries.Hosting); p != "Cloudflare" || c != "US" {
		t.Errorf("hosting = %q %q", p, c)
	}
	if p, c := w.ProviderOf(countries.DNS); p != "Cloudflare" || c != "US" {
		t.Errorf("dns = %q %q", p, c)
	}
	if p, c := w.ProviderOf(countries.CA); p != "Let's Encrypt" || c != "US" {
		t.Errorf("ca = %q %q", p, c)
	}
	if p, _ := w.ProviderOf(countries.TLD); p != "th" {
		t.Errorf("tld = %q", p)
	}
	if p, c := w.ProviderOf(countries.Layer(99)); p != "" || c != "" {
		t.Error("unknown layer should yield empties")
	}
}

func TestDistributionSkipsFailedMeasurements(t *testing.T) {
	l := sampleList()
	d := l.Distribution(countries.Hosting)
	if d.Total() != 3 { // dead.th skipped
		t.Errorf("total = %v, want 3", d.Total())
	}
	if d.Count("Cloudflare") != 2 || d.Count("ThaiHost") != 1 {
		t.Errorf("counts wrong: cf=%v th=%v", d.Count("Cloudflare"), d.Count("ThaiHost"))
	}
	// TLD layer counts every row with a TLD, including the dead one.
	if got := l.Distribution(countries.TLD).Total(); got != 4 {
		t.Errorf("tld total = %v, want 4", got)
	}
}

func TestInsularity(t *testing.T) {
	l := sampleList()
	ins := l.Insularity(countries.Hosting)
	if got := ins.Fraction(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("hosting insularity = %v, want 1/3", got)
	}
	if got := l.Insularity(countries.CA).Fraction(); got != 0 {
		t.Errorf("ca insularity = %v, want 0", got)
	}
	// TLD insularity is defined elsewhere; this accessor returns zero.
	if got := l.Insularity(countries.TLD).Fraction(); got != 0 {
		t.Errorf("tld insularity via dataset = %v, want 0", got)
	}
}

func TestCrossDependence(t *testing.T) {
	cd := sampleList().CrossDependence(countries.Hosting)
	if got := cd.Share("US"); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("US share = %v", got)
	}
	if got := cd.Share("TH"); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("TH share = %v", got)
	}
}

func TestCorpusBasics(t *testing.T) {
	c := NewCorpus("2023-05")
	c.Add(sampleList())
	other := &CountryList{Country: "US", Epoch: "2023-05", Sites: []Website{
		{Domain: "x.com", Country: "US", Rank: 1, HostProvider: "Amazon", HostProviderCountry: "US", TLD: "com"},
	}}
	c.Add(other)
	if got := c.Countries(); len(got) != 2 || got[0] != "TH" || got[1] != "US" {
		t.Errorf("Countries = %v", got)
	}
	if c.TotalSites() != 5 {
		t.Errorf("TotalSites = %d", c.TotalSites())
	}
	if c.Get("TH") == nil || c.Get("XX") != nil {
		t.Error("Get misbehaves")
	}
	scores := c.ScoreSet().Scores(countries.Hosting)
	if len(scores) != 2 {
		t.Errorf("Scores = %v", scores)
	}
	// US: monopoly of 1 site → 𝒮 = 0.
	if scores["US"] != 0 {
		t.Errorf("US score = %v", scores["US"])
	}
	ins := c.ScoreSet().Insularities(countries.Hosting)
	if ins["US"] != 1 {
		t.Errorf("US insularity = %v", ins["US"])
	}
}

func TestGlobalDistribution(t *testing.T) {
	c := NewCorpus("2023-05")
	c.Add(sampleList())
	g := c.ScoreSet().GlobalDistribution(countries.Hosting)
	if g.Total() != 3 || g.Count("Cloudflare") != 2 {
		t.Errorf("global: total %v cf %v", g.Total(), g.Count("Cloudflare"))
	}
}

func TestUsageMatrixAndCurves(t *testing.T) {
	c := NewCorpus("2023-05")
	c.Add(sampleList())
	us := &CountryList{Country: "US", Epoch: "2023-05", Sites: []Website{
		{Domain: "x.com", Country: "US", Rank: 1, HostProvider: "Cloudflare", HostProviderCountry: "US", TLD: "com"},
		{Domain: "y.com", Country: "US", Rank: 2, HostProvider: "Amazon", HostProviderCountry: "US", TLD: "com"},
	}}
	c.Add(us)

	matrix := c.ScoreSet().UsageMatrix(countries.Hosting)
	if got := matrix["Cloudflare"]["TH"]; math.Abs(got-100*2.0/3) > 1e-9 {
		t.Errorf("CF@TH = %v", got)
	}
	if got := matrix["Cloudflare"]["US"]; got != 50 {
		t.Errorf("CF@US = %v", got)
	}
	if _, ok := matrix["Amazon"]["TH"]; ok {
		t.Error("Amazon should have no TH entry")
	}

	curves := c.ScoreSet().UsageCurves(countries.Hosting)
	cf := curves["Cloudflare"]
	if cf.Countries() != 2 {
		t.Fatalf("curve countries = %d", cf.Countries())
	}
	if cf.Peak() < 66 || cf.Peak() > 67 {
		t.Errorf("CF peak = %v", cf.Peak())
	}
	// Amazon appears in 1 of 2 countries → second value zero → endemic.
	am := curves["Amazon"]
	if am.Values()[1] != 0 {
		t.Errorf("Amazon curve = %v", am.Values())
	}
	if am.EndemicityRatio() != 0.5 {
		t.Errorf("Amazon E_R = %v, want 0.5", am.EndemicityRatio())
	}
}

func TestValidate(t *testing.T) {
	c := NewCorpus("2023-05")
	c.Add(sampleList())
	if err := c.Validate(); err != nil {
		t.Fatalf("valid corpus rejected: %v", err)
	}

	bad := NewCorpus("2023-05")
	bad.Add(&CountryList{Country: "XX", Sites: []Website{{Domain: "a", Country: "XX", Rank: 1}}})
	if err := bad.Validate(); err == nil {
		t.Error("unknown country accepted")
	}

	bad2 := NewCorpus("2023-05")
	bad2.Add(&CountryList{Country: "US", Sites: []Website{{Domain: "", Country: "US", Rank: 1}}})
	if err := bad2.Validate(); err == nil {
		t.Error("empty domain accepted")
	}

	bad3 := NewCorpus("2023-05")
	bad3.Add(&CountryList{Country: "US", Sites: []Website{{Domain: "a.com", Country: "US", Rank: 7}}})
	if err := bad3.Validate(); err == nil {
		t.Error("out-of-range rank accepted")
	}

	bad4 := NewCorpus("2023-05")
	bad4.Lists["US"] = &CountryList{Country: "FR"}
	if err := bad4.Validate(); err == nil {
		t.Error("mismatched key accepted")
	}
}

// TestValidateNamesFirstCountryInOrder: with two bad countries, the
// problem Validate reports is the first in sorted country order on every
// call, never whichever country a map iteration happens to visit first.
func TestValidateNamesFirstCountryInOrder(t *testing.T) {
	c := NewCorpus("2023-05")
	c.Add(&CountryList{Country: "US", Sites: []Website{{Domain: "", Country: "US", Rank: 1}}})
	c.Add(&CountryList{Country: "DE", Sites: []Website{{Domain: "a.de", Country: "DE", Rank: 0}}})
	for i := 0; i < 50; i++ {
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), "DE row 0 has rank 0") {
			t.Fatalf("call %d: Validate = %v, want DE's rank named first", i, err)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	list := sampleList()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, list); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "2023-05")
	if err != nil {
		t.Fatal(err)
	}
	if got.Country != "TH" || got.Epoch != "2023-05" || len(got.Sites) != 4 {
		t.Fatalf("round trip lost shape: %+v", got)
	}
	for i := range list.Sites {
		if list.Sites[i] != got.Sites[i] {
			t.Errorf("row %d mismatch:\n  want %+v\n  got  %+v", i, list.Sites[i], got.Sites[i])
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",             // no header
		"wrong,header", // bad header
		strings.Join(csvHeader, ",") + "\nonly,three,fields",
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), "x"); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
	// Bad rank field.
	row := "a.com,US,notanum,p,US,ip,NA,false,p,US,ip,NA,false,ca,US,com,en"
	in := strings.Join(csvHeader, ",") + "\n" + row
	if _, err := ReadCSV(strings.NewReader(in), "x"); err == nil {
		t.Error("bad rank accepted")
	}
	// Mixed countries.
	rowUS := "a.com,US,1,p,US,ip,NA,false,p,US,ip,NA,false,ca,US,com,en"
	rowFR := "b.fr,FR,2,p,US,ip,NA,false,p,US,ip,NA,false,ca,US,fr,fr"
	in = strings.Join(csvHeader, ",") + "\n" + rowUS + "\n" + rowFR
	if _, err := ReadCSV(strings.NewReader(in), "x"); err == nil {
		t.Error("mixed countries accepted")
	}
}

func TestDomains(t *testing.T) {
	got := sampleList().Domains()
	want := []string{"a.co.th", "b.com", "c.th", "dead.th"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Domains = %v", got)
		}
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	// Randomized record round-trip: any generated list must survive
	// serialization intact, including commas/quotes in free-text fields.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		providers := []string{"Cloudflare", "Beget, LLC", `Quote"Host`, "日本ホスト", ""}
		list := &CountryList{Country: "US", Epoch: "p"}
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			list.Sites = append(list.Sites, Website{
				Domain:              fmt.Sprintf("site-%d.example", i),
				Country:             "US",
				Rank:                i + 1,
				HostProvider:        providers[rng.Intn(len(providers))],
				HostProviderCountry: "US",
				HostIP:              fmt.Sprintf("10.0.%d.%d", rng.Intn(256), rng.Intn(256)),
				HostAnycast:         rng.Intn(2) == 0,
				DNSProvider:         providers[rng.Intn(len(providers))],
				NSAnycast:           rng.Intn(2) == 0,
				CAOwner:             "Let's Encrypt",
				TLD:                 "example",
				Language:            "en",
			})
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, list); err != nil {
			return false
		}
		got, err := ReadCSV(&buf, "p")
		if err != nil {
			return false
		}
		if len(got.Sites) != len(list.Sites) {
			return false
		}
		for i := range list.Sites {
			if list.Sites[i] != got.Sites[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDistributionScoreInvariantToSiteOrderProperty(t *testing.T) {
	// Shuffling a list's sites must not change any layer score.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		list := &CountryList{Country: "US", Epoch: "p"}
		providers := []string{"a", "b", "c", "d"}
		n := 2 + rng.Intn(30)
		for i := 0; i < n; i++ {
			list.Sites = append(list.Sites, Website{
				Domain: fmt.Sprintf("s%d.com", i), Country: "US", Rank: i + 1,
				HostProvider: providers[rng.Intn(len(providers))], TLD: "com",
			})
		}
		before := list.Distribution(countries.Hosting).Score()
		rng.Shuffle(len(list.Sites), func(i, j int) {
			list.Sites[i], list.Sites[j] = list.Sites[j], list.Sites[i]
		})
		after := list.Distribution(countries.Hosting).Score()
		return math.Abs(before-after) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
