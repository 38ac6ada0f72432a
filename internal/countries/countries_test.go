package countries

import (
	"math"
	"testing"

	"github.com/webdep/webdep/internal/stats"
)

func TestAllHas150Countries(t *testing.T) {
	if got := len(All()); got != 150 {
		t.Fatalf("len(All()) = %d, want 150", got)
	}
}

func TestAllSortedAndUnique(t *testing.T) {
	prev := ""
	for _, c := range All() {
		if c.Code <= prev {
			t.Fatalf("countries not strictly sorted at %q (prev %q)", c.Code, prev)
		}
		prev = c.Code
		if len(c.Code) != 2 {
			t.Errorf("bad code %q", c.Code)
		}
		if c.Name == "" || c.Region == "" {
			t.Errorf("%s: empty name or region", c.Code)
		}
		switch c.Continent {
		case "AF", "AS", "EU", "NA", "OC", "SA":
		default:
			t.Errorf("%s: unknown continent %q", c.Code, c.Continent)
		}
	}
}

func TestByCode(t *testing.T) {
	c, ok := ByCode("TH")
	if !ok {
		t.Fatal("TH missing")
	}
	if c.Name != "Thailand" || c.Region != "South-eastern Asia" || c.Continent != "AS" {
		t.Errorf("TH = %+v", c)
	}
	// Case-insensitive lookup.
	if _, ok := ByCode("th"); !ok {
		t.Error("lowercase lookup failed")
	}
	if _, ok := ByCode("XX"); ok {
		t.Error("XX should not exist")
	}
}

func TestEveryCountryHasScoresAndRanks(t *testing.T) {
	for _, c := range All() {
		for _, l := range Layers {
			if c.PaperScore[l] <= 0 || c.PaperScore[l] >= 1 {
				t.Errorf("%s %v: score %v out of range", c.Code, l, c.PaperScore[l])
			}
			if c.PaperRank[l] < 1 || c.PaperRank[l] > 150 {
				t.Errorf("%s %v: rank %d out of range", c.Code, l, c.PaperRank[l])
			}
		}
	}
}

func TestRanksArePermutations(t *testing.T) {
	for _, l := range Layers {
		seen := make(map[int]string, 150)
		for _, c := range All() {
			r := c.PaperRank[l]
			if other, dup := seen[r]; dup {
				t.Fatalf("layer %v: rank %d shared by %s and %s", l, r, other, c.Code)
			}
			seen[r] = c.Code
		}
	}
}

func TestRanksMatchScoreOrder(t *testing.T) {
	// Rank 1 must be the most centralized; scores must be nonincreasing in
	// rank for every layer.
	for _, l := range Layers {
		byRank := make([]float64, 151)
		for _, c := range All() {
			byRank[c.PaperRank[l]] = c.PaperScore[l]
		}
		for r := 2; r <= 150; r++ {
			if byRank[r] > byRank[r-1]+1e-9 {
				t.Errorf("layer %v: score increases from rank %d (%v) to %d (%v)",
					l, r-1, byRank[r-1], r, byRank[r])
			}
		}
	}
}

func TestPaperHeadlineFacts(t *testing.T) {
	// Spot-check values quoted in the paper's body text.
	cases := []struct {
		code  string
		layer Layer
		want  float64
	}{
		{"TH", Hosting, 0.3548}, // most centralized hosting
		{"IR", Hosting, 0.0411}, // least centralized hosting
		{"US", Hosting, 0.1358}, // median country
		{"ID", DNS, 0.3757},     // most centralized DNS
		{"CZ", DNS, 0.0391},     // least centralized DNS
		{"SK", CA, 0.3304},      // most centralized CA
		{"CZ", CA, 0.3268},
		{"TW", CA, 0.1308}, // least centralized CA
		{"JP", CA, 0.1499},
		{"US", TLD, 0.5853}, // most centralized TLD
		{"KG", TLD, 0.1468}, // least centralized TLD
		{"BG", Hosting, 0.1188},
		{"LT", Hosting, 0.1286},
		{"RU", Hosting, 0.0554},
		{"CZ", Hosting, 0.0561},
	}
	for _, cse := range cases {
		c, ok := ByCode(cse.code)
		if !ok {
			t.Fatalf("%s missing", cse.code)
		}
		if got := c.PaperScore[cse.layer]; math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("%s %v = %v, want %v", cse.code, cse.layer, got, cse.want)
		}
	}
}

func TestPaperAggregateFacts(t *testing.T) {
	// §5.1: global hosting mean 𝒮 ≈ 0.1429, var ≈ 0.003.
	var hosting []float64
	for _, c := range All() {
		hosting = append(hosting, c.PaperScore[Hosting])
	}
	if m := stats.Mean(hosting); math.Abs(m-0.1429) > 0.002 {
		t.Errorf("hosting mean = %v, paper reports ≈0.1429", m)
	}
	if v := stats.Variance(hosting); math.Abs(v-0.003) > 0.001 {
		t.Errorf("hosting variance = %v, paper reports ≈0.003", v)
	}

	// §6.2: DNS mean ≈ 0.1379.
	var dns []float64
	for _, c := range All() {
		dns = append(dns, c.PaperScore[DNS])
	}
	if m := stats.Mean(dns); math.Abs(m-0.1379) > 0.002 {
		t.Errorf("dns mean = %v, paper reports ≈0.1379", m)
	}

	// §7.1: CA mean ≈ 0.2007, var ≈ 0.0007.
	var ca []float64
	for _, c := range All() {
		ca = append(ca, c.PaperScore[CA])
	}
	if m := stats.Mean(ca); math.Abs(m-0.2007) > 0.002 {
		t.Errorf("ca mean = %v, paper reports ≈0.2007", m)
	}
	if v := stats.Variance(ca); math.Abs(v-0.0007) > 0.0005 {
		t.Errorf("ca variance = %v, paper reports ≈0.0007", v)
	}

	// §B: TLD mean ≈ 0.3262.
	var tld []float64
	for _, c := range All() {
		tld = append(tld, c.PaperScore[TLD])
	}
	if m := stats.Mean(tld); math.Abs(m-0.3262) > 0.002 {
		t.Errorf("tld mean = %v, paper reports ≈0.3262", m)
	}
}

func TestSubregionFacts(t *testing.T) {
	// §5.1: Southeast Asia most centralized (𝒮̄ ≈ 0.2403); Central Asia
	// least (≈ 0.0788); Europe ≈ 0.0994; Eastern Europe ≈ 0.0803.
	regionMean := func(region string) float64 {
		var xs []float64
		for _, c := range All() {
			if c.Region == region {
				xs = append(xs, c.PaperScore[Hosting])
			}
		}
		return stats.Mean(xs)
	}
	if m := regionMean("South-eastern Asia"); math.Abs(m-0.2403) > 0.005 {
		t.Errorf("SE Asia hosting mean = %v, paper ≈0.2403", m)
	}
	if m := regionMean("Central Asia"); math.Abs(m-0.0788) > 0.005 {
		t.Errorf("Central Asia hosting mean = %v, paper ≈0.0788", m)
	}
	if m := regionMean("Eastern Europe"); math.Abs(m-0.0803) > 0.01 {
		t.Errorf("Eastern Europe hosting mean = %v, paper ≈0.0803", m)
	}
	var eu []float64
	for _, c := range All() {
		if c.Continent == "EU" {
			eu = append(eu, c.PaperScore[Hosting])
		}
	}
	if m := stats.Mean(eu); math.Abs(m-0.0994) > 0.005 {
		t.Errorf("Europe hosting mean = %v, paper ≈0.0994", m)
	}
}

func TestRegionsAndContinents(t *testing.T) {
	regions := map[string]bool{}
	oceania := 0
	for _, c := range All() {
		regions[c.Region] = true
		if c.Continent == "OC" {
			oceania++
		}
	}
	if len(regions) < 15 {
		t.Fatalf("only %d regions: %v", len(regions), regions)
	}
	for _, want := range []string{"TH", "ID", "MM", "LA", "SG", "PH", "MY", "KH", "VN", "BN"} {
		if c, _ := ByCode(want); c.Region != "South-eastern Asia" {
			t.Errorf("South-eastern Asia missing %s (region %q)", want, c.Region)
		}
	}
	if oceania != 3 { // AU, NZ, PG
		t.Errorf("Oceania has %d countries", oceania)
	}
}

func TestPaperScoresMap(t *testing.T) {
	if len(All()) != 150 {
		t.Fatalf("len = %d", len(All()))
	}
	if c, _ := ByCode("TH"); c.PaperScore[Hosting] != 0.3548 {
		t.Errorf("TH = %v", c.PaperScore[Hosting])
	}
}

func TestCodesOrdered(t *testing.T) {
	codes := Codes()
	if len(codes) != 150 || codes[0] != "AE" || codes[149] != "ZW" {
		t.Errorf("Codes() boundary entries wrong: first %s last %s", codes[0], codes[len(codes)-1])
	}
}

func TestLayerString(t *testing.T) {
	if Hosting.String() != "hosting" || DNS.String() != "dns" || CA.String() != "ca" || TLD.String() != "tld" {
		t.Error("layer names wrong")
	}
	if Layer(99).String() != "Layer(99)" {
		t.Error("unknown layer formatting wrong")
	}
}
