package analysis

import (
	"math"
	"reflect"
	"testing"

	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/tldinfo"
	"github.com/webdep/webdep/internal/worldgen"
)

var testCountries = []string{
	"TH", "ID", "US", "CZ", "SK", "RU", "IR", "JP", "BR", "FR",
	"DE", "GB", "IN", "NG", "TM", "KG", "PL", "TR", "MX", "AU",
	"BG", "LT", "AF", "TT", "KZ",
}

func measuredCorpus(t *testing.T) (*worldgen.World, *dataset.Corpus) {
	t.Helper()
	w, err := worldgen.Build(worldgen.Config{
		Seed:               21,
		SitesPerCountry:    800,
		Countries:          testCountries,
		DomesticPerCountry: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	return w, corpus
}

func TestSortedScoresOrdering(t *testing.T) {
	_, mc := measuredCorpus(t)
	rows := SortedScores(mc, countries.Hosting)
	if len(rows) != len(testCountries) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Value > rows[i-1].Value {
			t.Fatalf("not sorted at %d", i)
		}
	}
	// Thailand tops, Iran bottoms (within this subset).
	if rows[0].Code != "ID" && rows[0].Code != "TH" {
		t.Errorf("most centralized = %s", rows[0].Code)
	}
	last := rows[len(rows)-1]
	if last.Code != "IR" && last.Code != "TM" {
		t.Errorf("least centralized = %s", last.Code)
	}
	if rows[0].Name == "" || rows[0].Region == "" {
		t.Error("rows missing country metadata")
	}
}

func TestBySubregion(t *testing.T) {
	_, mc := measuredCorpus(t)
	aggs := BySubregion(SortedScores(mc, countries.Hosting))
	if len(aggs) < 5 {
		t.Fatalf("only %d subregions", len(aggs))
	}
	// Sorted by mean descending; SE Asia should outrank Eastern Europe.
	pos := map[string]int{}
	for i, a := range aggs {
		pos[a.Region] = i
		if a.Countries == 0 || a.Min > a.Max {
			t.Errorf("bad aggregate %+v", a)
		}
	}
	if pos["South-eastern Asia"] > pos["Eastern Europe"] {
		t.Error("SE Asia should be more centralized than Eastern Europe")
	}
}

func TestSummarizeLayerHeadlines(t *testing.T) {
	_, mc := measuredCorpus(t)
	host := SummarizeLayer(mc, countries.Hosting)
	ca := SummarizeLayer(mc, countries.CA)
	tld := SummarizeLayer(mc, countries.TLD)

	// CA centralization exceeds hosting; its variance is tiny (paper §7.1).
	if ca.Mean <= host.Mean {
		t.Errorf("CA mean %v should exceed hosting %v", ca.Mean, host.Mean)
	}
	if ca.Variance >= host.Variance {
		t.Errorf("CA variance %v should be below hosting %v", ca.Variance, host.Variance)
	}
	// TLD centralization is the highest of all layers (Appendix B).
	if tld.Mean <= ca.Mean {
		t.Errorf("TLD mean %v should exceed CA %v", tld.Mean, ca.Mean)
	}
	if host.MostCode == "" || host.LeastCode == "" {
		t.Error("extremes missing")
	}
	if host.GlobalTop <= 0 {
		t.Errorf("global marker = %v", host.GlobalTop)
	}
}

// TestScoreSetRankMatchesSortedScores holds the country order the scoring
// surface fixes at build time to sorting each layer's scores per call, on
// a corpus whose countries tie: DE, FR and GB share one distribution shape
// under different providers, and JP and US one provider each.
func TestScoreSetRankMatchesSortedScores(t *testing.T) {
	c := dataset.NewCorpus("ties")
	lists := map[string][]string{
		"DE": {"A", "A", "B"},
		"FR": {"C", "D", "C"},
		"GB": {"E", "E", "F"},
		"JP": {"G"},
		"US": {"H"},
		"TH": {"A", "B", "C", "D"},
	}
	for cc, hosts := range lists {
		l := &dataset.CountryList{Country: cc}
		for i, h := range hosts {
			l.Sites = append(l.Sites, dataset.Website{Country: cc, Rank: i + 1, HostProvider: h, HostProviderCountry: cc, TLD: "com"})
		}
		c.Add(l)
	}
	ss := c.ScoreSet()
	for _, layer := range countries.Layers {
		var want []CountryScore
		for cc, v := range ss.Scores(layer) {
			want = append(want, countryScore(cc, v))
		}
		sortCountryValues(want)
		got := SortedScores(ss, layer)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: SortedScores %v, want %v", layer, got, want)
		}
		ins := ss.Insularities(layer)
		for i, row := range want {
			st, ok := ss.Standing(row.Code, layer)
			if !ok || st.Rank != i+1 || st.Of != len(want) || st.Score != row.Value || st.Insularity != ins[row.Code] {
				t.Fatalf("%v: Standing(%s) = %+v, %v; want rank %d of %d, score %v, insularity %v",
					layer, row.Code, st, ok, i+1, len(want), row.Value, ins[row.Code])
			}
		}
	}
	hosting, ties := SortedScores(ss, countries.Hosting), 0
	for i := 1; i < len(hosting); i++ {
		if hosting[i].Value == hosting[i-1].Value {
			ties++
		}
	}
	if ties < 3 {
		t.Fatalf("hosting has %d tied neighbours, want at least 3: %v", ties, hosting)
	}
	if _, ok := ss.Standing("ZZ", countries.Hosting); ok {
		t.Fatal("Standing found a country the set does not hold")
	}
}

func TestInsularityTLDSemantics(t *testing.T) {
	_, mc := measuredCorpus(t)
	ins := mc.ScoreSet().Insularities(countries.TLD)
	// The US counts .com as insular, so it must be highly insular at the
	// TLD layer.
	if ins["US"] < 0.5 {
		t.Errorf("US TLD insularity = %v", ins["US"])
	}
	// Countries are more insular at the TLD layer than hosting on average
	// (Figure 11).
	host := mc.ScoreSet().Insularities(countries.Hosting)
	var tldSum, hostSum float64
	for cc := range ins {
		tldSum += ins[cc]
		hostSum += host[cc]
	}
	if tldSum <= hostSum {
		t.Errorf("TLD insularity total %v should exceed hosting %v", tldSum, hostSum)
	}
}

func TestInsularityCDF(t *testing.T) {
	_, mc := measuredCorpus(t)
	cdf := InsularityCDF(mc, countries.CA)
	if cdf.Len() != len(testCountries) {
		t.Fatalf("CDF over %d countries", cdf.Len())
	}
	// CA insularity is near zero almost everywhere (§7.2): the CDF at 0.05
	// should already be high.
	if cdf.At(0.05) < 0.6 {
		t.Errorf("CA insularity CDF at 0.05 = %v; most countries should be below", cdf.At(0.05))
	}
}

func TestScoreHistogram(t *testing.T) {
	_, mc := measuredCorpus(t)
	h, marker := ScoreHistogram(mc, countries.Hosting, 13)
	if h.Total() != len(testCountries) {
		t.Fatalf("histogram holds %d", h.Total())
	}
	if marker <= 0 || marker > 0.65 {
		t.Errorf("global marker = %v", marker)
	}
}

func TestContinentDependence(t *testing.T) {
	_, mc := measuredCorpus(t)
	for _, basis := range []DependenceBasis{ByProviderHQ, ByIPGeolocation, ByNSGeolocation} {
		m := ContinentDependence(mc, basis)
		for region, row := range m.Shares {
			var sum float64
			for _, share := range row {
				sum += share
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("basis %v region %s sums to %v", basis, region, sum)
			}
		}
	}
	// Provider H.Q. dependence: every region leans heavily on North
	// America (the global providers are mostly US-based).
	hq := ContinentDependence(mc, ByProviderHQ)
	for region, row := range hq.Shares {
		if row["NA"] < 0.2 {
			t.Errorf("%s NA share = %v; US-based globals should dominate", region, row["NA"])
		}
	}
	// NS basis: anycast appears as a target (Figure 8c).
	ns := ContinentDependence(mc, ByNSGeolocation)
	foundAnycast := false
	for _, row := range ns.Shares {
		if row["anycast"] > 0 {
			foundAnycast = true
		}
	}
	if !foundAnycast {
		t.Error("no anycast share in NS dependence")
	}
}

func TestClassCorrelationsSigns(t *testing.T) {
	_, mc := measuredCorpus(t)
	cls, err := classify.Layer(mc, countries.Hosting, classify.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cors, err := ClassCorrelations(mc, cls)
	if err != nil {
		t.Fatal(err)
	}
	if len(cors) != 4 {
		t.Fatalf("%d correlations", len(cors))
	}
	byLabel := map[string]Correlation{}
	for _, c := range cors {
		byLabel[c.Label] = c
	}
	// Signs and rough strengths must match the paper.
	if c := byLabel["XL-GP share vs centralization"]; c.Rho < 0.6 {
		t.Errorf("XL correlation = %v, paper 0.90", c.Rho)
	}
	if c := byLabel["L-RP share vs centralization"]; c.Rho > -0.3 {
		t.Errorf("L-RP correlation = %v, paper −0.72", c.Rho)
	}
	if c := byLabel["hosting insularity vs centralization"]; c.Rho > -0.2 {
		t.Errorf("insularity correlation = %v, paper −0.61", c.Rho)
	}
}

func TestCaseStudies(t *testing.T) {
	_, mc := measuredCorpus(t)
	deps := CaseStudies(mc)
	byPair := map[[2]string]CrossDep{}
	for _, d := range deps {
		byPair[[2]string{d.Country, d.OnCountry}] = d
	}
	tm := byPair[[2]string{"TM", "RU"}]
	if math.Abs(tm.Share-0.33) > 0.08 {
		t.Errorf("TM→RU = %v, paper 0.33", tm.Share)
	}
	sk := byPair[[2]string{"SK", "CZ"}]
	if math.Abs(sk.Share-0.26) > 0.08 {
		t.Errorf("SK→CZ = %v, paper 0.26", sk.Share)
	}
	// Ukraine must NOT depend on Russia.
	if ua, ok := byPair[[2]string{"UA", "RU"}]; ok && ua.Share > 0.1 {
		t.Errorf("UA→RU = %v, should be small", ua.Share)
	}
}

func TestLongitudinal(t *testing.T) {
	w, mc := measuredCorpus(t)
	next, err := worldgen.BuildNextEpoch(w, "2025-05")
	if err != nil {
		t.Fatal(err)
	}
	measuredB, err := pipeline.FromWorld(w).MeasureWorld(next)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Longitudinal(mc, measuredB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho < 0.93 {
		t.Errorf("longitudinal rho = %v, paper 0.98", res.Rho)
	}
	if math.Abs(res.MeanJaccard-0.37) > 0.08 {
		t.Errorf("mean Jaccard = %v, paper 0.37", res.MeanJaccard)
	}
	if res.MeanCloudflareDelta <= 0 {
		t.Errorf("mean Cloudflare delta = %v, paper +3.8pts", res.MeanCloudflareDelta)
	}
	if res.LargestIncrease.Code != "BR" {
		t.Errorf("largest increase = %s, paper Brazil", res.LargestIncrease.Code)
	}
	if res.LargestDecrease.Code == "" {
		t.Error("no largest decrease found")
	}
}

func TestTLDBreakdownsAndStudy(t *testing.T) {
	_, mc := measuredCorpus(t)
	rows := TLDBreakdowns(mc)
	if len(rows) != len(testCountries) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		var sum float64
		for _, share := range row.Shares {
			sum += share
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s TLD shares sum to %v", row.Country, sum)
		}
	}
	// The US row is .com-dominated.
	for _, row := range rows {
		if row.Country == "US" && row.Shares[tldinfo.Com] < 0.5 {
			t.Errorf("US .com share = %v, paper 0.77", row.Shares[tldinfo.Com])
		}
	}

	study, err := StudyTLD(mc)
	if err != nil {
		t.Fatal(err)
	}
	if study.MeanScore < 0.2 || study.MeanScore > 0.45 {
		t.Errorf("TLD mean = %v, paper 0.3262", study.MeanScore)
	}
	if study.HostingTLDInsularityRho < 0.2 {
		t.Errorf("hosting↔TLD insularity rho = %v, paper 0.70", study.HostingTLDInsularityRho)
	}
}

func TestSortedInsularityOrdering(t *testing.T) {
	_, mc := measuredCorpus(t)
	rows := SortedInsularity(mc, countries.Hosting)
	for i := 1; i < len(rows); i++ {
		if rows[i].Value > rows[i-1].Value {
			t.Fatalf("not sorted at %d", i)
		}
	}
	// The US is the most insular hosting country (paper: 92.1%).
	if rows[0].Code != "US" {
		t.Errorf("most insular = %s, paper US", rows[0].Code)
	}
}

func TestByContinent(t *testing.T) {
	_, mc := measuredCorpus(t)
	aggs := ByContinent(SortedScores(mc, countries.Hosting))
	if len(aggs) < 4 {
		t.Fatalf("continents = %d", len(aggs))
	}
	var asia, europe *RegionAggregate
	for i := range aggs {
		switch aggs[i].Continent {
		case "AS":
			asia = &aggs[i]
		case "EU":
			europe = &aggs[i]
		}
	}
	if asia == nil || europe == nil {
		t.Fatal("AS or EU missing")
	}
	// Europe is consistently less centralized than Asia in hosting
	// (Figure 5's continental pattern).
	if europe.Mean >= asia.Mean {
		t.Errorf("EU mean %v should be below AS %v", europe.Mean, asia.Mean)
	}
	for _, a := range aggs {
		if a.Countries == 0 || a.Min > a.Max {
			t.Errorf("bad aggregate %+v", a)
		}
	}
}
