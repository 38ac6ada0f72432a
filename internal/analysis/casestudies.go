package analysis

import (
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/stats"
	"github.com/webdep/webdep/internal/tldinfo"
)

// CrossDep is one cross-border dependence observation (Section 5.3.3).
type CrossDep struct {
	Country    string  // the dependent country
	OnCountry  string  // the country depended on
	Share      float64 // fraction of sites served from OnCountry
	PaperShare float64 // the share the paper reports, 0 when unquoted
}

// caseStudyPairs are the cross-border dependencies the paper quantifies.
var caseStudyPairs = []CrossDep{
	{Country: "TM", OnCountry: "RU", PaperShare: 0.33},
	{Country: "TJ", OnCountry: "RU", PaperShare: 0.23},
	{Country: "KG", OnCountry: "RU", PaperShare: 0.22},
	{Country: "KZ", OnCountry: "RU", PaperShare: 0.21},
	{Country: "BY", OnCountry: "RU", PaperShare: 0.18},
	{Country: "UA", OnCountry: "RU", PaperShare: 0.02},
	{Country: "LT", OnCountry: "RU", PaperShare: 0.03},
	{Country: "EE", OnCountry: "RU", PaperShare: 0.05},
	{Country: "RE", OnCountry: "FR", PaperShare: 0.36},
	{Country: "GP", OnCountry: "FR", PaperShare: 0.34},
	{Country: "MQ", OnCountry: "FR", PaperShare: 0.35},
	{Country: "BF", OnCountry: "FR", PaperShare: 0.21},
	{Country: "CI", OnCountry: "FR", PaperShare: 0.18},
	{Country: "ML", OnCountry: "FR", PaperShare: 0.18},
	{Country: "SK", OnCountry: "CZ", PaperShare: 0.26},
	{Country: "AF", OnCountry: "IR", PaperShare: 0.20},
	{Country: "AT", OnCountry: "DE", PaperShare: 0.03},
}

// CaseStudies measures the paper's cross-border hosting dependencies in
// the corpus; pairs whose dependent country is absent are skipped.
func CaseStudies(corpus *dataset.Corpus) []CrossDep {
	var out []CrossDep
	for _, pair := range caseStudyPairs {
		list := corpus.Get(pair.Country)
		if list == nil {
			continue
		}
		dep := pair
		dep.Share = list.CrossDependence(countries.Hosting).Share(pair.OnCountry)
		out = append(out, dep)
	}
	return out
}

// LongitudinalResult compares two measurement epochs (Section 5.4).
type LongitudinalResult struct {
	EpochA, EpochB string
	// Rho correlates per-country hosting scores across epochs (paper: 0.98).
	Rho    float64
	PValue float64
	// MeanJaccard is the average toplist similarity (paper: 0.37).
	MeanJaccard float64
	// CloudflareDelta is each country's change in Cloudflare share
	// (percentage points; paper: +3.8 on average).
	CloudflareDelta map[string]float64
	// MeanCloudflareDelta averages CloudflareDelta.
	MeanCloudflareDelta float64
	// Largest movers by centralization change.
	LargestIncrease, LargestDecrease CountryScore
}

// Longitudinal compares two corpora over the same country set.
func Longitudinal(a, b *dataset.Corpus) (*LongitudinalResult, error) {
	ccs := a.Countries()
	ssA, ssB := a.ScoreSet(), b.ScoreSet()
	xs := make([]float64, 0, len(ccs))
	ys := make([]float64, 0, len(ccs))
	var jaccards, deltas []float64
	res := &LongitudinalResult{
		EpochA: a.Epoch, EpochB: b.Epoch,
		CloudflareDelta: map[string]float64{},
	}
	bestUp, bestDown := 0.0, 0.0
	for _, cc := range ccs {
		listB := b.Get(cc)
		if listB == nil {
			continue
		}
		stA, _ := ssA.Standing(cc, countries.Hosting)
		stB, _ := ssB.Standing(cc, countries.Hosting)
		xs = append(xs, stA.Score)
		ys = append(ys, stB.Score)
		jaccards = append(jaccards, stats.Jaccard(a.Get(cc).Domains(), listB.Domains()))
		cfA := ssA.DistributionOf(cc, countries.Hosting).Share("Cloudflare")
		cfB := ssB.DistributionOf(cc, countries.Hosting).Share("Cloudflare")
		delta := (cfB - cfA) * 100
		res.CloudflareDelta[cc] = delta
		deltas = append(deltas, delta)

		change := stB.Score - stA.Score
		if change > bestUp {
			bestUp = change
			res.LargestIncrease = countryScore(cc, change)
		}
		if change < bestDown {
			bestDown = change
			res.LargestDecrease = countryScore(cc, change)
		}
	}
	rho, err := stats.Pearson(xs, ys)
	if err != nil {
		return nil, err
	}
	res.Rho = rho
	res.PValue = stats.PearsonPValue(rho, len(xs))
	res.MeanJaccard = stats.Mean(jaccards)
	res.MeanCloudflareDelta = stats.Mean(deltas)
	return res, nil
}

// TLDBreakdown is one country's TLD-kind shares (Figure 16).
type TLDBreakdown struct {
	Country string
	Score   float64
	Shares  map[tldinfo.Kind]float64
}

// TLDBreakdowns computes every country's TLD-kind shares, most centralized
// first (the TLD layer's Ranking order).
func TLDBreakdowns(corpus *dataset.Corpus) []TLDBreakdown {
	ss := corpus.ScoreSet()
	ranked := ss.Ranking(countries.TLD)
	out := make([]TLDBreakdown, 0, len(ranked))
	for _, cc := range ranked {
		list := corpus.Get(cc)
		shares := map[tldinfo.Kind]float64{}
		total := 0
		for i := range list.Sites {
			tld := list.Sites[i].TLD
			if tld == "" {
				continue
			}
			shares[tldinfo.Classify(tld, cc)]++
			total++
		}
		for k := range shares {
			shares[k] /= float64(total)
		}
		st, _ := ss.Standing(cc, countries.TLD)
		out = append(out, TLDBreakdown{Country: cc, Score: st.Score, Shares: shares})
	}
	return out
}

// TLDStudy bundles Appendix B's headline numbers.
type TLDStudy struct {
	MeanScore float64 // paper: 0.3262
	// HostingTLDInsularityRho correlates hosting-layer and TLD-layer
	// insularity across countries (paper: 0.70).
	HostingTLDInsularityRho float64
	PValue                  float64
}

// StudyTLD computes Appendix B's aggregates.
func StudyTLD(src dataset.Scored) (*TLDStudy, error) {
	ss := src.ScoreSet()
	var scores, xs, ys []float64
	ss.EachScore(countries.Hosting, func(_ string, _, ins float64) { xs = append(xs, ins) })
	ss.EachScore(countries.TLD, func(_ string, score, ins float64) {
		scores = append(scores, score)
		ys = append(ys, ins)
	})
	rho, err := stats.Pearson(xs, ys)
	if err != nil {
		return nil, err
	}
	return &TLDStudy{
		MeanScore:               stats.Mean(scores),
		HostingTLDInsularityRho: rho,
		PValue:                  stats.PearsonPValue(rho, len(xs)),
	}, nil
}
