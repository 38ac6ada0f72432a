// Package analysis computes the paper's experiment results from a measured
// corpus: per-country score tables, subregion aggregates, insularity
// distributions, continent-dependence matrices, class correlations, the
// longitudinal comparison, and the TLD study. The report package renders
// these structures; the experiments command maps each to its table/figure.
//
// An analysis that is a function of the per-country provider counts takes a
// dataset.Scored — a corpus or a store-scanned ScoreSet, it cannot tell
// which. One that takes a *dataset.Corpus reads website rows (continents
// of serving IPs, languages, the second epoch's lists) and says so by its
// signature.
//
// Per-country values are read through the ScoreSet's ordered accessors —
// EachScore (sorted country order), Ranking and Standing — or the sorted
// CountryScore rows SortedScores and SortedInsularity build from them;
// BySubregion and ByContinent take those rows. No analysis ranges over a
// score map, so every floating-point reduction runs in one fixed country
// order and a seeded run gives the same bits on every call.
package analysis

import (
	"context"
	"fmt"
	"sort"

	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/parallel"
	"github.com/webdep/webdep/internal/stats"
)

// CountryScore pairs a country with a metric value.
type CountryScore struct {
	Code      string
	Name      string
	Region    string
	Continent string
	Value     float64
}

// SortedScores returns per-country centralization for a layer, most
// centralized first (the paper's Tables 5–8 and Figures 5/17–19), in the
// order the scoring surface fixed when it was built.
func SortedScores(src dataset.Scored, layer countries.Layer) []CountryScore {
	ss := src.ScoreSet()
	ranked := ss.Ranking(layer)
	out := make([]CountryScore, len(ranked))
	for i, cc := range ranked {
		st, _ := ss.Standing(cc, layer)
		out[i] = countryScore(cc, st.Score)
	}
	return out
}

// SortedInsularity returns per-country insularity for a layer, most insular
// first (Figures 13 and 20–22). The TLD layer uses ccTLD semantics: a
// site is insular when its TLD's home country is the list's country (.com
// counts as insular to the U.S.).
func SortedInsularity(src dataset.Scored, layer countries.Layer) []CountryScore {
	var out []CountryScore
	src.ScoreSet().EachScore(layer, func(cc string, _, ins float64) {
		out = append(out, countryScore(cc, ins))
	})
	sortCountryValues(out)
	return out
}

// sortCountryValues orders per-country rows as the paper's tables do:
// value descending, then country code ascending.
func sortCountryValues(rows []CountryScore) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Value != rows[j].Value {
			return rows[i].Value > rows[j].Value
		}
		return rows[i].Code < rows[j].Code
	})
}

func countryScore(cc string, v float64) CountryScore {
	c, _ := countries.ByCode(cc)
	return CountryScore{Code: cc, Name: c.Name, Region: c.Region, Continent: c.Continent, Value: v}
}

// RegionAggregate is one subregion's summary for a layer.
type RegionAggregate struct {
	Region    string
	Continent string
	Mean      float64
	Min, Max  float64
	Countries int
}

// BySubregion aggregates per-country rows (SortedScores or
// SortedInsularity) into UN-subregion summaries (Figures 9 and 10).
func BySubregion(rows []CountryScore) []RegionAggregate {
	return aggregate(rows, func(r CountryScore) string { return r.Region })
}

// ByContinent aggregates per-country rows into continent summaries (the
// color-coding of Figures 5 and 17–19).
func ByContinent(rows []CountryScore) []RegionAggregate {
	return aggregate(rows, func(r CountryScore) string { return r.Continent })
}

// aggregate groups rows by key, reducing each group in input order, and
// sorts the groups by mean descending, then name ascending, so the same
// rows give the same bytes on every call.
func aggregate(rows []CountryScore, key func(CountryScore) string) []RegionAggregate {
	var out []RegionAggregate
	groups := map[string][]float64{}
	for _, r := range rows {
		k := key(r)
		if _, ok := groups[k]; !ok {
			out = append(out, RegionAggregate{Region: k, Continent: r.Continent})
		}
		groups[k] = append(groups[k], r.Value)
	}
	for i := range out {
		xs := groups[out[i].Region]
		out[i].Mean, out[i].Min, out[i].Max = stats.Mean(xs), stats.Min(xs), stats.Max(xs)
		out[i].Countries = len(xs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mean != out[j].Mean {
			return out[i].Mean > out[j].Mean
		}
		return out[i].Region < out[j].Region
	})
	return out
}

// LayerSummary is one layer's global aggregate (the 𝒮̄ and var numbers the
// paper quotes per layer).
type LayerSummary struct {
	Layer       countries.Layer
	Mean        float64
	Variance    float64
	Median      float64
	GlobalTop   float64 // 𝒮 of the aggregated global toplist (Figure 12 marker)
	MostCode    string
	MostValue   float64
	LeastCode   string
	LeastValue  float64
	MeanInsular float64
}

// SummarizeLayer computes the headline aggregates for one layer. Countries
// are visited in sorted code order so ties for most/least centralized and
// the floating-point reductions come out identical on every run.
func SummarizeLayer(src dataset.Scored, layer countries.Layer) LayerSummary {
	ss := src.ScoreSet()
	var xs, ins []float64
	sum := LayerSummary{Layer: layer, MostValue: -1, LeastValue: 2}
	ss.EachScore(layer, func(cc string, v, insular float64) {
		xs = append(xs, v)
		ins = append(ins, insular)
		if v > sum.MostValue {
			sum.MostCode, sum.MostValue = cc, v
		}
		if v < sum.LeastValue {
			sum.LeastCode, sum.LeastValue = cc, v
		}
	})
	sum.Mean = stats.Mean(xs)
	sum.Variance = stats.Variance(xs)
	sum.Median = stats.Median(xs)
	sum.GlobalTop = ss.GlobalDistribution(layer).Score()
	sum.MeanInsular = stats.Mean(ins)
	return sum
}

// SummarizeLayers summarizes every layer concurrently, one pool slot per
// layer, over one scoring surface (a corpus builds its index here, once).
// The slice follows the order of countries.Layers and is identical to
// calling SummarizeLayer serially.
func SummarizeLayers(src dataset.Scored) []LayerSummary {
	ss := src.ScoreSet()
	sums, err := parallel.Map(context.Background(), len(countries.Layers), len(countries.Layers),
		func(_ context.Context, i int) (LayerSummary, error) {
			return SummarizeLayer(ss, countries.Layers[i]), nil
		})
	if err != nil {
		// SummarizeLayer cannot fail and the context is never cancelled,
		// so Map cannot err here (TestSummarizeLayersMapCannotFail pins
		// the invariant); panicking instead of discarding the error keeps
		// a future fallible summary from silently zero-filling the slice.
		panic(fmt.Sprintf("analysis: layer summary failed: %v", err))
	}
	return sums
}

// InsularityCDF returns the empirical CDF of a layer's insularity across
// countries (Figure 11).
func InsularityCDF(src dataset.Scored, layer countries.Layer) *stats.ECDF {
	var xs []float64
	src.ScoreSet().EachScore(layer, func(_ string, _, ins float64) { xs = append(xs, ins) })
	return stats.NewECDF(xs)
}

// ScoreHistogram bins a layer's country scores (Figure 12) and returns the
// Global-Top-10k marker value.
func ScoreHistogram(src dataset.Scored, layer countries.Layer, bins int) (*stats.Histogram, float64) {
	ss := src.ScoreSet()
	h := stats.NewHistogram(0, 0.65, bins)
	ss.EachScore(layer, func(_ string, v, _ float64) { h.Add(v) })
	return h, ss.GlobalDistribution(layer).Score()
}

// DependenceBasis selects what Figure 8's dependence matrix is computed
// over.
type DependenceBasis int

const (
	// ByProviderHQ groups sites by the hosting provider's home continent
	// (Figure 8a).
	ByProviderHQ DependenceBasis = iota
	// ByIPGeolocation groups sites by the serving IP's continent
	// (Figure 8b).
	ByIPGeolocation
	// ByNSGeolocation groups sites by the nameserver IP's continent,
	// with anycast broken out (Figure 8c).
	ByNSGeolocation
)

// DependenceCell is one (subregion, target) share.
type DependenceMatrix struct {
	// Shares[subregion][target] is the fraction of the subregion's sites
	// attributed to the target continent ("anycast" is a target for the
	// NS basis).
	Shares map[string]map[string]float64
}

// ContinentDependence computes Figure 8's matrices.
func ContinentDependence(corpus *dataset.Corpus, basis DependenceBasis) *DependenceMatrix {
	m := &DependenceMatrix{Shares: map[string]map[string]float64{}}
	counts := map[string]map[string]int{}
	totals := map[string]int{}
	for cc, list := range corpus.Lists {
		c, _ := countries.ByCode(cc)
		row := counts[c.Region]
		if row == nil {
			row = map[string]int{}
			counts[c.Region] = row
		}
		for i := range list.Sites {
			s := &list.Sites[i]
			var target string
			switch basis {
			case ByProviderHQ:
				if s.HostProviderCountry == "" {
					continue
				}
				hq, _ := countries.ByCode(s.HostProviderCountry)
				target = hq.Continent
			case ByIPGeolocation:
				target = s.HostIPContinent
			case ByNSGeolocation:
				if s.NSAnycast {
					target = "anycast"
				} else {
					target = s.NSIPContinent
				}
			}
			if target == "" {
				continue
			}
			row[target]++
			totals[c.Region]++
		}
	}
	for region, row := range counts {
		total := totals[region]
		if total == 0 {
			continue
		}
		out := map[string]float64{}
		for target, n := range row {
			out[target] = float64(n) / float64(total)
		}
		m.Shares[region] = out
	}
	return m
}

// Correlation is one of the paper's quoted correlation results.
type Correlation struct {
	Label    string
	Rho      float64
	PValue   float64
	Strength string
	PaperRho float64 // the value the paper reports, for side-by-side output
}

// ClassCorrelations reproduces Section 5's correlation battery from a
// hosting classification: XL-GP dominance vs 𝒮 (paper: 0.90), other L-GP
// share vs 𝒮 (0.19), L-RP share vs 𝒮 (−0.72), and insularity vs 𝒮 (−0.61).
func ClassCorrelations(src dataset.Scored, cls *classify.Result) ([]Correlation, error) {
	ss := src.ScoreSet()
	var scoreVec, ins []float64
	ss.EachScore(countries.Hosting, func(_ string, score, insular float64) {
		scoreVec = append(scoreVec, score)
		ins = append(ins, insular)
	})
	specs := []struct {
		label    string
		xs       []float64
		paperRho float64
	}{
		{"XL-GP share vs centralization", classify.ClassShares(ss, countries.Hosting, cls, classify.XLGlobal), 0.90},
		{"L-GP share vs centralization", classify.ClassShares(ss, countries.Hosting, cls, classify.LGlobal, classify.LGlobalRegion), 0.19},
		{"L-RP share vs centralization", classify.ClassShares(ss, countries.Hosting, cls, classify.LRegional), -0.72},
		{"hosting insularity vs centralization", ins, -0.61},
	}
	out := make([]Correlation, 0, len(specs))
	for _, spec := range specs {
		rho, err := stats.Pearson(spec.xs, scoreVec)
		if err != nil {
			return nil, err
		}
		out = append(out, Correlation{
			Label:    spec.label,
			Rho:      rho,
			PValue:   stats.PearsonPValue(rho, len(scoreVec)),
			Strength: stats.CorrelationStrength(rho),
			PaperRho: spec.paperRho,
		})
	}
	return out, nil
}
