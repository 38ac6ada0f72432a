// Package core is the paper's metric suite: the centralization score 𝒮
// (Section 3.2), the regionalization measures usage, endemicity, endemicity
// ratio, and insularity (Section 3.3), and the descriptive measures prior
// work used (top-N share, HHI) kept for comparison.
//
// The package is deliberately self-contained — it consumes plain provider
// counts and usage vectors — so that downstream users can apply the metrics
// to any dependency data (hosting, DNS, CAs, TLDs, third-party trackers, …)
// without adopting the rest of the toolkit.
package core

import (
	"sort"

	"github.com/webdep/webdep/internal/emd"
)

// Distribution is an observed distribution of an Internet function over
// providers: how many websites depend on each provider. The zero value is
// an empty distribution ready to use.
//
// The derived views (Score, HHI, Ranked, Counts, RankCurve, TopNShare,
// ProvidersForCoverage) are memoized: the first call sorts the counts once
// and every later call reads the cached ordering until the next mutation
// (Add, Observe, Merge) discards it. A frozen distribution — one built by
// FromSorted, as every distribution the dataset scoring index hands out is
// — is safe for concurrent readers as long as nobody mutates it; an
// unfrozen distribution must not have its first derived-view call race
// with another reader.
type Distribution struct {
	counts map[string]float64
	total  float64

	// Memoized derived state, valid only while frozen is true. sorted and
	// ranked are never modified in place once built; mutation replaces
	// them wholesale via unfreeze.
	frozen bool
	sorted []float64       // counts, nonincreasing
	ranked []ProviderShare // by (count desc, provider asc)
	score  float64
	hhi    float64
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution {
	return &Distribution{counts: make(map[string]float64)}
}

// FromCounts builds a distribution from a provider→count map. Nonpositive
// counts are ignored.
func FromCounts(counts map[string]float64) *Distribution {
	d := NewDistribution()
	for p, n := range counts {
		d.Add(p, n)
	}
	return d
}

// FromSorted builds a frozen distribution directly from provider/count
// vectors already ordered by (count descending, provider ascending) with
// strictly positive counts and distinct providers — the columnar form the
// dataset scoring index extracts. It skips the re-sort that Freeze would
// pay and returns with every derived view memoized, so the result is safe
// for concurrent readers immediately.
func FromSorted(providers []string, counts []float64) *Distribution {
	d := &Distribution{counts: make(map[string]float64, len(providers))}
	var total float64
	for _, n := range counts {
		total += n
	}
	d.total = total
	d.sorted = append([]float64(nil), counts...)
	d.ranked = make([]ProviderShare, len(providers))
	for i, p := range providers {
		n := counts[i]
		d.counts[p] = n
		share := 0.0
		if total > 0 {
			share = n / total
		}
		d.ranked[i] = ProviderShare{Provider: p, Count: n, Share: share}
	}
	d.score = emd.Centralization(d.sorted)
	d.hhi = hhiOf(d.sorted, total)
	d.frozen = true
	return d
}

// Add records that n additional websites depend on the provider.
// Nonpositive n is ignored.
func (d *Distribution) Add(provider string, n float64) {
	if n <= 0 {
		return
	}
	if d.counts == nil {
		d.counts = make(map[string]float64)
	}
	d.unfreeze()
	d.counts[provider] += n
	d.total += n
}

// unfreeze discards the memoized derived views before a mutation.
func (d *Distribution) unfreeze() {
	if d.frozen {
		d.frozen = false
		d.sorted = nil
		d.ranked = nil
	}
}

// freeze builds the memoized views if they are stale.
func (d *Distribution) freeze() {
	if d.frozen {
		return
	}
	d.ranked = make([]ProviderShare, 0, len(d.counts))
	for p, n := range d.counts {
		share := 0.0
		if d.total > 0 {
			share = n / d.total
		}
		d.ranked = append(d.ranked, ProviderShare{Provider: p, Count: n, Share: share})
	}
	sort.Slice(d.ranked, func(i, j int) bool {
		if d.ranked[i].Count != d.ranked[j].Count {
			return d.ranked[i].Count > d.ranked[j].Count
		}
		return d.ranked[i].Provider < d.ranked[j].Provider
	})
	d.sorted = make([]float64, len(d.ranked))
	for i := range d.ranked {
		d.sorted[i] = d.ranked[i].Count
	}
	d.score = emd.Centralization(d.sorted)
	d.hhi = hhiOf(d.sorted, d.total)
	d.frozen = true
}

// hhiOf computes Σ (a_i/C)² over a count vector; summation runs in slice
// order, so the memoized HHI is deterministic (the pre-memoization code
// summed in map-iteration order, which randomized the last ulp).
func hhiOf(counts []float64, total float64) float64 {
	if total == 0 {
		return 0
	}
	var sum float64
	for _, n := range counts {
		s := n / total
		sum += s * s
	}
	return sum
}

// Observe records a single website's dependence on the provider.
func (d *Distribution) Observe(provider string) { d.Add(provider, 1) }

// Total returns C, the total number of websites observed.
func (d *Distribution) Total() float64 { return d.total }

// NumProviders returns the number of distinct providers with nonzero count.
func (d *Distribution) NumProviders() int { return len(d.counts) }

// Count returns the number of websites using the provider.
func (d *Distribution) Count(provider string) float64 { return d.counts[provider] }

// Share returns the provider's market share a_i/C, or 0 for an empty
// distribution.
func (d *Distribution) Share(provider string) float64 {
	if d.total == 0 {
		return 0
	}
	return d.counts[provider] / d.total
}

// Counts returns the provider counts in nonincreasing order. The slice is
// a fresh copy the caller may keep or modify.
func (d *Distribution) Counts() []float64 {
	d.freeze()
	return append([]float64(nil), d.sorted...)
}

// ProviderShare pairs a provider with its market share.
type ProviderShare struct {
	Provider string
	Count    float64
	Share    float64
}

// Ranked returns all providers ordered by decreasing count (ties broken by
// name for determinism). The returned slice is the memoized ranking shared
// with later calls: callers must treat it as read-only.
func (d *Distribution) Ranked() []ProviderShare {
	d.freeze()
	return d.ranked
}

// Top returns the n largest providers (or fewer if the distribution is
// smaller). Like Ranked, the result aliases the memoized ranking and must
// be treated as read-only.
func (d *Distribution) Top(n int) []ProviderShare {
	ranked := d.Ranked()
	if n < len(ranked) {
		ranked = ranked[:n]
	}
	return ranked
}

// Score returns the paper's centralization score:
//
//	𝒮 = Σ (a_i/C)² − 1/C
//
// the Earth Mover's Distance from the observed distribution to the fully
// decentralized reference where every website has its own provider
// (Section 3.2, Appendix A). Empty distributions score 0.
func (d *Distribution) Score() float64 {
	d.freeze()
	return d.score
}

// HHI returns the Herfindahl–Hirschman Index Σ (a_i/C)², the antitrust
// concentration measure of which 𝒮 is an instantiation up to the 1/C
// correction.
func (d *Distribution) HHI() float64 {
	d.freeze()
	return d.hhi
}

// TopNShare returns the share of websites covered by the n largest
// providers — the first-cut heuristic prior work used, kept as a baseline.
// The paper's Figure 1 shows why it is insufficient: Azerbaijan and Hong
// Kong share a top-5 value of 0.59 while differing substantially in 𝒮.
func (d *Distribution) TopNShare(n int) float64 {
	var covered float64
	for _, ps := range d.Top(n) {
		covered += ps.Count
	}
	if d.total == 0 {
		return 0
	}
	return covered / d.total
}

// ProvidersForCoverage returns the minimum number of providers needed to
// cover the given fraction of websites (e.g. 0.90 reproduces the paper's
// "90% of websites are hosted by fewer than k providers" statistic). It
// returns 0 for an empty distribution.
func (d *Distribution) ProvidersForCoverage(fraction float64) int {
	if d.total == 0 || fraction <= 0 {
		return 0
	}
	need := fraction * d.total
	var covered float64
	for i, ps := range d.Ranked() {
		covered += ps.Count
		if covered >= need-1e-9 {
			return i + 1
		}
	}
	return d.NumProviders()
}

// RankCurve returns cumulative shares by provider rank: element k is the
// share of websites covered by the top k+1 providers. This is the curve
// behind the paper's Figure 1.
func (d *Distribution) RankCurve() []float64 {
	ranked := d.Ranked()
	out := make([]float64, len(ranked))
	var cum float64
	for i, ps := range ranked {
		cum += ps.Share
		out[i] = cum
	}
	return out
}

// Concentration labels borrowed from the U.S. DOJ HHI guidelines the paper
// cites for interpreting 𝒮: competitive (<0.10), moderately concentrated
// (0.10–0.18), highly concentrated (>0.18).
const (
	Competitive            = "competitive"
	ModeratelyConcentrated = "moderately concentrated"
	HighlyConcentrated     = "highly concentrated"
)

// Interpret maps a centralization score onto the DOJ interpretation bands.
func Interpret(score float64) string {
	switch {
	case score > 0.18:
		return HighlyConcentrated
	case score >= 0.10:
		return ModeratelyConcentrated
	default:
		return Competitive
	}
}

// MaxScore returns the largest 𝒮 achievable with c websites (monopoly):
// 1 − 1/c.
func MaxScore(c int) float64 { return emd.MaxCentralization(c) }
