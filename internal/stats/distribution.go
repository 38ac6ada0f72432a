package stats

import (
	"fmt"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a fixed sample.
// The zero value is unusable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from the sample xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X ≤ x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Count of samples ≤ x: first index with sorted[i] > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Len reports the number of samples behind the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }

// Points returns the (x, P(X ≤ x)) step points of the ECDF, one per distinct
// sample value, suitable for plotting figures such as the paper's Figure 11.
func (e *ECDF) Points() (xs, ps []float64) {
	n := len(e.sorted)
	for i := 0; i < n; {
		j := i
		for j+1 < n && e.sorted[j+1] == e.sorted[i] {
			j++
		}
		xs = append(xs, e.sorted[i])
		ps = append(ps, float64(j+1)/float64(n))
		i = j + 1
	}
	return xs, ps
}

// Histogram bins samples into equal-width buckets over [lo, hi], matching
// the per-layer centralization histograms of the paper's Figure 12.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram builds a histogram with the given number of equal-width bins
// over [lo, hi]. Samples outside the range are clamped into the edge bins.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	bins := len(h.Counts)
	idx := int(float64(bins) * (x - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total reports how many observations the histogram holds.
func (h *Histogram) Total() int { return h.total }

// BinLabel returns a human-readable range label for bin i.
func (h *Histogram) BinLabel(i int) string {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return fmt.Sprintf("[%.3f,%.3f)", h.Lo+float64(i)*w, h.Lo+float64(i+1)*w)
}
