// Package stats provides the descriptive and inferential statistics used
// throughout the dependence toolkit: correlation coefficients, set
// similarity, distribution summaries, empirical CDFs and histograms.
//
// The paper ("Formalizing Dependence of Web Infrastructure", SIGCOMM 2025)
// relies on Pearson's correlation coefficient for cross-country comparisons
// and the Jaccard index for toplist churn; those live here so that the
// higher-level metric packages stay free of numeric plumbing. (The min-max
// scaling ahead of provider clustering is classify's own.)
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an estimator needs more observations
// than the caller supplied (for example, correlation over fewer than two
// points).
var ErrInsufficientData = errors.New("stats: insufficient data")

// ErrLengthMismatch is returned when paired-sample estimators receive
// sequences of different lengths.
var ErrLengthMismatch = errors.New("stats: sequence lengths differ")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, matching
// the paper's reported "var" figures). It returns 0 for fewer than one
// observation.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs (average of the two middle elements for
// even lengths). It returns 0 for an empty slice. The input is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Pearson returns Pearson's product-moment correlation coefficient between
// paired samples xs and ys. It follows the interpretation guidelines the
// paper cites (Akoglu 2018): <0.30 poor, 0.30–0.60 fair, 0.60–0.80 moderate,
// >0.80 strong.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, ErrInsufficientData
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// CorrelationStrength renders a Pearson coefficient using the Akoglu (2018)
// vocabulary adopted by the paper's "Interpreting Statistics" section.
func CorrelationStrength(rho float64) string {
	switch abs := math.Abs(rho); {
	case abs > 0.80:
		return "strong"
	case abs > 0.60:
		return "moderate"
	case abs >= 0.30:
		return "fair"
	default:
		return "poor"
	}
}

// PearsonPValue approximates the two-sided p-value for a Pearson coefficient
// observed over n pairs, using the t-distribution transform
// t = r·sqrt((n−2)/(1−r²)) and a normal tail approximation adequate for the
// paper's "p ≪ 0.05" style claims at n = 150.
func PearsonPValue(rho float64, n int) float64 {
	if n <= 2 {
		return 1
	}
	r2 := rho * rho
	if r2 >= 1 {
		return 0
	}
	t := math.Abs(rho) * math.Sqrt(float64(n-2)/(1-r2))
	// Two-sided normal tail: erfc(t/√2).
	return math.Erfc(t / math.Sqrt2)
}

// BootstrapCorrelationCI estimates a confidence interval for Pearson's
// correlation by resampling the paired observations with replacement. It
// returns the (lo, hi) bounds of the central `confidence` mass over
// `resamples` bootstrap replicates, drawn deterministically from seed.
// Degenerate resamples (constant series) are skipped.
func BootstrapCorrelationCI(xs, ys []float64, confidence float64, resamples int, seed int64) (lo, hi float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, ErrLengthMismatch
	}
	if len(xs) < 3 {
		return 0, 0, ErrInsufficientData
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	if resamples <= 0 {
		resamples = 1000
	}
	rng := newLCG(seed)
	n := len(xs)
	rhos := make([]float64, 0, resamples)
	bx := make([]float64, n)
	by := make([]float64, n)
	for r := 0; r < resamples; r++ {
		for i := 0; i < n; i++ {
			j := int(rng.next() % uint64(n))
			bx[i], by[i] = xs[j], ys[j]
		}
		rho, err := Pearson(bx, by)
		if err != nil {
			continue
		}
		rhos = append(rhos, rho)
	}
	if len(rhos) < 10 {
		return 0, 0, ErrInsufficientData
	}
	sort.Float64s(rhos)
	alpha := (1 - confidence) / 2
	loIdx := int(alpha * float64(len(rhos)))
	hiIdx := int((1 - alpha) * float64(len(rhos)))
	if hiIdx >= len(rhos) {
		hiIdx = len(rhos) - 1
	}
	return rhos[loIdx], rhos[hiIdx], nil
}

// lcg is a tiny deterministic generator so the stats package needs no
// dependency on math/rand's global state.
type lcg struct{ state uint64 }

func newLCG(seed int64) *lcg {
	return &lcg{state: uint64(seed)*6364136223846793005 + 1442695040888963407}
}

func (l *lcg) next() uint64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return l.state >> 17
}

// Jaccard returns the Jaccard similarity |A∩B| / |A∪B| between two string
// sets. Two empty sets have similarity 1.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	setA := make(map[string]struct{}, len(a))
	for _, s := range a {
		setA[s] = struct{}{}
	}
	setB := make(map[string]struct{}, len(b))
	for _, s := range b {
		setB[s] = struct{}{}
	}
	inter := 0
	for s := range setA {
		if _, ok := setB[s]; ok {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
