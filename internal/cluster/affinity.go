// Package cluster implements affinity propagation (Frey & Dueck, 2007), the
// clustering algorithm the paper applies to providers' min-max-scaled
// (usage, endemicity-ratio) features to derive provider classes
// (Section 5.2).
//
// Affinity propagation exchanges two kinds of messages between data points
// until a set of exemplars emerges: responsibilities r(i,k), how suited
// point k is to serve as exemplar for i, and availabilities a(i,k), how
// appropriate it would be for i to choose k. Unlike k-means it does not
// require the number of clusters up front — the per-point preference
// (self-similarity) controls cluster granularity, which is why the paper
// obtains 305 clusters that are then manually grouped into 8 classes.
package cluster

import (
	"errors"
	"math"
)

// Options configures affinity propagation. The zero value is not useful;
// start from DefaultOptions.
type Options struct {
	// Damping in [0.5, 1) blends each new message with the previous one to
	// avoid oscillation.
	Damping float64
	// MaxIterations bounds the message-passing rounds.
	MaxIterations int
	// ConvergenceIterations is how many consecutive rounds the exemplar set
	// must remain unchanged before the run is declared converged.
	ConvergenceIterations int
	// Preference is the self-similarity s(k,k) assigned to every point.
	// More negative values yield fewer clusters. When NaN, the median of
	// the input similarities is used (the standard default).
	Preference float64
}

// DefaultOptions mirrors the common scikit-learn defaults.
func DefaultOptions() Options {
	return Options{
		Damping:               0.7,
		MaxIterations:         300,
		ConvergenceIterations: 20,
		Preference:            math.NaN(),
	}
}

// Result describes a completed clustering run.
type Result struct {
	// Exemplars lists the indices of the cluster exemplars.
	Exemplars []int
	// Assignment maps each point index to its position in Exemplars.
	Assignment []int
	// Converged reports whether the exemplar set stabilized before
	// MaxIterations.
	Converged bool
	// Iterations is the number of message-passing rounds performed.
	Iterations int
}

// NumClusters returns the number of clusters found.
func (r *Result) NumClusters() int { return len(r.Exemplars) }

// ErrEmptyInput is returned when no points are supplied.
var ErrEmptyInput = errors.New("cluster: no points")

// NegSquaredEuclidean builds the standard similarity matrix for affinity
// propagation: s(i,j) = −‖x_i − x_j‖².
func NegSquaredEuclidean(points [][]float64) [][]float64 {
	n := len(points)
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, n)
		for j := range s[i] {
			var d2 float64
			for k := range points[i] {
				d := points[i][k] - points[j][k]
				d2 += d * d
			}
			s[i][j] = -d2
		}
	}
	return s
}

// AffinityPropagation clusters points given a full similarity matrix
// (higher = more similar). The matrix is modified in place (the diagonal is
// overwritten with the preference).
func AffinityPropagation(sim [][]float64, opts Options) (*Result, error) {
	n := len(sim)
	if n == 0 {
		return nil, ErrEmptyInput
	}
	for _, row := range sim {
		if len(row) != n {
			return nil, errors.New("cluster: similarity matrix not square")
		}
	}
	if n == 1 {
		return &Result{Exemplars: []int{0}, Assignment: []int{0}, Converged: true}, nil
	}
	if opts.Damping < 0.5 || opts.Damping >= 1 {
		return nil, errors.New("cluster: damping must be in [0.5, 1)")
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 300
	}
	if opts.ConvergenceIterations <= 0 {
		opts.ConvergenceIterations = 20
	}

	// Degenerate input: if every pair is equally similar (e.g. identical
	// points), message passing has no gradient to work with; any partition
	// is equally good, so return the single natural cluster.
	if lo, hi := offDiagonalRange(sim); hi-lo < 1e-15 {
		assign := make([]int, n)
		return &Result{Exemplars: []int{0}, Assignment: assign, Converged: true}, nil
	}

	pref := opts.Preference
	if math.IsNaN(pref) {
		pref = medianOffDiagonal(sim)
	}
	for i := 0; i < n; i++ {
		sim[i][i] = pref
	}
	// Tiny deterministic jitter breaks exact ties that otherwise cause
	// oscillation (mirrors the noise scikit-learn injects).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sim[i][j] += 1e-12 * float64((i*2654435761+j*40503)%1000)
		}
	}

	exemplars, iterations, converged := propagate(sim, newMatrix(n), newMatrix(n), opts)
	if len(exemplars) == 0 {
		// Degenerate run (e.g. extremely negative preference): fall back to
		// a single cluster around the point with the greatest summed
		// similarity.
		best, bestSum := 0, math.Inf(-1)
		for k := 0; k < n; k++ {
			var sum float64
			for i := 0; i < n; i++ {
				sum += sim[i][k]
			}
			if sum > bestSum {
				best, bestSum = k, sum
			}
		}
		exemplars = []int{best}
	}

	// Assign every point to the most similar exemplar; exemplars assign to
	// themselves.
	exIndex := make(map[int]int, len(exemplars))
	for c, e := range exemplars {
		exIndex[e] = c
	}
	assign := make([]int, n)
	for i := 0; i < n; i++ {
		if c, ok := exIndex[i]; ok {
			assign[i] = c
			continue
		}
		best, bestSim := 0, math.Inf(-1)
		for c, e := range exemplars {
			if sim[i][e] > bestSim {
				best, bestSim = c, sim[i][e]
			}
		}
		assign[i] = best
	}

	return &Result{Exemplars: exemplars, Assignment: assign, Converged: converged, Iterations: iterations}, nil
}

// propagate is the message-passing loop: it exchanges responsibilities and
// availabilities over the prepared similarity matrix until the exemplar set
// has been stable for opts.ConvergenceIterations rounds or
// opts.MaxIterations is reached, and returns the last round's exemplars.
// resp and avail are the caller's zeroed message matrices.
//
// One round is a responsibility sweep
//
//	r(i,k) ← s(i,k) − max_{k'≠k}[a(i,k') + s(i,k')]
//
// followed by an availability sweep
//
//	a(i,k) ← min(0, r(k,k) + Σ_{i'∉{i,k}} max(0, r(i',k)))   for i≠k
//	a(k,k) ← Σ_{i'≠k} max(0, r(i',k))
//
// each damped against the previous message. The availabilities of row i
// need, of the whole responsibility matrix, only row i itself plus two
// per-column scalars: the diagonal r(k,k) and Σ⁺(k) = Σ_{i'≠k} max(0,
// r(i',k)). So the loop keeps those two as vectors and makes one row-major
// pass per round: for row i it finishes this round's availabilities, notes
// whether i is an exemplar, and runs ahead to the next round's
// responsibilities for the row (which read only row i of avail and sim),
// adding them into the next round's Σ⁺ and diagonal. Every matrix row is
// touched once per round, while it is in cache, and nothing is read down a
// column.
//
// Invariant: rows are visited in ascending i, so each Σ⁺(k) is accumulated
// in the order a column walk would use and every message is the same bit
// pattern as in the textbook two-sweep form (affinityReference in the
// tests). The classification goldens depend on that.
func propagate(sim, resp, avail [][]float64, opts Options) (exemplars []int, iterations int, converged bool) {
	n := len(sim)
	lam, mix := opts.Damping, 1-opts.Damping

	// diag and sumPos describe the responsibilities the availability half
	// is about to read; the responsibility half fills the next pair.
	diag, nextDiag := make([]float64, n), make([]float64, n)
	sumPos, nextSumPos := make([]float64, n), make([]float64, n)

	// responsibilities runs row i's responsibility update and folds the
	// row into nextDiag and nextSumPos.
	responsibilities := func(i int) {
		s, a, r := sim[i][:n], avail[i][:n], resp[i][:n]
		max1, max2 := math.Inf(-1), math.Inf(-1)
		arg1 := -1
		for k, ak := range a {
			v := ak + s[k]
			if v > max1 {
				max2 = max1
				max1, arg1 = v, k
			} else if v > max2 {
				max2 = v
			}
		}
		// Σ⁺(i) excludes row i's own term: the loop below adds it like any
		// other column and the saved value puts it back.
		own := nextSumPos[i]
		next := nextSumPos[:n]
		for k, rk := range r {
			sub := max1
			if k == arg1 {
				sub = max2
			}
			rk = lam*rk + mix*(s[k]-sub)
			r[k] = rk
			if rk > 0 {
				next[k] += rk
			}
		}
		nextSumPos[i] = own
		nextDiag[i] = r[i]
	}
	advance := func() {
		diag, nextDiag = nextDiag, diag
		sumPos, nextSumPos = nextSumPos, sumPos
		for k := range nextSumPos {
			nextSumPos[k] = 0
		}
	}

	// Round 1's responsibilities, from all-zero availabilities.
	for i := 0; i < n; i++ {
		responsibilities(i)
	}
	advance()

	var prevExemplars []int
	stable := 0
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		iterations = iter
		exemplars = nil
		last := iter == opts.MaxIterations
		for i := 0; i < n; i++ {
			a, r := avail[i][:n], resp[i][:n]
			d, sp := diag[:n], sumPos[:n]
			// The off-diagonal rule is applied to the whole row; the
			// diagonal is then redone from its saved previous value.
			own := a[i]
			for k, ak := range a {
				v := d[k] + sp[k]
				if rk := r[k]; rk > 0 {
					v -= rk
				}
				if v > 0 {
					v = 0
				}
				a[k] = lam*ak + mix*v
			}
			a[i] = lam*own + mix*sp[i]

			if d[i]+a[i] > 0 {
				exemplars = append(exemplars, i)
			}
			// The capped last round has no successor to run ahead for.
			if !last {
				responsibilities(i)
			}
		}
		advance()

		if equalInts(exemplars, prevExemplars) {
			stable++
			if stable >= opts.ConvergenceIterations && len(exemplars) > 0 {
				return exemplars, iterations, true
			}
		} else {
			stable = 0
			prevExemplars = exemplars
		}
	}
	return exemplars, iterations, false
}

// Points is a convenience wrapper: cluster feature vectors directly using
// the negative squared Euclidean similarity.
func Points(points [][]float64, opts Options) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrEmptyInput
	}
	return AffinityPropagation(NegSquaredEuclidean(points), opts)
}

func newMatrix(n int) [][]float64 {
	backing := make([]float64, n*n)
	m := make([][]float64, n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n]
	}
	return m
}

func offDiagonalRange(sim [][]float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range sim {
		for j := range sim[i] {
			if i == j {
				continue
			}
			if sim[i][j] < lo {
				lo = sim[i][j]
			}
			if sim[i][j] > hi {
				hi = sim[i][j]
			}
		}
	}
	return lo, hi
}

func medianOffDiagonal(sim [][]float64) float64 {
	n := len(sim)
	vals := make([]float64, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				vals = append(vals, sim[i][j])
			}
		}
	}
	if len(vals) == 0 {
		return 0
	}
	// Quickselect would be faster; n is modest so sort-free selection via
	// partial copy is unnecessary.
	return medianOf(vals)
}

func medianOf(vals []float64) float64 {
	// In-place selection of the lower median.
	k := (len(vals) - 1) / 2
	lo, hi := 0, len(vals)-1
	for lo < hi {
		pivot := vals[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for vals[i] < pivot {
				i++
			}
			for vals[j] > pivot {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return vals[k]
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
