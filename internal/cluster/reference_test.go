package cluster

import (
	"errors"
	"math"
)

// affinityReference is AffinityPropagation as it stood before the one-pass
// kernel: a responsibility sweep by rows, an availability sweep by columns,
// and the exemplar set read back off the two matrices every round. It is
// kept as the oracle TestKernelMatchesReference compares the production
// kernel against, changed only to take its zeroed message matrices from the
// caller so the test can read them afterwards; it shares only the
// input-preparation helpers (offDiagonalRange, medianOffDiagonal) with
// production.
func affinityReference(sim, resp, avail [][]float64, opts Options) (*Result, error) {
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

	lam := opts.Damping

	var prevExemplars []int
	stable := 0
	result := &Result{}

	for iter := 1; iter <= opts.MaxIterations; iter++ {
		result.Iterations = iter

		// Responsibilities: r(i,k) ← s(i,k) − max_{k'≠k}[a(i,k') + s(i,k')].
		for i := 0; i < n; i++ {
			max1, max2 := math.Inf(-1), math.Inf(-1)
			arg1 := -1
			for k := 0; k < n; k++ {
				v := avail[i][k] + sim[i][k]
				if v > max1 {
					max2 = max1
					max1, arg1 = v, k
				} else if v > max2 {
					max2 = v
				}
			}
			for k := 0; k < n; k++ {
				sub := max1
				if k == arg1 {
					sub = max2
				}
				resp[i][k] = lam*resp[i][k] + (1-lam)*(sim[i][k]-sub)
			}
		}

		// Availabilities:
		// a(i,k) ← min(0, r(k,k) + Σ_{i'∉{i,k}} max(0, r(i',k))) for i≠k;
		// a(k,k) ← Σ_{i'≠k} max(0, r(i',k)).
		for k := 0; k < n; k++ {
			var sumPos float64
			for i := 0; i < n; i++ {
				if i != k && resp[i][k] > 0 {
					sumPos += resp[i][k]
				}
			}
			for i := 0; i < n; i++ {
				var newA float64
				if i == k {
					newA = sumPos
				} else {
					v := resp[k][k] + sumPos
					if resp[i][k] > 0 {
						v -= resp[i][k]
					}
					if v > 0 {
						v = 0
					}
					newA = v
				}
				avail[i][k] = lam*avail[i][k] + (1-lam)*newA
			}
		}

		exemplars := currentExemplars(resp, avail)
		if equalInts(exemplars, prevExemplars) {
			stable++
			if stable >= opts.ConvergenceIterations && len(exemplars) > 0 {
				result.Converged = true
				break
			}
		} else {
			stable = 0
			prevExemplars = exemplars
		}
	}

	exemplars := currentExemplars(resp, avail)
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

	result.Exemplars = exemplars
	result.Assignment = assign
	return result, nil
}

func currentExemplars(resp, avail [][]float64) []int {
	var out []int
	for k := range resp {
		if resp[k][k]+avail[k][k] > 0 {
			out = append(out, k)
		}
	}
	return out
}
