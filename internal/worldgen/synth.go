package worldgen

import (
	"errors"
	"math"

	"github.com/webdep/webdep/internal/emd"
)

// Weighted is a provider (or TLD, or CA) with a relative base weight in a
// country's dependency profile.
type Weighted struct {
	Name   string
	Weight float64
}

// synthesizeCounts turns a base weight profile into integer website counts
// that sum to total and whose centralization score matches targetS as
// closely as the profile's shape allows.
//
// Calibration works by *tilting*: raising every weight to a common exponent
// τ and renormalizing. τ > 1 sharpens the profile (more centralized),
// τ < 1 flattens it (less centralized), and tilting never reorders
// providers, so the structural story encoded in the profile (who is big,
// who is regional) survives calibration. 𝒮(τ) is monotonically increasing,
// so a binary search suffices.
func synthesizeCounts(profile []Weighted, total int, targetS float64) ([]int, error) {
	if total <= 0 {
		return nil, errors.New("worldgen: nonpositive site total")
	}
	if len(profile) == 0 {
		return nil, errors.New("worldgen: empty profile")
	}
	weights := make([]float64, len(profile))
	for i, w := range profile {
		if w.Weight <= 0 {
			return nil, errors.New("worldgen: nonpositive weight for " + w.Name)
		}
		weights[i] = w.Weight
	}

	lo, hi := 0.05, 8.0
	var r realizer
	var counts []int
	for iter := 0; iter < 60; iter++ {
		tau := (lo + hi) / 2
		counts = r.realize(weights, total, tau)
		s := emd.CentralizationInts(counts)
		if math.Abs(s-targetS) < 1e-5 {
			return counts, nil
		}
		if s < targetS {
			lo = tau
		} else {
			hi = tau
		}
	}
	return counts, nil
}

// shareGroup pins a set of profile entries to a combined realized share
// (e.g. "the Russian providers in Turkmenistan's profile must end up with
// 33% of sites"). Tilting alone would wash these structural shares out when
// the calibration flattens or sharpens the profile.
type shareGroup struct {
	indices []int
	target  float64
}

// synthesizeWithGroups calibrates to targetS like synthesizeCounts while
// also steering each share group toward its target via fixed-point
// reweighting: after each synthesis round, every group's base weights are
// scaled by the ratio of target to realized share, and the profile is
// re-tilted. A handful of rounds converges for the profiles in this
// package.
func synthesizeWithGroups(profile []Weighted, total int, targetS float64, groups []shareGroup) ([]int, error) {
	work := append([]Weighted(nil), profile...)
	var counts []int
	var err error
	for iter := 0; iter < 18; iter++ {
		counts, err = synthesizeCounts(work, total, targetS)
		if err != nil {
			return nil, err
		}
		adjusted := false
		for _, g := range groups {
			if g.target <= 0 {
				continue
			}
			sum := 0
			for _, i := range g.indices {
				sum += counts[i]
			}
			realized := float64(sum) / float64(total)
			if realized == 0 {
				realized = 0.5 / float64(total)
			}
			ratio := g.target / realized
			if ratio > 1.03 || ratio < 0.97 {
				adjusted = true
				if ratio > 4 {
					ratio = 4
				}
				if ratio < 0.25 {
					ratio = 0.25
				}
				for _, i := range g.indices {
					work[i].Weight *= ratio
				}
			}
		}
		if !adjusted {
			break
		}
	}
	return counts, nil
}

// remainder is one entry's fractional count in largest-remainder
// rounding.
type remainder struct {
	idx  int
	frac float64
}

// before is largest-remainder rounding's total order: larger fractions
// first, ties to the lower index.
func (a remainder) before(b remainder) bool {
	return a.frac > b.frac || (a.frac == b.frac && a.idx < b.idx)
}

// realizer holds realize's scratch, reused across one calibration's
// bisection steps. The counts realize returns are that scratch too, valid
// until the next call.
type realizer struct {
	tilted []float64
	counts []int
	rems   []remainder
}

// realize converts tilted weights into integer counts summing exactly to
// total, using largest-remainder rounding. Providers rounding to zero are
// dropped from the tail (smallest weights first), mirroring how a country
// simply has no sites on its most marginal providers.
func (r *realizer) realize(weights []float64, total int, tau float64) []int {
	n := len(weights)
	if cap(r.tilted) < n {
		r.tilted, r.counts, r.rems = make([]float64, n), make([]int, n), make([]remainder, n)
	}
	tilted, counts, rems := r.tilted[:n], r.counts[:n], r.rems[:n]
	var z float64
	for i, w := range weights {
		tilted[i] = math.Pow(w, tau)
		z += tilted[i]
	}
	assigned := 0
	for i, t := range tilted {
		exact := t / z * float64(total)
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = remainder{i, exact - float64(counts[i])}
	}
	// The k = total − assigned largest remainders get one more site each.
	// Should rounding error leave k ≥ n, every entry gets k/n first and
	// the order deals the rest.
	k := total - assigned
	if k >= n {
		for i := range counts {
			counts[i] += k / n
		}
		k %= n
	}
	if k <= 0 {
		return counts
	}
	selectTop(rems, k)
	for _, rm := range rems[:k] {
		counts[rm.idx]++
	}
	return counts
}

// selectTop reorders rems so its first k entries are the k that come
// first under before, in no particular order among themselves.
func selectTop(rems []remainder, k int) {
	lo, hi := 0, len(rems)
	for lo < k && k < hi {
		// Partition rems[lo:hi] around its middle entry, parked at hi-1.
		mid := lo + (hi-lo)/2
		rems[mid], rems[hi-1] = rems[hi-1], rems[mid]
		p := lo
		for i := lo; i < hi-1; i++ {
			if rems[i].before(rems[hi-1]) {
				rems[p], rems[i] = rems[i], rems[p]
				p++
			}
		}
		rems[p], rems[hi-1] = rems[hi-1], rems[p]
		// rems[:p] now all come before rems[p], and rems[p+1:] after it.
		if k <= p {
			hi = p
		} else {
			lo = p + 1
		}
	}
}

// expandAssignments turns a count vector into a per-site assignment slice
// of profile indices, shuffled deterministically by the provided rng-like
// permutation function.
func expandAssignments(counts []int, shuffle func(n int, swap func(i, j int))) []int {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]int, 0, total)
	for idx, c := range counts {
		for k := 0; k < c; k++ {
			out = append(out, idx)
		}
	}
	shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
