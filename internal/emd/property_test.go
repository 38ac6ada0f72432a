package emd

import (
	"math"
	"math/rand"
	"testing"
)

// Property-based checks over randomized inputs. The generator is seeded, so
// a failure reproduces deterministically; log the case, never just the seed.

const propertyTrials = 200

func newRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

// randomCounts draws a provider-count vector: 1..maxPiles piles with
// 0..maxCount websites each, at least one nonzero.
func randomCounts(rng *rand.Rand, maxPiles, maxCount int) []float64 {
	for {
		n := 1 + rng.Intn(maxPiles)
		counts := make([]float64, n)
		var total float64
		for i := range counts {
			counts[i] = float64(rng.Intn(maxCount + 1))
			total += counts[i]
		}
		if total > 0 {
			return counts
		}
	}
}

func TestCentralizationBounds(t *testing.T) {
	rng := newRand()
	for trial := 0; trial < propertyTrials; trial++ {
		counts := randomCounts(rng, 40, 50)
		var c float64
		for _, a := range counts {
			c += a
		}
		s := Centralization(counts)
		if s < 0 || s > 1 {
			t.Fatalf("trial %d: score %v outside [0,1] for %v", trial, s, counts)
		}
		if max := MaxCentralization(int(c)); s > max+1e-12 {
			t.Fatalf("trial %d: score %v exceeds max %v for %v", trial, s, max, counts)
		}
	}
}

func TestCentralizationPermutationInvariant(t *testing.T) {
	rng := newRand()
	for trial := 0; trial < propertyTrials; trial++ {
		counts := randomCounts(rng, 40, 50)
		want := Centralization(counts)
		shuffled := append([]float64(nil), counts...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := Centralization(shuffled)
		// Summation order changes, so allow float reassociation slack only.
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: score %v after shuffle, %v before (%v)", trial, got, want, counts)
		}
	}
}

// TestCentralizationConcentrationMonotonic: moving one website from a
// smaller pile onto a pile at least as large concentrates the distribution,
// so 𝒮 must strictly increase (total mass is unchanged).
func TestCentralizationConcentrationMonotonic(t *testing.T) {
	rng := newRand()
	for trial := 0; trial < propertyTrials; trial++ {
		counts := randomCounts(rng, 40, 50)
		// Pick a donor pile with mass and a receiver at least as large.
		donor, receiver := -1, -1
		for k := 0; k < 100; k++ {
			i, j := rng.Intn(len(counts)), rng.Intn(len(counts))
			if i != j && counts[j] > 0 && counts[i] >= counts[j] {
				receiver, donor = i, j
				break
			}
		}
		if donor == -1 {
			continue // e.g. single-pile vector; nothing to transfer
		}
		before := Centralization(counts)
		counts[receiver]++
		counts[donor]--
		after := Centralization(counts)
		if after <= before {
			t.Fatalf("trial %d: concentrating %v -> %v did not increase score (%v -> %v)",
				trial, donor, receiver, before, after)
		}
	}
}

// TestCentralizationDecentralizedIsZero: the fully decentralized
// distribution — every website its own provider — is the reference itself,
// so its distance from the reference is exactly zero.
func TestCentralizationDecentralizedIsZero(t *testing.T) {
	rng := newRand()
	for trial := 0; trial < propertyTrials; trial++ {
		c := 1 + rng.Intn(200)
		counts := make([]float64, c)
		for i := range counts {
			counts[i] = 1
		}
		if s := Centralization(counts); math.Abs(s) > 1e-15 {
			t.Fatalf("trial %d: decentralized distribution of %d sites scored %v, want 0", trial, c, s)
		}
	}
}

func TestCentralizationSingleProviderIsMax(t *testing.T) {
	rng := newRand()
	for trial := 0; trial < propertyTrials; trial++ {
		c := 1 + rng.Intn(500)
		got := Centralization([]float64{float64(c)})
		if want := MaxCentralization(c); math.Abs(got-want) > 1e-15 {
			t.Fatalf("trial %d: single provider of %d sites scored %v, want %v", trial, c, got, want)
		}
	}
}

// TestClosedFormMatchesSolverRandomized extends the equivalence claim
// (Appendix A) to random instances: the closed form and the exact
// transportation solver must agree on every randomly drawn distribution.
func TestClosedFormMatchesSolverRandomized(t *testing.T) {
	rng := newRand()
	for trial := 0; trial < 50; trial++ {
		fs := randomCounts(rng, 6, 8)
		counts := make([]int, len(fs))
		for i, f := range fs {
			counts[i] = int(f)
		}
		want := CentralizationInts(counts)
		got, err := ReferenceEMD(counts)
		if err != nil {
			t.Fatalf("trial %d: solver failed on %v: %v", trial, counts, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: solver %v, closed form %v for %v", trial, got, want, counts)
		}
	}
}

// TestCentralizationIntsMatchesFloatBits: the integer form converts each
// count where it reads it rather than into a float copy, and must give the
// bits Centralization gives over that copy — zero counts included, which
// both skip — without allocating.
func TestCentralizationIntsMatchesFloatBits(t *testing.T) {
	rng := newRand()
	for trial := 0; trial < propertyTrials; trial++ {
		fs := randomCounts(rng, 60, 5000)
		counts := make([]int, len(fs))
		for i := range fs {
			if rng.Intn(3) == 0 {
				fs[i] = 0
			}
			counts[i] = int(fs[i])
		}
		got, want := CentralizationInts(counts), Centralization(fs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: CentralizationInts %v, Centralization %v for %v", trial, got, want, counts)
		}
		if allocs := testing.AllocsPerRun(10, func() { CentralizationInts(counts) }); allocs != 0 {
			t.Fatalf("trial %d: CentralizationInts allocates %v times, want 0", trial, allocs)
		}
	}
}
