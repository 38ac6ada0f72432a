package worldgen

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/webdep/webdep/internal/emd"
)

func flatProfile(n int) []Weighted {
	out := make([]Weighted, n)
	for i := range out {
		out[i] = Weighted{Name: string(rune('a' + i%26)), Weight: 1 / float64(i+1)}
	}
	return out
}

func TestSynthesizeHitsTarget(t *testing.T) {
	profile := flatProfile(200)
	for _, target := range []float64{0.0411, 0.1358, 0.2403, 0.3548, 0.5853} {
		counts, err := synthesizeCounts(profile, 10000, target)
		if err != nil {
			t.Fatal(err)
		}
		got := emd.CentralizationInts(counts)
		if math.Abs(got-target) > 0.002 {
			t.Errorf("target %v realized %v", target, got)
		}
		sum := 0
		for _, c := range counts {
			sum += c
		}
		if sum != 10000 {
			t.Errorf("counts sum %d", sum)
		}
	}
}

func TestSynthesizePreservesOrder(t *testing.T) {
	profile := []Weighted{
		{"cloudflare", 0.4}, {"amazon", 0.2}, {"google", 0.1},
		{"regional1", 0.05}, {"regional2", 0.02},
	}
	counts, err := synthesizeCounts(profile, 5000, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("tilt reordered providers: %v", counts)
		}
	}
	if counts[0] == 0 {
		t.Fatal("top provider eliminated")
	}
}

func TestSynthesizeSmallTotals(t *testing.T) {
	counts, err := synthesizeCounts(flatProfile(50), 100, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	got := emd.CentralizationInts(counts)
	// Integer quantization at C=100 limits precision.
	if math.Abs(got-0.15) > 0.02 {
		t.Errorf("small-C target 0.15 realized %v", got)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := synthesizeCounts(nil, 100, 0.2); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := synthesizeCounts(flatProfile(5), 0, 0.2); err == nil {
		t.Error("zero total accepted")
	}
	if _, err := synthesizeCounts([]Weighted{{"x", -1}}, 10, 0.2); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	p := flatProfile(80)
	a, err := synthesizeCounts(p, 2000, 0.18)
	if err != nil {
		t.Fatal(err)
	}
	b, err := synthesizeCounts(p, 2000, 0.18)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("synthesis not deterministic")
		}
	}
}

func TestRealizeSumsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(100)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() + 0.001
		}
		total := 1 + rng.Intn(5000)
		counts := new(realizer).realize(weights, total, 0.3+rng.Float64()*3)
		sum := 0
		for _, c := range counts {
			if c < 0 {
				t.Fatal("negative count")
			}
			sum += c
		}
		if sum != total {
			t.Fatalf("sum %d != total %d", sum, total)
		}
	}
}

func TestExpandAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := []int{3, 0, 2}
	got := expandAssignments(counts, rng.Shuffle)
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	tally := map[int]int{}
	for _, idx := range got {
		tally[idx]++
	}
	if tally[0] != 3 || tally[1] != 0 || tally[2] != 2 {
		t.Errorf("tally = %v", tally)
	}
}

// realizeBySort is the sort-based largest-remainder rounding that realize
// replaced: it orders every remainder and deals the k extra sites from the
// top, wrapping around past n. realize must agree with it exactly. It
// also reports k and whether the k-th and (k+1)-th remainders tie, where
// only the index decides who gets the site.
func realizeBySort(weights []float64, total int, tau float64) (counts []int, k int, tie bool) {
	n := len(weights)
	tilted := make([]float64, n)
	var z float64
	for i, w := range weights {
		tilted[i] = math.Pow(w, tau)
		z += tilted[i]
	}
	counts = make([]int, n)
	rems := make([]remainder, n)
	assigned := 0
	for i, t := range tilted {
		exact := t / z * float64(total)
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = remainder{i, exact - float64(counts[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	k = total - assigned
	tie = k%n > 0 && rems[k%n-1].frac == rems[k%n].frac
	for i := 0; assigned < total; i++ {
		counts[rems[i%n].idx]++
		assigned++
	}
	return counts, k, tie
}

// TestRealizeSelectionMatchesSort holds the selection-based realize to the
// sort-based one over random profiles: distinct weights, duplicated weights
// (equal remainders, where only the index breaks ties), totals that divide
// evenly (no remainder left to deal) and totals smaller than n. One
// realizer serves every case, so stale scratch would show too.
func TestRealizeSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var r realizer
	var zeroK, ties, belowN int
	check := func(name string, weights []float64, total int, tau float64) {
		t.Helper()
		want, k, tie := realizeBySort(weights, total, tau)
		got := r.realize(weights, total, tau)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: n=%d total=%d tau=%v: realize %v, sort %v", name, len(weights), total, tau, got, want)
		}
		if k == 0 {
			zeroK++
		}
		if tie {
			ties++
		}
		if total < len(weights) {
			belowN++
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() + 0.001
		}
		if trial%2 == 1 {
			// A handful of distinct values, repeated: equal remainders.
			distinct := 1 + rng.Intn(4)
			for i := range weights {
				weights[i] = float64(1 + rng.Intn(distinct))
			}
		}
		tau := 0.05 + rng.Float64()*7.95
		check("random", weights, 1+rng.Intn(20000), tau)
		check("total below n", weights, 1+rng.Intn(n), tau)
	}
	// Equal weights over a multiple of n: every count exact, k = 0.
	for _, n := range []int{1, 7, 64} {
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.5
		}
		check("k=0", weights, 3*n, 1.7)
		check("one short of a multiple", weights, 3*n-1, 1.7)
	}
	if zeroK == 0 || ties == 0 || belowN == 0 {
		t.Fatalf("cases not reached: k=0 %d times, boundary ties %d, total < n %d", zeroK, ties, belowN)
	}
}
