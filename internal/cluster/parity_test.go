package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// Point generators for the parity test and the benchmark. Each returns n
// two-dimensional points in roughly the unit square, like the min-max
// scaled (usage, endemicity-ratio) features classify feeds the kernel.
var pointShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) [][]float64
}{
	{"uniform", func(rng *rand.Rand, n int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64()}
		}
		return pts
	}},
	{"heavy-tailed", heavyTailedPoints},
	{"duplicate-heavy", func(rng *rand.Rand, n int) [][]float64 {
		// Five distinct locations shared by all n points: most pairs are
		// exact ties, which only the jitter separates.
		sites := [][]float64{{0, 0}, {1, 1}, {0.5, 0.5}, {0.5, 0.25}, {0, 1}}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = sites[rng.Intn(len(sites))]
		}
		return pts
	}},
	{"collinear", func(_ *rand.Rand, n int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			x := float64(i) / float64(n)
			pts[i] = []float64{x, 2 * x}
		}
		return pts
	}},
}

// heavyTailedPoints mimics a provider population: log-normal usage (a few
// giants, a long tail crowded near zero) and an endemicity ratio of exactly
// 1 for the seven in ten providers seen in a single country. The crowd of
// near-ties at (≈0, 1) is what keeps real runs from converging.
func heavyTailedPoints(rng *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	hi := 0.0
	for i := range pts {
		u := math.Exp(2 * rng.NormFloat64())
		hi = math.Max(hi, u)
		e := 1.0
		if rng.Float64() > 0.7 {
			e = rng.Float64()
		}
		pts[i] = []float64{u, e}
	}
	for _, p := range pts {
		p[0] /= hi
	}
	return pts
}

// checkParity runs the production kernel and the reference on the same
// points and requires equal results and bit-equal messages; it returns the
// production result.
func checkParity(t *testing.T, name string, pts [][]float64, opts Options) *Result {
	t.Helper()
	n := len(pts)
	sim := NegSquaredEuclidean(pts)
	got, gotErr := AffinityPropagation(sim, opts)
	wantResp, wantAvail := newMatrix(n), newMatrix(n)
	want, wantErr := affinityReference(NegSquaredEuclidean(pts), wantResp, wantAvail, opts)
	if gotErr != nil || wantErr != nil {
		t.Fatalf("%s: errors %v / %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: kernel differs from reference\n got: %d exemplars, %d iterations, converged=%v\nwant: %d exemplars, %d iterations, converged=%v",
			name, len(got.Exemplars), got.Iterations, got.Converged,
			len(want.Exemplars), want.Iterations, want.Converged)
	}
	if got.Iterations == 0 {
		return got // degenerate input: the loop never ran
	}
	// The discrete outputs seldom notice a last-bit difference, so the
	// messages are compared too. AffinityPropagation prepared sim in place;
	// running the loop alone over it replays the same messages. A run that
	// stopped on convergence has already run ahead to the next round's
	// responsibilities, so only its availabilities line up.
	resp, avail := newMatrix(n), newMatrix(n)
	propagate(sim, resp, avail, opts)
	requireSameBits(t, name+": availabilities", avail, wantAvail)
	if !got.Converged {
		requireSameBits(t, name+": responsibilities", resp, wantResp)
	}
	return got
}

func requireSameBits(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	for i := range want {
		for k := range want[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				t.Errorf("%s differ at (%d,%d): %v vs %v", name, i, k, got[i][k], want[i][k])
				return
			}
		}
	}
}

// TestKernelMatchesReference holds the one-pass kernel to the two-sweep
// reference: same Exemplars, Assignment, Iterations and Converged over
// sizes, point shapes, damping factors, preferences, runs that converge
// early and runs cut off by MaxIterations. The sweep must include both
// kinds of run, or it is not testing what it says.
func TestKernelMatchesReference(t *testing.T) {
	type grid struct {
		sizes    []int
		shapes   []string // nil: every shape
		dampings []float64
		caps     []int
		prefs    []float64
	}
	nan := math.NaN()
	grids := []grid{
		{sizes: []int{2, 3, 7, 64}, dampings: []float64{0.5, 0.7, 0.8, 0.95}, caps: []int{1, 2, 100, 300}, prefs: []float64{nan, -0.5}},
		{sizes: []int{200}, dampings: []float64{0.8}, caps: []int{100, 300}, prefs: []float64{nan}},
		{sizes: []int{200}, shapes: []string{"heavy-tailed"}, dampings: []float64{0.5, 0.95}, caps: []int{300}, prefs: []float64{nan, -0.5}},
		// The production shape: classify clusters 600 providers at damping
		// 0.8 and runs into the 300-round cap.
		{sizes: []int{600}, shapes: []string{"heavy-tailed"}, dampings: []float64{0.8}, caps: []int{300}, prefs: []float64{nan}},
		{sizes: []int{600}, shapes: []string{"uniform", "duplicate-heavy"}, dampings: []float64{0.5}, caps: []int{2, 100}, prefs: []float64{nan}},
	}
	var early, capped int
	for _, g := range grids {
		for _, shape := range pointShapes {
			if g.shapes != nil && !slices.Contains(g.shapes, shape.name) {
				continue
			}
			for _, n := range g.sizes {
				pts := shape.gen(rand.New(rand.NewSource(int64(n))), n)
				for _, damping := range g.dampings {
					for _, maxIter := range g.caps {
						for _, pref := range g.prefs {
							opts := DefaultOptions()
							opts.Damping, opts.MaxIterations, opts.Preference = damping, maxIter, pref
							name := fmt.Sprintf("%s n=%d damping=%v cap=%d pref=%v", shape.name, n, damping, maxIter, pref)
							res := checkParity(t, name, pts, opts)
							if res.Converged {
								early++
							} else if res.Iterations == maxIter {
								capped++
							}
						}
					}
				}
			}
		}
	}
	if early == 0 || capped == 0 {
		t.Errorf("sweep covered %d early-converged and %d capped runs; need both", early, capped)
	}
}

// TestKernelMatchesReferenceDegenerate covers the two paths around the
// loop: input with no gradient, which never enters it, and a run that ends
// with no exemplar and takes the summed-similarity fallback.
func TestKernelMatchesReferenceDegenerate(t *testing.T) {
	same := make([][]float64, 9)
	for i := range same {
		same[i] = []float64{0.25, 0.75}
	}
	if res := checkParity(t, "all-equal", same, DefaultOptions()); res.Iterations != 0 || len(res.Exemplars) != 1 {
		t.Errorf("all-equal input entered the loop: %+v", res)
	}

	pts := pointShapes[0].gen(rand.New(rand.NewSource(5)), 40)
	opts := DefaultOptions()
	opts.Preference = -1e9
	for _, maxIter := range []int{1, 2} {
		opts.MaxIterations = maxIter
		checkParity(t, fmt.Sprintf("no-exemplar cap=%d", maxIter), pts, opts)
		// AffinityPropagation prepares sim in place, so a second look at
		// the loop alone shows that the case does reach the fallback.
		sim := NegSquaredEuclidean(pts)
		if _, err := AffinityPropagation(sim, opts); err != nil {
			t.Fatal(err)
		}
		n := len(pts)
		if ex, _, _ := propagate(sim, newMatrix(n), newMatrix(n), opts); len(ex) != 0 {
			t.Errorf("cap=%d: loop found exemplars %v; the case does not reach the fallback", maxIter, ex)
		}
	}
}

var benchSink *Result

// BenchmarkAffinityPropagation prices the kernel at classify's production
// shape: 600 heavy-tailed points that run into the 300-round cap. The
// ns/pair-iter metric is time per (i,k) message pair per round, so it can
// be compared across sizes and caps.
func BenchmarkAffinityPropagation(b *testing.B) {
	const n = 600
	pts := heavyTailedPoints(rand.New(rand.NewSource(n)), n)
	opts := DefaultOptions()
	opts.Damping = 0.8
	var pairIters float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim := NegSquaredEuclidean(pts) // consumed: the kernel rewrites its diagonal
		b.StartTimer()
		res, err := AffinityPropagation(sim, opts)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
		pairIters += float64(n * n * res.Iterations)
	}
	if benchSink.Converged {
		b.Fatalf("benchmark input converged after %d rounds; it is meant to hit the cap", benchSink.Iterations)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairIters, "ns/pair-iter")
}
