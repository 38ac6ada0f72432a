package cluster

import (
	"math"
	"math/rand"
	"testing"
)

func TestTwoObviousClusters(t *testing.T) {
	// Two tight blobs far apart must yield exactly two clusters with the
	// right membership.
	var points [][]float64
	for i := 0; i < 10; i++ {
		points = append(points, []float64{0 + 0.01*float64(i), 0})
	}
	for i := 0; i < 10; i++ {
		points = append(points, []float64{10 + 0.01*float64(i), 10})
	}
	res, err := Points(points, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 2 {
		t.Fatalf("NumClusters = %d, want 2 (exemplars %v)", res.NumClusters(), res.Exemplars)
	}
	// All of the first blob shares a cluster; likewise the second; and they
	// differ.
	first := res.Assignment[0]
	for i := 1; i < 10; i++ {
		if res.Assignment[i] != first {
			t.Fatalf("blob 1 split: %v", res.Assignment)
		}
	}
	second := res.Assignment[10]
	for i := 11; i < 20; i++ {
		if res.Assignment[i] != second {
			t.Fatalf("blob 2 split: %v", res.Assignment)
		}
	}
	if first == second {
		t.Fatal("blobs merged")
	}
	if !res.Converged {
		t.Error("expected convergence on a trivial instance")
	}
}

func TestThreeClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	centers := [][]float64{{0, 0}, {8, 0}, {4, 7}}
	var points [][]float64
	for _, c := range centers {
		for i := 0; i < 15; i++ {
			points = append(points, []float64{
				c[0] + rng.NormFloat64()*0.3,
				c[1] + rng.NormFloat64()*0.3,
			})
		}
	}
	res, err := Points(points, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 3 {
		t.Fatalf("NumClusters = %d, want 3", res.NumClusters())
	}
	// Every blob must be internally consistent.
	for b := 0; b < 3; b++ {
		want := res.Assignment[b*15]
		for i := 1; i < 15; i++ {
			if res.Assignment[b*15+i] != want {
				t.Fatalf("blob %d split: %v", b, res.Assignment)
			}
		}
	}
}

func TestPreferenceControlsGranularity(t *testing.T) {
	// More negative preference → fewer clusters. Points along a line.
	var points [][]float64
	for i := 0; i < 30; i++ {
		points = append(points, []float64{float64(i), 0})
	}
	loose := DefaultOptions()
	loose.Preference = -1 // near-zero penalty: many exemplars
	resLoose, err := Points(points, loose)
	if err != nil {
		t.Fatal(err)
	}
	tight := DefaultOptions()
	tight.Preference = -5000 // heavy penalty: few exemplars
	resTight, err := Points(points, tight)
	if err != nil {
		t.Fatal(err)
	}
	if resLoose.NumClusters() <= resTight.NumClusters() {
		t.Errorf("granularity not controlled by preference: loose %d vs tight %d",
			resLoose.NumClusters(), resTight.NumClusters())
	}
}

func TestSinglePoint(t *testing.T) {
	res, err := Points([][]float64{{1, 2}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 1 || res.Assignment[0] != 0 {
		t.Fatalf("single point: %+v", res)
	}
}

func TestEmptyInput(t *testing.T) {
	if _, err := Points(nil, DefaultOptions()); err != ErrEmptyInput {
		t.Errorf("want ErrEmptyInput, got %v", err)
	}
}

func TestBadOptions(t *testing.T) {
	pts := [][]float64{{0}, {1}}
	opts := DefaultOptions()
	opts.Damping = 0.3
	if _, err := Points(pts, opts); err == nil {
		t.Error("damping below 0.5 accepted")
	}
	opts.Damping = 1.0
	if _, err := Points(pts, opts); err == nil {
		t.Error("damping of 1.0 accepted")
	}
}

func TestNonSquareMatrixRejected(t *testing.T) {
	sim := [][]float64{{0, -1}, {0}}
	if _, err := AffinityPropagation(sim, DefaultOptions()); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestIdenticalPointsSingleCluster(t *testing.T) {
	points := make([][]float64, 8)
	for i := range points {
		points[i] = []float64{3, 3}
	}
	res, err := Points(points, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 1 {
		t.Errorf("identical points formed %d clusters", res.NumClusters())
	}
}

func TestNegSquaredEuclidean(t *testing.T) {
	s := NegSquaredEuclidean([][]float64{{0, 0}, {3, 4}})
	if s[0][0] != 0 || s[1][1] != 0 {
		t.Error("self-similarity should start at 0")
	}
	if math.Abs(s[0][1]-(-25)) > 1e-12 || math.Abs(s[1][0]-(-25)) > 1e-12 {
		t.Errorf("similarity = %v, want -25", s[0][1])
	}
}

func TestExemplarsAreOwnClusterMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var points [][]float64
	for i := 0; i < 40; i++ {
		points = append(points, []float64{rng.Float64() * 10, rng.Float64() * 10})
	}
	res, err := Points(points, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for c, e := range res.Exemplars {
		if res.Assignment[e] != c {
			t.Errorf("exemplar %d not assigned to its own cluster %d", e, c)
		}
	}
	// Every assignment must reference a valid cluster.
	for i, a := range res.Assignment {
		if a < 0 || a >= res.NumClusters() {
			t.Errorf("point %d has invalid assignment %d", i, a)
		}
	}
}
