package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanBasics(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance singleton = %v, want 0", got)
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Fatalf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
	if got := Median(xs); got != 3 {
		t.Errorf("Median odd = %v, want 3", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v, want 0", got)
	}
	// Median must not mutate its input.
	orig := []float64{9, 1, 5}
	Median(orig)
	if orig[0] != 9 || orig[1] != 1 || orig[2] != 5 {
		t.Errorf("Median mutated input: %v", orig)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	rho, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rho, 1, 1e-12) {
		t.Errorf("rho = %v, want 1", rho)
	}
	neg := []float64{10, 8, 6, 4, 2}
	rho, err = Pearson(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(rho, -1, 1e-12) {
		t.Errorf("rho = %v, want -1", rho)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err != ErrInsufficientData {
		t.Errorf("want ErrInsufficientData, got %v", err)
	}
	// Constant series has zero variance.
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err != ErrInsufficientData {
		t.Errorf("constant series: want ErrInsufficientData, got %v", err)
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		rho, err := Pearson(xs, ys)
		if err != nil {
			return true // degenerate draw; fine
		}
		return rho >= -1-1e-9 && rho <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearsonSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
			ys[i] = rng.Float64() * 10
		}
		a, errA := Pearson(xs, ys)
		b, errB := Pearson(ys, xs)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		return almostEqual(a, b, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrelationStrength(t *testing.T) {
	cases := []struct {
		rho  float64
		want string
	}{
		{0.95, "strong"}, {-0.9, "strong"},
		{0.7, "moderate"}, {-0.61, "moderate"},
		{0.45, "fair"}, {0.30, "fair"},
		{0.1, "poor"}, {0, "poor"},
	}
	for _, c := range cases {
		if got := CorrelationStrength(c.rho); got != c.want {
			t.Errorf("CorrelationStrength(%v) = %q, want %q", c.rho, got, c.want)
		}
	}
}

func TestPearsonPValueBehaviour(t *testing.T) {
	// Strong correlation over 150 countries must be wildly significant.
	if p := PearsonPValue(0.90, 150); p > 1e-10 {
		t.Errorf("p-value for rho=0.9 n=150 = %v, want ≪ 0.05", p)
	}
	// Weak correlation over few points must not be significant.
	if p := PearsonPValue(0.1, 10); p < 0.05 {
		t.Errorf("p-value for rho=0.1 n=10 = %v, want > 0.05", p)
	}
	if p := PearsonPValue(0.5, 2); p != 1 {
		t.Errorf("degenerate n: p = %v, want 1", p)
	}
	if p := PearsonPValue(1, 10); p != 0 {
		t.Errorf("perfect rho: p = %v, want 0", p)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 1},
		{[]string{"a"}, nil, 0},
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3},
		{[]string{"a", "a", "b"}, []string{"b"}, 0.5}, // duplicates collapse
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Jaccard(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardSymmetricProperty(t *testing.T) {
	f := func(a, b []string) bool {
		return almostEqual(Jaccard(a, b), Jaccard(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("ECDF.At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Len() != 4 {
		t.Errorf("Len = %d, want 4", e.Len())
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		e := NewECDF(xs)
		prev := -1.0
		for x := 0.0; x <= 100; x += 5 {
			p := e.At(x)
			if p < prev {
				return false
			}
			prev = p
		}
		return prev <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 1, 2})
	xs, ps := e.Points()
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 2 {
		t.Fatalf("xs = %v", xs)
	}
	if !almostEqual(ps[0], 2.0/3, 1e-12) || ps[1] != 1 {
		t.Fatalf("ps = %v", ps)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	for _, x := range []float64{0.1, 0.1, 0.3, 0.6, 0.9, 1.5, -0.5} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
	// -0.5 clamps to bin 0, 1.5 clamps to bin 3.
	want := []int{3, 1, 1, 2}
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Fatalf("Counts = %v, want %v", h.Counts, want)
		}
	}
	if lbl := h.BinLabel(0); lbl != "[0.000,0.250)" {
		t.Errorf("BinLabel = %q", lbl)
	}
}

func TestHistogramDegenerateConstruction(t *testing.T) {
	h := NewHistogram(5, 5, 0) // hi<=lo and bins<1 both repaired
	h.Add(5)
	if h.Total() != 1 || len(h.Counts) != 1 {
		t.Fatalf("degenerate histogram mishandled: %+v", h)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty-slice accessors should return 0")
	}
}

func TestBootstrapCorrelationCI(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 150
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = 0.9*xs[i] + 0.3*rng.NormFloat64() // strong positive relation
	}
	point, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := BootstrapCorrelationCI(xs, ys, 0.95, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo > point || hi < point {
		t.Errorf("CI [%v, %v] excludes point estimate %v", lo, hi, point)
	}
	if lo < 0.7 {
		t.Errorf("CI lower bound %v implausibly low for a strong relation", lo)
	}
	if hi-lo > 0.3 {
		t.Errorf("CI width %v too wide at n=150", hi-lo)
	}
	// Deterministic given the seed.
	lo2, hi2, err := BootstrapCorrelationCI(xs, ys, 0.95, 500, 1)
	if err != nil || lo2 != lo || hi2 != hi {
		t.Error("bootstrap not deterministic for fixed seed")
	}
}

func TestBootstrapCorrelationCIErrors(t *testing.T) {
	if _, _, err := BootstrapCorrelationCI([]float64{1, 2}, []float64{1}, 0.95, 100, 1); err != ErrLengthMismatch {
		t.Errorf("err = %v", err)
	}
	if _, _, err := BootstrapCorrelationCI([]float64{1, 2}, []float64{3, 4}, 0.95, 100, 1); err != ErrInsufficientData {
		t.Errorf("err = %v", err)
	}
	// Defaults repair invalid confidence/resamples.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2, 4, 5, 8, 10, 13}
	if _, _, err := BootstrapCorrelationCI(xs, ys, -1, -1, 1); err != nil {
		t.Errorf("defaults: %v", err)
	}
}
