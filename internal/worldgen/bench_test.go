package worldgen

import (
	"testing"

	"github.com/webdep/webdep/internal/countries"
)

// BenchmarkBuild generates every study country at 200 sites each.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(Config{Seed: 11, SitesPerCountry: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealize rounds the United States' hosting profile to 10,000
// sites at one tilt, the step calibration repeats up to 18 × 60 times per
// layer and country.
func BenchmarkRealize(b *testing.B) {
	w, err := BuildShell(Config{Seed: 11, Countries: []string{"US"}})
	if err != nil {
		b.Fatal(err)
	}
	us, _ := countries.ByCode("US")
	profile, _ := w.hostingProfile(us, 1.0)
	weights := make([]float64, len(profile))
	for i, p := range profile {
		weights[i] = p.Weight
	}
	var r realizer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		realizeSink = r.realize(weights, 10000, 1.3)
	}
}

var realizeSink []int
