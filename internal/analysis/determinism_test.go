package analysis

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

// fingerprint renders every number the score-only analyses return as IEEE
// bits, labelled by the row it belongs to, so two results compare bit for
// bit (0 and -0 differ, and so does the last ulp of a mean).
func fingerprint(t *testing.T, ss dataset.Scored, cls *classify.Result) []string {
	t.Helper()
	var out []string
	add := func(label string, xs ...float64) {
		for _, x := range xs {
			out = append(out, fmt.Sprintf("%s %016x", label, math.Float64bits(x)))
		}
	}
	addAggs := func(kind string, aggs []RegionAggregate) {
		for _, a := range aggs {
			add(fmt.Sprintf("%s %s/%s/%d", kind, a.Region, a.Continent, a.Countries), a.Mean, a.Min, a.Max)
		}
	}
	for _, layer := range countries.Layers {
		addAggs(layer.String()+" subregion score", BySubregion(SortedScores(ss, layer)))
		addAggs(layer.String()+" subregion insularity", BySubregion(SortedInsularity(ss, layer)))
		addAggs(layer.String()+" continent score", ByContinent(SortedScores(ss, layer)))
	}
	for _, s := range SummarizeLayers(ss) {
		add(fmt.Sprintf("summary %v %s %s", s.Layer, s.MostCode, s.LeastCode),
			s.Mean, s.Variance, s.Median, s.GlobalTop, s.MostValue, s.LeastValue, s.MeanInsular)
	}
	study, err := StudyTLD(ss)
	if err != nil {
		t.Fatal(err)
	}
	add("tld study", study.MeanScore, study.HostingTLDInsularityRho, study.PValue)
	cors, err := ClassCorrelations(ss, cls)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cors {
		add(c.Label, c.Rho, c.PValue)
	}
	return out
}

// TestAnalysesSameBitsEveryCall holds the per-country reductions to one
// country order: on a world with four to six countries in each of four
// subregions, every aggregate is bit-identical across 20 calls on one
// corpus and across corpora measured at 1 and 4 workers. A reduction that
// ranges over a map sums in hash order and flips the last bits of a mean
// from call to call.
func TestAnalysesSameBitsEveryCall(t *testing.T) {
	w, err := worldgen.Build(worldgen.Config{
		Seed:            7,
		SitesPerCountry: 150,
		Countries: []string{
			"AT", "BE", "CH", "DE", "FR", "NL", // Western Europe
			"BG", "CZ", "HU", "PL", "RO", "SK", // Eastern Europe
			"ID", "MY", "PH", "SG", "TH", // South-eastern Asia
			"AE", "IL", "JO", "QA", "SA", // Western Asia
		},
		DomesticPerCountry: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(workers int) *dataset.Corpus {
		p := pipeline.FromWorld(w)
		p.Workers = workers
		c, err := p.MeasureWorld(w)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := measure(1)
	cls, err := classify.Layer(serial, countries.Hosting, classify.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, serial, cls)
	for i := 0; i < 20; i++ {
		if got := fingerprint(t, serial, cls); !slices.Equal(got, want) {
			t.Fatalf("call %d differs from the first:\n%s", i+2, firstDiff(got, want))
		}
	}
	if got := fingerprint(t, measure(4), cls); !slices.Equal(got, want) {
		t.Fatalf("4-worker corpus differs from the serial one:\n%s", firstDiff(got, want))
	}
}

func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(got), len(want))
}

// TestAggregatesTieByName holds groups with equal means to name order.
func TestAggregatesTieByName(t *testing.T) {
	rows := []CountryScore{
		{Code: "NL", Region: "Western Europe", Continent: "EU", Value: 0.2},
		{Code: "PL", Region: "Eastern Europe", Continent: "EU", Value: 0.2},
		{Code: "TH", Region: "South-eastern Asia", Continent: "AS", Value: 0.2},
		{Code: "KZ", Region: "Central Asia", Continent: "AS", Value: 0.2},
	}
	var regions, continents []string
	for _, a := range BySubregion(rows) {
		regions = append(regions, a.Region)
	}
	for _, a := range ByContinent(rows) {
		continents = append(continents, a.Region)
	}
	if want := []string{"Central Asia", "Eastern Europe", "South-eastern Asia", "Western Europe"}; !slices.Equal(regions, want) {
		t.Errorf("BySubregion order %v, want %v", regions, want)
	}
	if want := []string{"AS", "EU"}; !slices.Equal(continents, want) {
		t.Errorf("ByContinent order %v, want %v", continents, want)
	}
}
