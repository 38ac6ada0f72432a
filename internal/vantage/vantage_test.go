package vantage

import (
	"testing"

	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

func TestValidateHighCorrelation(t *testing.T) {
	w, err := worldgen.Build(worldgen.Config{
		Seed:            11,
		SitesPerCountry: 1000,
		Countries: []string{
			"TH", "ID", "US", "CZ", "SK", "RU", "IR", "JP", "BR", "FR",
			"DE", "GB", "IN", "NG", "TM", "SY", "KR", "MX", "PL", "TR",
		},
		DomesticPerCountry: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	primary, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Validate(w, primary, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports ρ = 0.96 with p ≪ 0.05.
	if res.Rho < 0.90 {
		t.Errorf("rho = %v, paper reports 0.96", res.Rho)
	}
	if res.Rho > 0.9999 {
		t.Errorf("rho = %v; probe view should differ at least slightly", res.Rho)
	}
	if res.PValue > 0.05 {
		t.Errorf("p = %v, want ≪ 0.05", res.PValue)
	}
	// TM and SY are in the no-probe list.
	found := map[string]bool{}
	for _, cc := range res.CountriesWithoutProbes {
		found[cc] = true
	}
	if !found["TM"] || !found["SY"] {
		t.Errorf("no-probe countries = %v", res.CountriesWithoutProbes)
	}
}

func TestValidateDeterministic(t *testing.T) {
	w, err := worldgen.Build(worldgen.Config{
		Seed:               11,
		SitesPerCountry:    400,
		Countries:          []string{"US", "TH", "CZ"},
		DomesticPerCountry: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	primary, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Validate(w, primary, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Validate(w, primary, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rho != b.Rho {
		t.Errorf("same seed, different rho: %v vs %v", a.Rho, b.Rho)
	}
}
