package main

import (
	"testing"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"  ", nil},
		{"a,b,c", []string{"a", "b", "c"}},
		{" a , ,b ", []string{"a", "b"}},
	}
	for _, c := range cases {
		got := splitList(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("splitList(%q) = %v", c.in, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("splitList(%q) = %v", c.in, got)
			}
		}
	}
}

func TestHarnessIDsStable(t *testing.T) {
	h := newHarness(1, 100, false, nil, 0)
	ids := h.ids()
	if len(ids) != len(h.experiments) {
		t.Fatalf("ids = %d, experiments = %d", len(ids), len(h.experiments))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("ids not sorted")
		}
	}
	// Every DESIGN.md regeneration target must exist.
	for _, want := range []string{
		"fig1", "fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"table1", "table2", "table3", "table5", "table6", "table7", "table8",
		"correlations", "casestudies", "longitudinal", "vantage",
		"divergence", "tld", "summary", "coverage",
	} {
		if _, ok := h.experiments[want]; !ok {
			t.Errorf("experiment %q missing", want)
		}
	}
}

// TestWorldFreeExperiments runs the experiments that need no world build
// (pure-computation regenerations) end to end.
func TestWorldFreeExperiments(t *testing.T) {
	h := newHarness(1, 100, false, nil, 0)
	for _, id := range []string{"fig2", "fig3", "divergence"} {
		if err := h.experiments[id].run(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// TestTinyWorldExperiments drives the world-backed experiments against a
// minimal world so the whole harness stays covered by `go test`.
func TestTinyWorldExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-world harness run")
	}
	h := newHarness(3, 200, false, []string{"TH", "IR", "US", "CZ", "AZ", "HK", "RU", "SK"}, 4)
	for _, id := range []string{
		"summary", "fig1", "fig2", "table5", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig16", "casestudies", "continents", "correlations",
		"coverage", "interpret", "calibration", "tails", "tld", "transitive",
		"longitudinal", "vantage",
	} {
		if err := h.experiments[id].run(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}
