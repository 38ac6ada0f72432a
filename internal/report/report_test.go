package report

import (
	"bytes"
	"strings"
	"testing"

	"github.com/webdep/webdep/internal/analysis"
	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

func corpusForReport(t *testing.T) *dataset.Corpus {
	t.Helper()
	w, err := worldgen.Build(worldgen.Config{
		Seed:               13,
		SitesPerCountry:    400,
		Countries:          []string{"TH", "US", "CZ", "IR", "FR", "RU"},
		DomesticPerCountry: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func TestScoreTable(t *testing.T) {
	corpus := corpusForReport(t)
	var buf bytes.Buffer
	ScoreTable(&buf, "Table 5: hosting", analysis.SortedScores(corpus, countries.Hosting), countries.Hosting)
	out := buf.String()
	for _, want := range []string{"Table 5: hosting", "Thailand", "paper S", "TH"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Six data rows plus two header lines plus title.
	if lines := strings.Count(out, "\n"); lines != 9 {
		t.Errorf("line count = %d", lines)
	}
}

func TestInsularityAndSubregionTables(t *testing.T) {
	corpus := corpusForReport(t)
	var buf bytes.Buffer
	InsularityTable(&buf, "Fig 20", analysis.SortedInsularity(corpus, countries.Hosting))
	if !strings.Contains(buf.String(), "United States") {
		t.Error("insularity table missing US")
	}
	buf.Reset()
	SubregionTable(&buf, "Fig 9", analysis.BySubregion(corpus.ScoreSet().Scores(countries.Hosting)))
	if !strings.Contains(buf.String(), "South-eastern Asia") {
		t.Error("subregion table missing SE Asia")
	}
}

func TestHistogramAndCDF(t *testing.T) {
	corpus := corpusForReport(t)
	var buf bytes.Buffer
	h, marker := analysis.ScoreHistogram(corpus, countries.Hosting, 13)
	Histogram(&buf, "Fig 12a", h, marker)
	if !strings.Contains(buf.String(), "global top-10k") {
		t.Error("histogram missing marker annotation")
	}
	buf.Reset()
	CDF(&buf, "Fig 11", analysis.InsularityCDF(corpus, countries.Hosting))
	if !strings.Contains(buf.String(), "P(X<=x)") {
		t.Error("CDF missing header")
	}
}

func TestDependenceClassAndTLD(t *testing.T) {
	corpus := corpusForReport(t)
	var buf bytes.Buffer
	m := analysis.ContinentDependence(corpus, analysis.ByProviderHQ)
	DependenceMatrix(&buf, "Fig 8a", m, []string{"NA", "EU", "AS", "SA", "AF", "OC"})
	if !strings.Contains(buf.String(), "NA") {
		t.Error("dependence matrix missing continent header")
	}

	cls, err := classify.Layer(corpus, countries.Hosting, classify.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	ClassTable(&buf, "Table 1", cls)
	if !strings.Contains(buf.String(), "XL-GP") || !strings.Contains(buf.String(), "Cloudflare") {
		t.Errorf("class table incomplete:\n%s", buf.String())
	}
	buf.Reset()
	ClassBreakdown(&buf, "Fig 7", corpus, countries.Hosting, cls)
	if !strings.Contains(buf.String(), "TH") {
		t.Error("class breakdown missing TH")
	}
	buf.Reset()
	TLDBreakdown(&buf, "Fig 16", analysis.TLDBreakdowns(corpus))
	if !strings.Contains(buf.String(), "Local ccTLD") {
		t.Error("TLD breakdown missing kind header")
	}
}

func TestCorrelationsCaseStudiesLongitudinal(t *testing.T) {
	corpus := corpusForReport(t)
	var buf bytes.Buffer
	Correlations(&buf, "Correlations", []analysis.Correlation{
		{Label: "test", Rho: 0.9, PValue: 1e-10, Strength: "strong", PaperRho: 0.90},
	})
	if !strings.Contains(buf.String(), "strong") {
		t.Error("correlations table missing strength")
	}
	buf.Reset()
	CaseStudies(&buf, "Case studies", analysis.CaseStudies(corpus))
	if !strings.Contains(buf.String(), "measured") {
		t.Error("case studies missing header")
	}
	buf.Reset()
	Longitudinal(&buf, &analysis.LongitudinalResult{
		EpochA: "a", EpochB: "b", Rho: 0.98, MeanJaccard: 0.37,
		LargestIncrease: analysis.CountryScore{Code: "BR", Value: 0.09},
		LargestDecrease: analysis.CountryScore{Code: "RU", Value: -0.005},
	})
	if !strings.Contains(buf.String(), "Jaccard") {
		t.Error("longitudinal render missing Jaccard")
	}
}

func TestRankCurvesAndUsageCurve(t *testing.T) {
	corpus := corpusForReport(t)
	var buf bytes.Buffer
	RankCurves(&buf, "Fig 1", corpus, countries.Hosting, []string{"TH", "IR"}, 10)
	out := buf.String()
	if !strings.Contains(out, "TH") || !strings.Contains(out, "IR") {
		t.Error("rank curves missing countries")
	}
	buf.Reset()
	UsageCurve(&buf, "Fig 4", core.NewUsageCurve([]float64{60, 40, 10, 5, 0, 0}))
	if !strings.Contains(buf.String(), "E_R") {
		t.Error("usage curve missing metrics")
	}
}

func TestLayerSummaries(t *testing.T) {
	corpus := corpusForReport(t)
	var sums []analysis.LayerSummary
	for _, l := range countries.Layers {
		sums = append(sums, analysis.SummarizeLayer(corpus, l))
	}
	var buf bytes.Buffer
	LayerSummaries(&buf, "Summary", sums)
	out := buf.String()
	for _, want := range []string{"hosting", "dns", "ca", "tld"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %s", want)
		}
	}
}

func TestHelpers(t *testing.T) {
	if got := trunc("abcdef", 4); got != "abc…" {
		t.Errorf("trunc = %q", got)
	}
	if got := trunc("ab", 4); got != "ab" {
		t.Errorf("trunc short = %q", got)
	}
	if got := bar(0.5, 1, 10); got != "#####" {
		t.Errorf("bar = %q", got)
	}
	if got := bar(2, 1, 10); got != "##########" {
		t.Errorf("bar clamp = %q", got)
	}
	if got := bar(1, 0, 10); got != "" {
		t.Errorf("bar zero max = %q", got)
	}
}

func TestCoverageTable(t *testing.T) {
	c := dataset.NewCorpus("2023-05")
	healthy := &dataset.Coverage{Country: "TH"}
	for i := 0; i < 10; i++ {
		healthy.Observe(dataset.SiteOutcome{
			Host: dataset.StatusOK, NS: dataset.StatusOK,
			CA: dataset.StatusOK, Language: dataset.StatusSkipped,
		})
	}
	lossy := &dataset.Coverage{Country: "US", Degraded: true}
	for i := 0; i < 10; i++ {
		o := dataset.SiteOutcome{Host: dataset.StatusOK, NS: dataset.StatusOK, CA: dataset.StatusOK}
		if i < 5 {
			o.NS = dataset.StatusLost
		}
		lossy.Observe(o)
	}
	c.SetCoverage(healthy)
	c.SetCoverage(lossy)

	var buf bytes.Buffer
	CoverageTable(&buf, "Crawl coverage", c)
	out := buf.String()
	for _, want := range []string{"Crawl coverage", "TH", "US", "DEGRADED", "50.0%", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "DEGRADED") != 1 {
		t.Errorf("DEGRADED marker count wrong:\n%s", out)
	}

	// A fast-path corpus renders a placeholder, not an empty table.
	var empty bytes.Buffer
	CoverageTable(&empty, "Crawl coverage", dataset.NewCorpus("x"))
	if !strings.Contains(empty.String(), "no coverage accounting") {
		t.Errorf("placeholder missing:\n%s", empty.String())
	}
}
