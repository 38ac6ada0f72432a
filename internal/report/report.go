// Package report renders analysis results as aligned text tables and ASCII
// figures — the regeneration targets for every table and figure in the
// paper. Each renderer writes to an io.Writer so commands can compose them.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/webdep/webdep/internal/analysis"
	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/fedcrawl"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/stats"
	"github.com/webdep/webdep/internal/tldinfo"
)

// StatsTable renders an observability snapshot: counters, gauges with their
// high-watermarks, and latency histograms with count/mean/quantiles. Empty
// sections are omitted; an entirely empty snapshot prints a placeholder so
// -stats output is never silently blank.
func StatsTable(w io.Writer, title string, snap obs.Snapshot) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	if len(snap.Counters) == 0 && len(snap.Gauges) == 0 && len(snap.Histograms) == 0 {
		fmt.Fprintln(w, "(no instruments recorded)")
		return
	}
	if len(snap.Counters) > 0 {
		fmt.Fprintf(w, "%-36s %12s\n", "counter", "value")
		for _, c := range snap.Counters {
			fmt.Fprintf(w, "%-36s %12d\n", c.Name, c.Value)
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintf(w, "%-36s %12s %12s\n", "gauge", "value", "max")
		for _, g := range snap.Gauges {
			fmt.Fprintf(w, "%-36s %12d %12d\n", g.Name, g.Value, g.Max)
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintf(w, "%-36s %9s %9s %9s %9s %9s %9s %9s\n",
			"histogram", "count", "mean", "p50", "p90", "p99", "min", "max")
		for _, h := range snap.Histograms {
			if h.Count == 0 {
				fmt.Fprintf(w, "%-36s %9d %9s %9s %9s %9s %9s %9s\n",
					h.Name, 0, "-", "-", "-", "-", "-", "-")
				continue
			}
			fmt.Fprintf(w, "%-36s %9d %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f\n",
				h.Name, h.Count, h.Mean(),
				h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99),
				h.Min, h.Max)
		}
	}
}

// ScoreTable renders a Tables 5–8 style listing: rank, country, 𝒮, with
// the published value alongside for comparison.
func ScoreTable(w io.Writer, title string, rows []analysis.CountryScore, layer countries.Layer) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%4s  %-4s %-24s %-20s %9s %9s\n", "Rank", "CC", "Country", "Region", "S", "paper S")
	for i, row := range rows {
		c, _ := countries.ByCode(row.Code)
		fmt.Fprintf(w, "%4d  %-4s %-24s %-20s %9.4f %9.4f\n",
			i+1, row.Code, trunc(row.Name, 24), trunc(row.Region, 20), row.Value, c.PaperScore[layer])
	}
}

// InsularityTable renders a Figures 13/20–22 style listing.
func InsularityTable(w io.Writer, title string, rows []analysis.CountryScore) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%4s  %-4s %-24s %9s  %s\n", "Rank", "CC", "Country", "insular", "")
	for i, row := range rows {
		fmt.Fprintf(w, "%4d  %-4s %-24s %8.1f%%  %s\n",
			i+1, row.Code, trunc(row.Name, 24), row.Value*100, bar(row.Value, 1, 30))
	}
}

// CoverageTable renders a live crawl's measurement-loss accounting: one
// row per country with the per-field coverage fractions, the number of
// probes lost to transient failures, and a DEGRADED marker for countries
// below the crawl's minimum coverage.
func CoverageTable(w io.Writer, title string, corpus *dataset.Corpus) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	if len(corpus.CoverageByCountry) == 0 {
		fmt.Fprintln(w, "(no coverage accounting: corpus was not produced by a live crawl)")
		return
	}
	ccs := make([]string, 0, len(corpus.CoverageByCountry))
	for cc := range corpus.CoverageByCountry {
		ccs = append(ccs, cc)
	}
	sort.Strings(ccs)
	fmt.Fprintf(w, "%-4s %6s %7s %7s %7s %7s %6s  %s\n",
		"CC", "sites", "host", "dns", "ca", "lang", "lost", "status")
	for _, cc := range ccs {
		cov := corpus.CoverageByCountry[cc]
		status := "ok"
		if cov.Degraded {
			status = "DEGRADED"
		}
		fmt.Fprintf(w, "%-4s %6d %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6d  %s\n",
			cc, cov.Sites,
			cov.Host.Fraction()*100, cov.NS.Fraction()*100,
			cov.CA.Fraction()*100, cov.Language.Fraction()*100,
			cov.Lost(), status)
	}
}

// DisagreementTable renders a federated merge's cross-vantage agreement:
// one row per country with its merged key count, how many keys were probed
// by two or more workers, how many of those disagreed (with per-field diff
// counts), and the disagreement rate over the overlap. A merge with no
// overlapping probes prints a placeholder so the section is never silently
// blank.
func DisagreementTable(w io.Writer, title string, d *fedcrawl.Disagreement) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	if d == nil || d.Overlap() == 0 {
		fmt.Fprintln(w, "(no overlapping probes: every key was measured by a single vantage)")
		return
	}
	fmt.Fprintf(w, "%-4s %6s %8s %9s %6s %6s %6s %6s %7s\n",
		"CC", "keys", "overlap", "disagree", "host", "dns", "ca", "lang", "rate")
	for _, c := range d.PerCountry {
		fmt.Fprintf(w, "%-4s %6d %8d %9d %6d %6d %6d %6d %6.1f%%\n",
			c.Country, c.Keys, c.Overlap, c.Disagree,
			c.Diffs.Host, c.Diffs.DNS, c.Diffs.CA, c.Diffs.Language, c.Rate()*100)
	}
}

// SubregionTable renders Figures 9/10 aggregates.
func SubregionTable(w io.Writer, title string, aggs []analysis.RegionAggregate) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-20s %-4s %3s %8s %8s %8s\n", "Subregion", "Cont", "n", "mean", "min", "max")
	for _, a := range aggs {
		fmt.Fprintf(w, "%-20s %-4s %3d %8.4f %8.4f %8.4f\n",
			trunc(a.Region, 20), a.Continent, a.Countries, a.Mean, a.Min, a.Max)
	}
}

// Histogram renders a Figure 12 style histogram with the global-toplist
// marker.
func Histogram(w io.Writer, title string, h *stats.Histogram, marker float64) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		maxCount = 1
	}
	binWidth := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		lo := h.Lo + float64(i)*binWidth
		hi := lo + binWidth
		markerFlag := ""
		if marker >= lo && marker < hi {
			markerFlag = fmt.Sprintf("  <-- global top-10k (S=%.4f)", marker)
		}
		fmt.Fprintf(w, "%s %4d %s%s\n", h.BinLabel(i), c,
			strings.Repeat("#", c*40/maxCount), markerFlag)
	}
}

// CDF renders a Figure 11 style CDF as step points.
func CDF(w io.Writer, title string, cdf *stats.ECDF) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%10s %10s\n", "insularity", "P(X<=x)")
	xs, ps := cdf.Points()
	for i := range xs {
		fmt.Fprintf(w, "%10.4f %10.4f\n", xs[i], ps[i])
	}
}

// DependenceMatrix renders Figure 8's subregion × continent shares.
func DependenceMatrix(w io.Writer, title string, m *analysis.DependenceMatrix, targets []string) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-20s", "Subregion")
	for _, target := range targets {
		fmt.Fprintf(w, " %7s", target)
	}
	fmt.Fprintln(w)
	regions := make([]string, 0, len(m.Shares))
	for region := range m.Shares {
		regions = append(regions, region)
	}
	sort.Strings(regions)
	for _, region := range regions {
		fmt.Fprintf(w, "%-20s", trunc(region, 20))
		for _, target := range targets {
			fmt.Fprintf(w, " %6.1f%%", m.Shares[region][target]*100)
		}
		fmt.Fprintln(w)
	}
}

// ClassTable renders Tables 1/2/3: providers per class with an example.
func ClassTable(w io.Writer, title string, res *classify.Result) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-10s %9s  %s\n", "Class", "Providers", "Example (largest by usage)")
	examples := map[classify.Class]string{}
	for _, f := range res.Features { // features are usage-sorted
		if _, ok := examples[f.Class]; !ok {
			examples[f.Class] = f.Provider
		}
	}
	counts := res.Counts()
	for _, class := range classify.Order {
		if counts[class] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s %9d  %s\n", class, counts[class], examples[class])
	}
}

// ClassBreakdown renders Figures 7/14/15: per-country class shares sorted
// by centralization.
func ClassBreakdown(w io.Writer, title string, src dataset.Scored, layer countries.Layer, res *classify.Result) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-4s %8s", "CC", "S")
	for _, class := range classify.Order {
		fmt.Fprintf(w, " %8s", class)
	}
	fmt.Fprintln(w)
	ss := src.ScoreSet()
	for _, row := range analysis.SortedScores(ss, layer) {
		breakdown := classify.CountryBreakdownIndexed(ss, row.Code, layer, res)
		fmt.Fprintf(w, "%-4s %8.4f", row.Code, row.Value)
		for _, class := range classify.Order {
			fmt.Fprintf(w, " %7.1f%%", breakdown[class]*100)
		}
		fmt.Fprintln(w)
	}
}

// TLDBreakdown renders Figure 16: per-country TLD-kind shares.
func TLDBreakdown(w io.Writer, title string, rows []analysis.TLDBreakdown) {
	kinds := []tldinfo.Kind{tldinfo.Com, tldinfo.GlobalTLD, tldinfo.LocalCC, tldinfo.ExternalCC}
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-4s %8s", "CC", "S")
	for _, k := range kinds {
		fmt.Fprintf(w, " %16s", k)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-4s %8.4f", row.Country, row.Score)
		for _, k := range kinds {
			fmt.Fprintf(w, " %15.1f%%", row.Shares[k]*100)
		}
		fmt.Fprintln(w)
	}
}

// Correlations renders the Section 5 correlation battery beside the
// published values.
func Correlations(w io.Writer, title string, cors []analysis.Correlation) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-40s %8s %10s %-10s %8s\n", "Correlation", "rho", "p", "strength", "paper")
	for _, c := range cors {
		fmt.Fprintf(w, "%-40s %8.3f %10.2e %-10s %8.2f\n",
			c.Label, c.Rho, c.PValue, c.Strength, c.PaperRho)
	}
}

// CaseStudies renders Section 5.3.3's cross-border dependencies.
func CaseStudies(w io.Writer, title string, deps []analysis.CrossDep) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-4s %-4s %10s %10s\n", "CC", "on", "measured", "paper")
	for _, d := range deps {
		fmt.Fprintf(w, "%-4s %-4s %9.1f%% %9.1f%%\n",
			d.Country, d.OnCountry, d.Share*100, d.PaperShare*100)
	}
}

// Longitudinal renders the Section 5.4 comparison.
func Longitudinal(w io.Writer, res *analysis.LongitudinalResult) {
	fmt.Fprintf(w, "Longitudinal change %s -> %s\n", res.EpochA, res.EpochB)
	fmt.Fprintf(w, "  score correlation rho = %.3f (p=%.2e; paper: 0.98)\n", res.Rho, res.PValue)
	fmt.Fprintf(w, "  mean toplist Jaccard  = %.3f (paper: 0.37)\n", res.MeanJaccard)
	fmt.Fprintf(w, "  mean Cloudflare delta = %+.1f pts (paper: +3.8)\n", res.MeanCloudflareDelta)
	fmt.Fprintf(w, "  largest increase: %s (%+.4f; paper: Brazil +0.0908)\n",
		res.LargestIncrease.Code, res.LargestIncrease.Value)
	fmt.Fprintf(w, "  largest decrease: %s (%+.4f; paper: Russia -0.0055)\n",
		res.LargestDecrease.Code, res.LargestDecrease.Value)
}

// RankCurves renders Figure 1: cumulative share by provider rank for a set
// of countries.
func RankCurves(w io.Writer, title string, src dataset.Scored, layer countries.Layer, ccs []string, maxRank int) {
	ss := src.ScoreSet()
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%4s", "rank")
	for _, cc := range ccs {
		fmt.Fprintf(w, " %7s", cc)
	}
	fmt.Fprintln(w)
	curves := make([][]float64, len(ccs))
	for i, cc := range ccs {
		curves[i] = ss.DistributionOf(cc, layer).RankCurve()
	}
	for r := 0; r < maxRank; r++ {
		fmt.Fprintf(w, "%4d", r+1)
		for _, curve := range curves {
			if r < len(curve) {
				fmt.Fprintf(w, " %6.1f%%", curve[r]*100)
			} else {
				fmt.Fprintf(w, " %7s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// UsageCurve renders a Figure 4 style usage curve with its metrics.
func UsageCurve(w io.Writer, title string, curve core.UsageCurve) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "usage U = %.1f   endemicity E = %.1f   ratio E_R = %.3f   peak = %.1f%%\n",
		curve.Usage(), curve.Endemicity(), curve.EndemicityRatio(), curve.Peak())
	vals := curve.Values()
	step := len(vals) / 25
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(vals); i += step {
		fmt.Fprintf(w, "%4d %6.2f%% %s\n", i+1, vals[i], bar(vals[i], 100, 40))
	}
}

// LayerSummaries renders one line per layer of headline aggregates.
func LayerSummaries(w io.Writer, title string, sums []analysis.LayerSummary) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-8s %8s %9s %8s %9s %-14s %-14s %9s\n",
		"Layer", "mean", "variance", "median", "globalS", "most", "least", "mean ins")
	for _, s := range sums {
		fmt.Fprintf(w, "%-8s %8.4f %9.5f %8.4f %9.4f %-4s %8.4f %-4s %8.4f %8.1f%%\n",
			s.Layer, s.Mean, s.Variance, s.Median, s.GlobalTop,
			s.MostCode, s.MostValue, s.LeastCode, s.LeastValue, s.MeanInsular*100)
	}
}

func bar(v, max float64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
