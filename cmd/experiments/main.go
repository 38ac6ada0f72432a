// Command experiments regenerates every table and figure from the paper's
// evaluation against a calibrated synthetic world. Run with -list to see
// the experiment ids, or -run all (the default) to produce the full set.
//
// Absolute numbers come from the synthetic substrate, but the shape of
// each result — who wins, orderings, correlation signs and strengths — is
// expected to track the published values, which are printed alongside.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"github.com/webdep/webdep/internal/analysis"
	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/divergence"
	"github.com/webdep/webdep/internal/emd"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/report"
	"github.com/webdep/webdep/internal/stats"
	"github.com/webdep/webdep/internal/vantage"
	"github.com/webdep/webdep/internal/worldgen"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "world seed")
		sites   = flag.Int("sites", 2000, "sites per country")
		run     = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		geoErr  = flag.Bool("geoerr", false, "enable the 10.6% geolocation error model")
		subsetF = flag.String("countries", "", "comma-separated country subset (default: all 150)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "per-country measurement/scoring concurrency (results are identical for any value)")
		fromStr = flag.String("from-store", "", "load the measured corpus from an on-disk corpus store instead of building and measuring a world")
	)
	flag.Parse()

	h := newHarness(*seed, *sites, *geoErr, splitList(*subsetF), *workers)
	h.fromStore = *fromStr
	if *list {
		for _, id := range h.ids() {
			fmt.Printf("%-14s %s\n", id, h.experiments[id].desc)
		}
		return
	}
	ids := splitList(*run)
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = h.ids()
	}
	for _, id := range ids {
		exp, ok := h.experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("\n### %s — %s\n\n", id, exp.desc)
		if err := exp.run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

type experiment struct {
	desc string
	run  func() error
}

// harness lazily builds and caches the world, corpora, classifications and
// dependency graph shared by the experiments.
type harness struct {
	seed        int64
	sites       int
	geoErr      bool
	subset      []string
	workers     int
	fromStore   string
	experiments map[string]experiment

	world   *worldgen.World
	corpus  *dataset.Corpus
	corpus2 *dataset.Corpus
	class   map[countries.Layer]*classify.Result
	graph   *depgraph.Graph
}

func newHarness(seed int64, sites int, geoErr bool, subset []string, workers int) *harness {
	h := &harness{seed: seed, sites: sites, geoErr: geoErr, subset: subset, workers: workers,
		class: map[countries.Layer]*classify.Result{}}
	h.experiments = map[string]experiment{
		"fig1":         {"Top-N metric shortcoming: provider rank curves for AZ/HK/TH/IR", h.fig1},
		"fig2":         {"Worked EMD example: two countries, closed form vs exact solver", h.fig2},
		"fig3":         {"Example centralization scores for synthetic distributions", h.fig3},
		"fig4":         {"Usage and endemicity curves: global vs regional provider", h.fig4},
		"table5":       {"Hosting centralization by country (Table 5 / Figure 5)", h.table(countries.Hosting, "Table 5: hosting centralization")},
		"table6":       {"DNS centralization by country (Table 6 / Figure 17)", h.table(countries.DNS, "Table 6: DNS centralization")},
		"table7":       {"CA centralization by country (Table 7 / Figure 18)", h.table(countries.CA, "Table 7: CA centralization")},
		"table8":       {"TLD centralization by country (Table 8 / Figure 19)", h.table(countries.TLD, "Table 8: TLD centralization")},
		"table1":       {"Hosting provider classes (Table 1 / Figure 6)", h.classTable(countries.Hosting, "Table 1: hosting provider classes")},
		"table2":       {"DNS provider classes (Table 2)", h.classTable(countries.DNS, "Table 2: DNS provider classes")},
		"table3":       {"CA classes (Table 3)", h.classTable(countries.CA, "Table 3: CA classes")},
		"fig7":         {"Hosting class share breakdown per country (Figure 7)", h.breakdown(countries.Hosting, "Figure 7: hosting class breakdown")},
		"fig14":        {"DNS class share breakdown per country (Figure 14)", h.breakdown(countries.DNS, "Figure 14: DNS class breakdown")},
		"fig15":        {"CA class share breakdown per country (Figure 15)", h.breakdown(countries.CA, "Figure 15: CA class breakdown")},
		"fig16":        {"TLD kind breakdown per country (Figure 16)", h.fig16},
		"fig8":         {"Regional dependence on other continents (Figure 8a/8b/8c)", h.fig8},
		"fig9":         {"Centralization across layers and subregions (Figure 9)", h.fig9},
		"fig10":        {"Insularity across layers and subregions (Figure 10)", h.fig10},
		"fig11":        {"CDF of insularity across layers (Figure 11)", h.fig11},
		"fig12":        {"Centralization histograms by layer + global marker (Figure 12)", h.fig12},
		"fig13":        {"Insularity by country per layer (Figures 13, 20, 21, 22)", h.fig13},
		"correlations": {"Class-share and insularity correlations with centralization (§5)", h.correlations},
		"casestudies":  {"Cross-border dependence case studies (§5.3.3)", h.casestudies},
		"longitudinal": {"Two-epoch change: drift, churn, Cloudflare growth (§5.4)", h.longitudinal},
		"vantage":      {"Vantage-point validation via distributed probes (§3.4)", h.vantageExp},
		"divergence":   {"f-divergence saturation vs EMD discrimination (§3.1)", h.divergenceExp},
		"tld":          {"TLD layer study (Appendix B)", h.tldStudy},
		"summary":      {"Per-layer headline aggregates (𝒮̄, var, extremes, insularity)", h.summary},
		"coverage":     {"Provider coverage: 90% of sites on how many providers (§5.1)", h.coverage},
		"interpret":    {"DOJ-style interpretation bands applied to all layers (§3.2)", h.interpret},
		"calibration":  {"Deviation of measured scores from the published Appendix F values", h.calibration},
		"tails":        {"Long-tail provider share per country (§5.1's tail comparison)", h.tails},
		"topproviders": {"Top-10 hosting provider breakdown for the §5.1 anchor countries", h.topProviders},
		"continents":   {"Centralization by continent (the color coding of Figures 5/17-19)", h.continents},
		"spof":         {"Single points of failure: transitive blast-radius ranking + worst-case what-if", h.spof},
		"transitive":   {"Transitive vs direct centralization on the provider dependency graph", h.transitive},
	}
	return h
}

func (h *harness) ids() []string {
	out := make([]string, 0, len(h.experiments))
	for id := range h.experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (h *harness) getWorld() (*worldgen.World, error) {
	if h.world != nil {
		return h.world, nil
	}
	cfg := worldgen.Config{Seed: h.seed, SitesPerCountry: h.sites, Countries: h.subset}
	if h.geoErr {
		cfg.GeoErrorRate = 0.106
	}
	fmt.Fprintf(os.Stderr, "building world (seed=%d, sites=%d)...\n", h.seed, h.sites)
	w, err := worldgen.Build(cfg)
	if err != nil {
		return nil, err
	}
	h.world = w
	return w, nil
}

func (h *harness) getCorpus() (*dataset.Corpus, error) {
	if h.corpus != nil {
		return h.corpus, nil
	}
	if h.fromStore != "" {
		st, err := corpusstore.Open(h.fromStore, &corpusstore.Options{Workers: h.workers})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "loading corpus from store %s (epoch %s, %d sites)...\n",
			h.fromStore, st.Epoch(), st.TotalSites())
		corpus, err := st.Load()
		if err != nil {
			return nil, err
		}
		h.corpus = corpus
		return corpus, nil
	}
	w, err := h.getWorld()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "measuring world through the pipeline (%d workers)...\n", h.workers)
	corpus, err := h.pipeline(w).MeasureWorld(w)
	if err != nil {
		return nil, err
	}
	h.corpus = corpus
	return corpus, nil
}

func (h *harness) pipeline(w *worldgen.World) *pipeline.Pipeline {
	p := pipeline.FromWorld(w)
	p.Workers = h.workers
	return p
}

func (h *harness) getSecondEpoch() (*dataset.Corpus, error) {
	if h.corpus2 != nil {
		return h.corpus2, nil
	}
	w, err := h.getWorld()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "generating and measuring the 2025-05 epoch...")
	next, err := worldgen.BuildNextEpoch(w, "2025-05")
	if err != nil {
		return nil, err
	}
	corpus, err := h.pipeline(w).MeasureWorld(next)
	if err != nil {
		return nil, err
	}
	h.corpus2 = corpus
	return corpus, nil
}

func (h *harness) getClass(layer countries.Layer) (*classify.Result, error) {
	if res, ok := h.class[layer]; ok {
		return res, nil
	}
	corpus, err := h.getCorpus()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "classifying %v providers...\n", layer)
	res, err := classify.Layer(corpus, layer, classify.DefaultOptions())
	if err != nil {
		return nil, err
	}
	h.class[layer] = res
	return res, nil
}

func (h *harness) getGraph() (*depgraph.Graph, error) {
	if h.graph == nil {
		corpus, err := h.getCorpus()
		if err != nil {
			return nil, err
		}
		h.graph = depgraph.Build(corpus, &depgraph.Options{Workers: h.workers})
	}
	return h.graph, nil
}

func (h *harness) fig1() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	ccs := []string{"AZ", "HK", "TH", "IR"}
	var present []string
	for _, cc := range ccs {
		if corpus.Get(cc) != nil {
			present = append(present, cc)
		}
	}
	if len(present) == 0 {
		return fmt.Errorf("fig1 countries absent from subset")
	}
	report.RankCurves(os.Stdout, "Figure 1: cumulative share by provider rank", corpus, countries.Hosting, present, 15)
	fmt.Println()
	for _, cc := range present {
		d := corpus.ScoreSet().DistributionOf(cc, countries.Hosting)
		fmt.Printf("%s: top-5 share %.1f%%  S = %.4f\n", cc, d.TopNShare(5)*100, d.Score())
	}
	fmt.Println("\npaper: AZ and HK both have top-5 = 59% yet differ in S (0.1743 vs 0.1180).")
	return nil
}

func (h *harness) fig2() error {
	countryA := []int{7, 5, 4, 3, 2, 1, 1, 1, 1}
	countryB := []int{10, 6, 3, 2, 1, 1, 1, 1}
	fmt.Println("Figure 2: worked EMD example (25 websites each)")
	for name, counts := range map[string][]int{"Country A": countryA, "Country B": countryB} {
		closed := emd.CentralizationInts(counts)
		exact, err := emd.ReferenceEMD(counts)
		if err != nil {
			return err
		}
		fmt.Printf("  %s: counts %v  closed-form S = %.4f  exact transportation EMD = %.4f\n",
			name, counts, closed, exact)
	}
	fmt.Println("  paper reports EMD 0.28 (A) vs 0.32 (B): B is more centralized, as here.")
	return nil
}

func (h *harness) fig3() error {
	fmt.Println("Figure 3: example S values for synthetic 10K-site distributions")
	shapes := []struct {
		name  string
		theta float64
	}{
		{"near-monopoly", 3.0}, {"heavy head", 1.8}, {"zipf", 1.2},
		{"mild skew", 0.9}, {"soft", 0.6}, {"flat-ish", 0.3}, {"uniform tail", 0.05},
	}
	for _, shape := range shapes {
		d := core.NewDistribution()
		for i := 0; i < 2000; i++ {
			weight := math.Pow(float64(i+1), -shape.theta)
			d.Add(fmt.Sprintf("p%d", i), math.Max(1, weight*10000))
		}
		fmt.Printf("  %-14s S = %.3f (%s)\n", shape.name, d.Score(), core.Interpret(d.Score()))
	}
	fmt.Println("  paper's reference curves span S = 0.818 down to 0.001.")
	return nil
}

func (h *harness) fig4() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	curves := corpus.ScoreSet().UsageCurves(countries.Hosting)
	global, ok := curves["Cloudflare"]
	if !ok {
		return fmt.Errorf("Cloudflare missing")
	}
	report.UsageCurve(os.Stdout, "Figure 4a: global provider (Cloudflare)", global)
	regional, ok := curves["Beget LLC"]
	if !ok {
		// Subset worlds may not include Russia; fall back to any high-E_R
		// provider.
		for name, c := range curves {
			if c.EndemicityRatio() > 0.9 && c.Usage() > 5 {
				regional, ok = c, true
				fmt.Printf("(Beget absent; using %s)\n", name)
				break
			}
		}
	}
	if ok {
		report.UsageCurve(os.Stdout, "Figure 4b: regional provider (Beget LLC)", regional)
	}
	fmt.Println("paper: regional providers have higher endemicity ratios than global ones.")
	return nil
}

func (h *harness) table(layer countries.Layer, title string) func() error {
	return func() error {
		corpus, err := h.getCorpus()
		if err != nil {
			return err
		}
		report.ScoreTable(os.Stdout, title, analysis.SortedScores(corpus, layer), layer)
		return nil
	}
}

func (h *harness) classTable(layer countries.Layer, title string) func() error {
	return func() error {
		res, err := h.getClass(layer)
		if err != nil {
			return err
		}
		report.ClassTable(os.Stdout, title, res)
		fmt.Printf("affinity propagation clusters: %d (paper: 305 hosting clusters)\n", res.Clusters)
		return nil
	}
}

func (h *harness) breakdown(layer countries.Layer, title string) func() error {
	return func() error {
		corpus, err := h.getCorpus()
		if err != nil {
			return err
		}
		res, err := h.getClass(layer)
		if err != nil {
			return err
		}
		report.ClassBreakdown(os.Stdout, title, corpus, layer, res)
		return nil
	}
}

func (h *harness) fig16() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	report.TLDBreakdown(os.Stdout, "Figure 16: TLD kind breakdown per country", analysis.TLDBreakdowns(corpus))
	return nil
}

func (h *harness) fig8() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	continents := []string{"NA", "EU", "AS", "SA", "AF", "OC"}
	report.DependenceMatrix(os.Stdout, "Figure 8a: hosting provider H.Q. continent",
		analysis.ContinentDependence(corpus, analysis.ByProviderHQ), continents)
	fmt.Println()
	report.DependenceMatrix(os.Stdout, "Figure 8b: serving IP geolocation continent",
		analysis.ContinentDependence(corpus, analysis.ByIPGeolocation), continents)
	fmt.Println()
	report.DependenceMatrix(os.Stdout, "Figure 8c: DNS nameserver geolocation (anycast broken out)",
		analysis.ContinentDependence(corpus, analysis.ByNSGeolocation), append([]string{"anycast"}, continents...))
	return nil
}

func (h *harness) fig9() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	for _, layer := range countries.Layers {
		report.SubregionTable(os.Stdout,
			fmt.Sprintf("Figure 9 (%s): centralization by subregion", layer),
			analysis.BySubregion(corpus.ScoreSet().Scores(layer)))
		fmt.Println()
	}
	return nil
}

func (h *harness) fig10() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	for _, layer := range countries.Layers {
		report.SubregionTable(os.Stdout,
			fmt.Sprintf("Figure 10 (%s): insularity by subregion", layer),
			analysis.BySubregion(corpus.ScoreSet().Insularities(layer)))
		fmt.Println()
	}
	return nil
}

func (h *harness) fig11() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	for _, layer := range countries.Layers {
		report.CDF(os.Stdout, fmt.Sprintf("Figure 11 (%s): insularity CDF", layer),
			analysis.InsularityCDF(corpus, layer))
		fmt.Println()
	}
	return nil
}

func (h *harness) fig12() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	for _, layer := range countries.Layers {
		hist, marker := analysis.ScoreHistogram(corpus, layer, 13)
		report.Histogram(os.Stdout, fmt.Sprintf("Figure 12 (%s): centralization histogram", layer), hist, marker)
		fmt.Println()
	}
	return nil
}

func (h *harness) fig13() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	titles := map[countries.Layer]string{
		countries.Hosting: "Figure 20: hosting insularity by country",
		countries.DNS:     "Figure 21: DNS insularity by country",
		countries.CA:      "Figure 13: CA insularity by country",
		countries.TLD:     "Figure 22: TLD insularity by country",
	}
	for _, layer := range countries.Layers {
		report.InsularityTable(os.Stdout, titles[layer], analysis.SortedInsularity(corpus, layer))
		fmt.Println()
	}
	return nil
}

func (h *harness) correlations() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	cls, err := h.getClass(countries.Hosting)
	if err != nil {
		return err
	}
	cors, err := analysis.ClassCorrelations(corpus, cls)
	if err != nil {
		return err
	}
	report.Correlations(os.Stdout, "Section 5 correlation battery", cors)
	return nil
}

func (h *harness) casestudies() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	report.CaseStudies(os.Stdout, "Section 5.3.3 cross-border dependence", analysis.CaseStudies(corpus))
	return nil
}

func (h *harness) longitudinal() error {
	a, err := h.getCorpus()
	if err != nil {
		return err
	}
	b, err := h.getSecondEpoch()
	if err != nil {
		return err
	}
	res, err := analysis.Longitudinal(a, b)
	if err != nil {
		return err
	}
	report.Longitudinal(os.Stdout, res)
	return nil
}

func (h *harness) vantageExp() error {
	w, err := h.getWorld()
	if err != nil {
		return err
	}
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	res, err := vantage.Validate(w, corpus, vantage.Options{Seed: h.seed})
	if err != nil {
		return err
	}
	fmt.Printf("probe-vs-primary hosting score correlation: rho = %.3f (p = %.2e)\n", res.Rho, res.PValue)
	fmt.Printf("countries measured through random foreign probes: %d\n", len(res.CountriesWithoutProbes))
	fmt.Println("paper: rho = 0.96, p << 0.05, with 14 no-probe countries.")
	return nil
}

func (h *harness) divergenceExp() error {
	mild := []float64{3, 3, 2, 2}
	wild := []float64{9, 1}
	reference := make([]float64, 10)
	for i := range reference {
		reference[i] = 1
	}
	fmt.Println("f-divergences saturate on the disjoint decentralized reference;")
	fmt.Println("EMD (the centralization score) still discriminates:")
	fmt.Printf("%-22s %10s %10s\n", "measure", "mild", "wild")
	type fn struct {
		name string
		f    func(p, q []float64) (float64, error)
	}
	for _, m := range []fn{
		{"Jensen-Shannon", divergence.JensenShannon},
		{"Hellinger", divergence.Hellinger},
		{"Total variation", divergence.TotalVariation},
	} {
		pm, qm := divergence.DisjointSupport(mild, reference)
		dm, err := m.f(pm, qm)
		if err != nil {
			return err
		}
		pw, qw := divergence.DisjointSupport(wild, reference)
		dw, err := m.f(pw, qw)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %10.4f %10.4f\n", m.name, dm, dw)
	}
	pm, qm := divergence.DisjointSupport(mild, reference)
	kl, err := divergence.KL(pm, qm)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %10v %10v\n", "KL", kl, "+Inf")
	fmt.Printf("%-22s %10.4f %10.4f\n", "EMD (S)", emd.Centralization(mild), emd.Centralization(wild))
	return nil
}

func (h *harness) tldStudy() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	study, err := analysis.StudyTLD(corpus)
	if err != nil {
		return err
	}
	fmt.Printf("mean TLD centralization: %.4f (paper: 0.3262)\n", study.MeanScore)
	fmt.Printf("hosting<->TLD insularity correlation: rho = %.3f (p = %.2e; paper: 0.70)\n",
		study.HostingTLDInsularityRho, study.PValue)
	return nil
}

func (h *harness) summary() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	sums := analysis.SummarizeLayers(corpus)
	report.LayerSummaries(os.Stdout, "Per-layer headline aggregates", sums)
	fmt.Println("\npaper: hosting 0.1429 (var 0.003), DNS 0.1379, CA 0.2007 (var 0.0007), TLD 0.3262.")
	return nil
}

func (h *harness) coverage() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	worst := 0
	worstCC := ""
	for _, cc := range corpus.Countries() {
		n := corpus.ScoreSet().DistributionOf(cc, countries.Hosting).ProvidersForCoverage(0.90)
		if n > worst {
			worst, worstCC = n, cc
		}
	}
	fmt.Printf("90%% of websites are hosted by fewer than %d providers in every country (max: %s)\n",
		worst+1, worstCC)
	fmt.Println("paper: fewer than 206 providers in every country.")
	return nil
}

func (h *harness) calibration() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %12s %10s\n", "Layer", "max |ΔS|", "mean |ΔS|", "rho")
	for _, layer := range countries.Layers {
		scores := corpus.ScoreSet().Scores(layer)
		var xs, ys []float64
		var maxAbs, sumAbs float64
		n := 0
		for cc, got := range scores {
			c, ok := countries.ByCode(cc)
			if !ok {
				continue
			}
			want := c.PaperScore[layer]
			d := math.Abs(got - want)
			if d > maxAbs {
				maxAbs = d
			}
			sumAbs += d
			n++
			xs = append(xs, got)
			ys = append(ys, want)
		}
		rho, err := stats.Pearson(xs, ys)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %12.5f %12.5f %10.5f\n", layer, maxAbs, sumAbs/float64(n), rho)
	}
	fmt.Println("\nmeasured through the full enrichment pipeline; deviations are integer")
	fmt.Println("quantization at the configured toplist length plus profile-shape limits.")
	return nil
}

func (h *harness) tails() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	// §5.1: providers with fewer than 100 sites in the dataset host 17% of
	// Iran's top sites but only 8% of Thailand's. At 2000-site lists the
	// equivalent cut scales to 100·(sites/10000).
	cut := float64(h.sites) / 100
	fmt.Printf("long-tail share: providers with < %d sites in a country's list\n\n", int(cut))
	fmt.Printf("%-4s %10s %10s\n", "CC", "tailShare", "S")
	rows := analysis.SortedScores(corpus, countries.Hosting)
	for _, row := range rows {
		dist := corpus.ScoreSet().DistributionOf(row.Code, countries.Hosting)
		var tail float64
		for _, ps := range dist.Ranked() {
			if ps.Count < cut {
				tail += ps.Share
			}
		}
		fmt.Printf("%-4s %9.1f%% %10.4f\n", row.Code, tail*100, row.Value)
	}
	fmt.Println("\npaper: tail providers host 17% of Iran's sites vs 8% of Thailand's.")
	return nil
}

func (h *harness) continents() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	for _, layer := range countries.Layers {
		report.SubregionTable(os.Stdout,
			fmt.Sprintf("Centralization by continent (%s)", layer),
			analysis.ByContinent(corpus.ScoreSet().Scores(layer)))
		fmt.Println()
	}
	fmt.Println("paper: Europe consistently least centralized in hosting/DNS but most")
	fmt.Println("centralized at the CA layer; North America most centralized in TLDs.")
	return nil
}

func (h *harness) topProviders() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	anchors := []string{"TH", "US", "IR", "BG", "LT", "JP"}
	for _, cc := range anchors {
		dist := corpus.ScoreSet().DistributionOf(cc, countries.Hosting)
		if dist == nil {
			continue
		}
		fmt.Printf("%s (S = %.4f, %d providers):\n", cc, dist.Score(), dist.NumProviders())
		for i, ps := range dist.Top(10) {
			fmt.Printf("  #%-2d %-28s %6.1f%%\n", i+1, ps.Provider, ps.Share*100)
		}
		fmt.Println()
	}
	fmt.Println("paper anchors: TH top provider 60%, US 29%, IR 14%; SuperHosting.BG and")
	fmt.Println("UAB second in Bulgaria and Lithuania (22%); Japan led by Amazon.")
	return nil
}

// spof ranks the corpus's single points of failure on the provider
// dependency graph, annotates each with its hosting class, and simulates
// the worst one failing — the blast-radius analysis the paper's
// per-layer scores cannot express.
func (h *harness) spof() error {
	g, err := h.getGraph()
	if err != nil {
		return err
	}
	cls, err := h.getClass(countries.Hosting)
	if err != nil {
		return err
	}
	spofs := g.TopSPOFs(10)
	report.SPOFTable(os.Stdout, "Top single points of failure (transitive blast radius)", spofs)
	if len(spofs) == 0 {
		return nil
	}
	fmt.Println()
	for _, s := range spofs {
		fmt.Printf("  %-24s hosting class %s\n", s.Provider, cls.ClassOf(s.Provider))
	}
	imp, err := g.Simulate(spofs[0].Provider)
	if err != nil {
		return err
	}
	fmt.Println()
	report.ImpactTable(os.Stdout, fmt.Sprintf("what-if: %s fails", spofs[0].Provider), imp)
	return nil
}

// transitive compares direct per-layer centralization with the
// transitive scores computed on the dependency graph: how much more
// centralized each layer looks once a provider's own dependencies are
// folded in.
func (h *harness) transitive() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	g, err := h.getGraph()
	if err != nil {
		return err
	}
	st := g.Stats()
	fmt.Printf("provider graph: %d nodes, %d provider edges, %d site-edge columns, %d SCCs\n\n",
		st.Nodes, st.ProviderEdges, st.SiteEdges, st.ClosureSCCs)
	fmt.Printf("%-8s %10s %12s %10s\n", "Layer", "direct S̄", "transitive S̄", "mean Δ")
	for _, layer := range []countries.Layer{countries.Hosting, countries.DNS, countries.CA} {
		direct := corpus.ScoreSet().Scores(layer)
		trans := g.TransitiveScores(layer)
		var dxs, txs []float64
		for _, cc := range corpus.Countries() {
			dxs = append(dxs, direct[cc])
			txs = append(txs, trans[cc])
		}
		dm, tm := stats.Mean(dxs), stats.Mean(txs)
		fmt.Printf("%-8s %10.4f %12.4f %+10.4f\n", layer, dm, tm, tm-dm)
	}
	fmt.Println()
	rows := analysis.SortedTransitiveScores(g, countries.Hosting)
	fmt.Println("most transitively centralized in hosting:")
	for i, row := range rows {
		if i >= 10 {
			break
		}
		fmt.Printf("  %2d. %-4s %-24s %8.4f\n", i+1, row.Code, row.Name, row.Value)
	}
	fmt.Println("\ntransitive scores fold a provider's own dependencies into every site")
	fmt.Println("that uses it; with no inferred provider edges they equal the direct scores.")
	return nil
}

func (h *harness) interpret() error {
	corpus, err := h.getCorpus()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %12s %12s\n", "Layer", "competitive", "moderate", "high")
	for _, layer := range countries.Layers {
		var comp, mod, high int
		for _, s := range corpus.ScoreSet().Scores(layer) {
			switch core.Interpret(s) {
			case core.Competitive:
				comp++
			case core.ModeratelyConcentrated:
				mod++
			default:
				high++
			}
		}
		fmt.Printf("%-8s %12d %12d %12d\n", layer, comp, mod, high)
	}
	fmt.Println("\nDOJ bands: competitive <0.10, moderately concentrated 0.10-0.18, highly >0.18.")
	return nil
}
