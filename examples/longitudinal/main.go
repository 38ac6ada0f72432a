// Longitudinal analysis: generate two measurement epochs (May 2023 and
// May 2025), measure both, and reproduce the paper's Section 5.4 findings —
// strongly correlated centralization (ρ ≈ 0.98), toplist churn (Jaccard
// ≈ 0.37), broad Cloudflare growth with Brazil the biggest gainer, and
// Russia's move toward domestic providers.
//
//	go run ./examples/longitudinal
//	go run ./examples/longitudinal -sites 3000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/webdep/webdep/internal/analysis"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/report"
	"github.com/webdep/webdep/internal/worldgen"
)

func main() {
	var (
		sites = flag.Int("sites", 1500, "sites per country")
		seed  = flag.Int64("seed", 1, "world seed")
	)
	flag.Parse()

	ccs := []string{
		"BR", "RU", "TM", "US", "TH", "CZ", "SK", "IR", "JP", "FR",
		"DE", "GB", "IN", "KG", "BY", "UZ", "MM", "PL", "MX", "NG",
	}
	w, err := worldgen.Build(worldgen.Config{Seed: *seed, SitesPerCountry: *sites, Countries: ccs})
	if err != nil {
		fail(err)
	}
	epochA, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		fail(err)
	}
	next, err := worldgen.BuildNextEpoch(w, "2025-05")
	if err != nil {
		fail(err)
	}
	epochB, err := pipeline.FromWorld(w).MeasureWorld(next)
	if err != nil {
		fail(err)
	}

	res, err := analysis.Longitudinal(epochA, epochB)
	if err != nil {
		fail(err)
	}
	report.Longitudinal(os.Stdout, res)

	fmt.Println("\nPer-country movement (hosting):")
	fmt.Printf("%-4s %9s %9s %8s %12s\n", "CC", "2023-05", "2025-05", "delta", "CF delta pts")
	type move struct {
		cc   string
		a, b float64
	}
	moves := make([]move, len(ccs))
	for i, cc := range ccs {
		a, _ := epochA.ScoreSet().Standing(cc, countries.Hosting)
		b, _ := epochB.ScoreSet().Standing(cc, countries.Hosting)
		moves[i] = move{cc, a.Score, b.Score}
	}
	sort.SliceStable(moves, func(i, j int) bool { return moves[i].b-moves[i].a > moves[j].b-moves[j].a })
	for _, m := range moves {
		fmt.Printf("%-4s %9.4f %9.4f %+8.4f %+12.1f\n",
			m.cc, m.a, m.b, m.b-m.a, res.CloudflareDelta[m.cc])
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "longitudinal:", err)
	os.Exit(1)
}
