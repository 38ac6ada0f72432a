// Country report: a full dependence profile for one country across all
// four infrastructure layers, using the calibrated synthetic world.
//
//	go run ./examples/country-report -country TH
//	go run ./examples/country-report -country IR -sites 3000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

func main() {
	var (
		cc    = flag.String("country", "TH", "ISO country code")
		sites = flag.Int("sites", 2000, "toplist length")
		seed  = flag.Int64("seed", 1, "world seed")
	)
	flag.Parse()
	code := strings.ToUpper(*cc)
	country, ok := countries.ByCode(code)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown country %q\n", code)
		os.Exit(2)
	}

	// Build only this country (plus the countries it depends on, which the
	// generator instantiates automatically).
	w, err := worldgen.Build(worldgen.Config{
		Seed: *seed, SitesPerCountry: *sites, Countries: []string{code},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	corpus, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	list := corpus.Get(code)

	fmt.Printf("Dependence report: %s (%s, %s)\n", country.Name, country.Region, country.Continent)
	fmt.Printf("%d popular websites measured\n\n", len(list.Sites))

	for _, layer := range countries.Layers {
		dist := list.Distribution(layer)
		fmt.Printf("--- %s layer ---\n", layer)
		fmt.Printf("  centralization S = %.4f (%s; paper: %.4f)\n",
			dist.Score(), core.Interpret(dist.Score()), country.PaperScore[layer])
		fmt.Printf("  insularity       = %.1f%%\n", list.Insularity(layer).Fraction()*100)
		fmt.Printf("  providers        = %d (90%% of sites on %d)\n",
			dist.NumProviders(), dist.ProvidersForCoverage(0.90))
		for i, ps := range dist.Top(5) {
			fmt.Printf("  #%d %-28s %6.1f%%\n", i+1, ps.Provider, ps.Share*100)
		}
		if layer == countries.Hosting {
			fmt.Println("  cross-border dependence:")
			for _, dep := range list.CrossDependence(layer).Top(3) {
				fmt.Printf("     %-4s %6.1f%%\n", dep.Provider, dep.Share*100)
			}
		}
		fmt.Println()
	}
}
