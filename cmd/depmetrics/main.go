// Command depmetrics computes the paper's dependence metrics over released
// per-country CSV datasets (the format cmd/webdep exports). It is the
// standalone adoption path: point it at data, get centralization,
// insularity, top-N, HHI, and provider breakdowns without touching the
// synthetic world.
//
// Usage:
//
//	depmetrics -layer hosting data/2023-05/TH.csv data/2023-05/IR.csv
//	depmetrics -layer ca -top 10 data/2023-05/*.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
)

func main() {
	var (
		layerName = flag.String("layer", "hosting", "layer: hosting, dns, ca, or tld")
		topN      = flag.Int("top", 5, "providers to list per country")
		epoch     = flag.String("epoch", "unknown", "epoch label for loaded files")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: depmetrics [-layer L] [-top N] file.csv...")
		os.Exit(2)
	}
	layer, err := parseFlags(*layerName, *topN)
	if err != nil {
		fmt.Fprintln(os.Stderr, "depmetrics:", err)
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := report(os.Stdout, path, *epoch, layer, *topN); err != nil {
			fmt.Fprintf(os.Stderr, "depmetrics: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

// parseFlags resolves -layer and checks -top; its error is a usage error.
func parseFlags(name string, topN int) (countries.Layer, error) {
	if topN < 0 {
		return 0, fmt.Errorf("-top needs a provider count of 0 or more, got %d", topN)
	}
	for _, layer := range countries.Layers {
		if layer.String() == name {
			return layer, nil
		}
	}
	return 0, fmt.Errorf("unknown layer %q (want hosting, dns, ca, or tld)", name)
}

func report(w io.Writer, path, epoch string, layer countries.Layer, topN int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	list, err := dataset.ReadCSV(f, epoch)
	if err != nil {
		return err
	}
	dist := list.Distribution(layer)
	ins := list.Insularity(layer)

	fmt.Fprintf(w, "%s (%s layer, %d sites, %d providers)\n",
		list.Country, layer, int(dist.Total()), dist.NumProviders())
	fmt.Fprintf(w, "  centralization S = %.4f (%s)   HHI = %.4f\n",
		dist.Score(), core.Interpret(dist.Score()), dist.HHI())
	fmt.Fprintf(w, "  top-%d share = %.1f%%   90%% coverage needs %d providers   insularity = %.1f%%\n",
		topN, dist.TopNShare(topN)*100, dist.ProvidersForCoverage(0.90), ins.Fraction()*100)
	for i, ps := range dist.Top(topN) {
		fmt.Fprintf(w, "  #%d %-28s %6.1f%%\n", i+1, ps.Provider, ps.Share*100)
	}
	return nil
}
