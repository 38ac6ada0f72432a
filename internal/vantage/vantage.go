// Package vantage reproduces the paper's vantage-point validation
// (Section 3.4): re-measure every country's toplist from geographically
// distributed probes (the RIPE Atlas substitute), recompute hosting
// centralization from the probe-observed addresses, and correlate against
// the primary vantage point's scores. The paper reports ρ = 0.96.
//
// The simulation models the two ways an in-country probe's view differs
// from a university vantage point: anycast CDNs map the probe to a
// different front-end POP (same organization, different address), and a
// small fraction of lookups fail or are remapped entirely (probe-local
// resolvers, split-horizon DNS, transient loss).
package vantage

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/stats"
	"github.com/webdep/webdep/internal/worldgen"
)

// ErrUndefinedCorrelation is returned when the probe-vs-primary score
// vectors cannot support a correlation at all: fewer than three countries
// (the p-value approximation divides by n-2) or a constant score vector
// (zero variance makes ρ 0/0). Callers distinguishing "validation failed"
// from "validation impossible on this input" match it with errors.Is.
var ErrUndefinedCorrelation = errors.New("correlation undefined")

// Options tunes the probe simulation.
type Options struct {
	// Seed drives probe randomness.
	Seed int64
	// FailureRate is the fraction of lookups that return nothing
	// (default 0.02).
	FailureRate float64
	// RemapRate is the fraction of anycast-hosted sites whose probe view
	// maps to a different global front-end organization (default 0.015).
	RemapRate float64
}

func (o Options) withDefaults() Options {
	if o.FailureRate == 0 {
		o.FailureRate = 0.05
	}
	if o.RemapRate == 0 {
		o.RemapRate = 0.08
	}
	return o
}

// Result compares the probe measurement against the primary one.
type Result struct {
	// Rho is Pearson's correlation between the primary and probe hosting
	// scores, one pair per country.
	Rho float64
	// PValue is the approximate two-sided p-value for Rho.
	PValue float64
	// CountriesWithoutProbes lists countries measured through random
	// foreign probes (the paper had 14 such countries).
	CountriesWithoutProbes []string
}

// noProbeCountries mirrors the paper's note that 14 countries had no RIPE
// probes; their measurements route through random probes elsewhere, which
// raises their failure/remap rates.
var noProbeCountries = map[string]bool{
	"TM": true, "SY": true, "YE": true, "LY": true, "SD": true, "SO": true,
	"MV": true, "PG": true, "CU": true, "HT": true, "GA": true, "CD": true,
	"MW": true, "LA": true,
}

// Validate re-measures a world from distributed probes and correlates the
// per-country hosting scores with the primary measurement's.
func Validate(w *worldgen.World, primary *dataset.Corpus, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	probe := dataset.NewCorpus(primary.Epoch + "-probes")
	p := pipeline.FromWorld(w)

	var withoutProbes []string
	for _, cc := range w.Config.Countries {
		raw := w.Raw[cc]
		rng := rand.New(rand.NewSource(opts.Seed ^ int64(hash(cc))))
		// Probe quality varies by country: probe density, resolver
		// behavior, and CDN mapping all differ, so the effective noise is
		// heteroscedastic (this is what keeps ρ at 0.96 rather than 1.0).
		quality := 0.2 + 3.0*rng.Float64()
		failure := opts.FailureRate * quality
		remap := opts.RemapRate * quality
		if noProbeCountries[cc] {
			withoutProbes = append(withoutProbes, cc)
			failure *= 3
			remap *= 2
		}
		perturbed := make([]worldgen.RawSite, 0, len(raw))
		for _, site := range raw {
			s := site
			switch {
			case rng.Float64() < failure:
				// Lookup failed at the probe: the site drops out of the
				// distribution, exactly as an unresolved domain does.
				s.HostIP = netip.Addr{}
			case w.Anycast.Contains(s.HostIP) && rng.Float64() < remap:
				// The CDN mapped this probe to a different front-end
				// organization.
				s.HostIP = w.ProviderByName[randomAnycastProvider(w, rng)].Prefix.Addr().Next()
			}
			perturbed = append(perturbed, s)
		}
		probe.Add(p.EnrichCountry(cc, probe.Epoch, perturbed))
	}

	primarySet, probeSet := primary.ScoreSet(), probe.ScoreSet()
	var xs, ys []float64
	for _, cc := range w.Config.Countries {
		a, _ := primarySet.Standing(cc, countries.Hosting)
		b, _ := probeSet.Standing(cc, countries.Hosting)
		xs = append(xs, a.Score)
		ys = append(ys, b.Score)
	}
	rho, pv, err := Correlate(xs, ys)
	if err != nil {
		return nil, err
	}
	return &Result{
		Rho:                    rho,
		PValue:                 pv,
		CountriesWithoutProbes: withoutProbes,
	}, nil
}

// Correlate computes Pearson's ρ and its approximate two-sided p-value for
// two equal-length score vectors, guarding every input on which the
// statistic degenerates to NaN: empty or single-country vectors, fewer
// than three points (no degrees of freedom for the p-value), and constant
// vectors (zero variance). All of those return an error wrapping
// ErrUndefinedCorrelation instead of quietly propagating NaN into reports.
func Correlate(xs, ys []float64) (rho, p float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("vantage: score vectors differ in length: %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 3 {
		return 0, 0, fmt.Errorf("vantage: %w: %d countries, need at least 3", ErrUndefinedCorrelation, len(xs))
	}
	rho, perr := stats.Pearson(xs, ys)
	if perr != nil {
		if errors.Is(perr, stats.ErrInsufficientData) {
			return 0, 0, fmt.Errorf("vantage: %w: a score vector is constant across countries", ErrUndefinedCorrelation)
		}
		return 0, 0, perr
	}
	return rho, stats.PearsonPValue(rho, len(xs)), nil
}

func randomAnycastProvider(w *worldgen.World, rng *rand.Rand) string {
	anycast := []string{"Cloudflare", "Akamai", "Fastly", "Google"}
	return anycast[rng.Intn(len(anycast))]
}

func hash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
