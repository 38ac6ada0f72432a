// Package dataset defines the enriched-toplist record model the measurement
// pipeline produces and every analysis consumes, mirroring the paper's data
// release: one row per (country, website) with the hosting, DNS, CA, and
// TLD dependencies annotated.
package dataset

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/countries"
)

// Website is one enriched toplist row. String fields are empty when the
// corresponding measurement failed (e.g. no TLS handshake).
type Website struct {
	Domain  string
	Country string // CrUX list this site appears on
	Rank    int    // 1-based position in the list

	// Hosting layer: the AS organization serving the root page, per the
	// paper's "last leg" definition.
	HostProvider        string
	HostProviderCountry string // provider H.Q. country
	HostIP              string
	HostIPContinent     string // geolocated serving continent
	HostAnycast         bool

	// DNS layer: the AS organization of the authoritative nameserver.
	DNSProvider        string
	DNSProviderCountry string
	NSIP               string
	NSIPContinent      string
	NSAnycast          bool

	// CA layer: CCADB owner of the CA that issued the leaf certificate.
	CAOwner        string
	CAOwnerCountry string

	// TLD layer.
	TLD string

	// Language of the site content (ISO 639-1), used for the Section 5.3.3
	// case studies.
	Language string
}

// ProviderOf returns the provider label the given layer depends on, and the
// provider's home country. For the TLD layer the "provider" is the TLD
// string itself and the home country is the ccTLD's country (or "" for
// gTLDs); callers wanting TLD-country semantics should consult tldinfo.
func (w *Website) ProviderOf(layer countries.Layer) (provider, country string) {
	switch layer {
	case countries.Hosting:
		return w.HostProvider, w.HostProviderCountry
	case countries.DNS:
		return w.DNSProvider, w.DNSProviderCountry
	case countries.CA:
		return w.CAOwner, w.CAOwnerCountry
	case countries.TLD:
		return w.TLD, ""
	default:
		return "", ""
	}
}

// CountryList is the enriched toplist for one country in one measurement
// epoch.
type CountryList struct {
	Country string
	Epoch   string // e.g. "2023-05"
	Sites   []Website
}

// Domains returns the domains on the list in rank order.
func (c *CountryList) Domains() []string {
	out := make([]string, len(c.Sites))
	for i := range c.Sites {
		out[i] = c.Sites[i].Domain
	}
	return out
}

// Distribution builds the provider distribution for the requested layer.
// Sites with an empty provider (failed measurement) are skipped, mirroring
// the paper's handling of unreachable sites.
func (c *CountryList) Distribution(layer countries.Layer) *core.Distribution {
	d := core.NewDistribution()
	for i := range c.Sites {
		p, _ := c.Sites[i].ProviderOf(layer)
		if p != "" {
			d.Observe(p)
		}
	}
	return d
}

// Insularity computes the layer's insularity for the country: the fraction
// of measured sites whose provider is based in the same country. The TLD
// layer is intentionally not supported here (TLD insularity needs ccTLD
// semantics; see the tldinfo package) and returns a zero tally.
func (c *CountryList) Insularity(layer countries.Layer) core.Insularity {
	var ins core.Insularity
	if layer == countries.TLD {
		return ins
	}
	for i := range c.Sites {
		p, pc := c.Sites[i].ProviderOf(layer)
		if p == "" {
			continue
		}
		ins.Observe(c.Country, pc)
	}
	return ins
}

// CrossDependence tallies which countries this country's sites depend on at
// the given layer (provider home countries).
func (c *CountryList) CrossDependence(layer countries.Layer) *core.CrossDependence {
	cd := core.NewCrossDependence()
	for i := range c.Sites {
		p, pc := c.Sites[i].ProviderOf(layer)
		if p == "" || pc == "" {
			continue
		}
		cd.Observe(pc)
	}
	return cd
}

// Corpus is a complete measurement: every country's enriched toplist for
// one epoch.
type Corpus struct {
	Epoch string
	Lists map[string]*CountryList

	// Workers bounds the per-country concurrency of the scoring index build
	// behind ScoreSet; 0 means one worker per CPU. Results are identical
	// for every worker count: each country is computed independently and
	// merged in sorted country order.
	Workers int

	// CoverageByCountry carries the live crawl's measurement-loss
	// accounting, keyed by country code. Nil for corpora built without a
	// live crawl (synthetic fast-path, CSV round trips): those have no
	// probe loss by construction.
	CoverageByCountry map[string]*Coverage

	// scoring caches the columnar scoring index every analysis entry
	// point reads (see index.go). It is built lazily on first use —
	// double-checked through the atomic pointer with buildMu serializing
	// builders — and dropped by Add, SetCoverage, and
	// InvalidateScoringIndex. The pointer, not the Corpus, carries the
	// synchronization: a Corpus must not be copied by value once in use.
	scoring atomic.Pointer[scoringIndex]
	buildMu sync.Mutex
}

// NewCorpus returns an empty corpus for the epoch.
func NewCorpus(epoch string) *Corpus {
	return &Corpus{Epoch: epoch, Lists: make(map[string]*CountryList)}
}

// Add inserts (or replaces) a country list and invalidates the scoring
// index, so a mutate-then-score sequence (e.g. the checkpoint-resume merge
// in pipeline.Live) always scores the corpus it sees.
func (c *Corpus) Add(list *CountryList) {
	c.Lists[list.Country] = list
	c.InvalidateScoringIndex()
}

// Get returns the list for a country, or nil.
func (c *Corpus) Get(country string) *CountryList { return c.Lists[country] }

// Countries returns the corpus's country codes in sorted order.
func (c *Corpus) Countries() []string {
	out := make([]string, 0, len(c.Lists))
	for cc := range c.Lists {
		out = append(out, cc)
	}
	sort.Strings(out)
	return out
}

// SetCoverage attaches one country's coverage accounting, creating the
// corpus's coverage map on first use. Coverage does not feed the scoring
// index, but attaching it marks the corpus as mid-mutation (a live crawl
// interleaves Add and SetCoverage), so the index is invalidated alongside.
func (c *Corpus) SetCoverage(cov *Coverage) {
	if c.CoverageByCountry == nil {
		c.CoverageByCountry = make(map[string]*Coverage)
	}
	c.CoverageByCountry[cov.Country] = cov
	c.InvalidateScoringIndex()
}

// CoverageOf returns the coverage accounting for a country, or nil when the
// corpus carries none (fast-path corpora) or the country was not crawled.
func (c *Corpus) CoverageOf(country string) *Coverage {
	return c.CoverageByCountry[country]
}

// DegradedCountries returns, in sorted order, the countries whose live
// crawl was flagged degraded. Empty (not nil-panicking) for corpora without
// coverage accounting.
func (c *Corpus) DegradedCountries() []string { return Degraded(c.CoverageByCountry) }

// TotalSites returns the number of website rows across all lists.
func (c *Corpus) TotalSites() int {
	var n int
	for _, l := range c.Lists {
		n += len(l.Sites)
	}
	return n
}

// Validate performs structural checks a data release should pass: known
// country codes, nonempty domains, ranks within bounds. It returns the
// first problem found, visiting countries in sorted order.
func (c *Corpus) Validate() error {
	for _, cc := range c.Countries() {
		l := c.Lists[cc]
		if l.Country != cc {
			return fmt.Errorf("dataset: list keyed %q has country %q", cc, l.Country)
		}
		if _, ok := countries.ByCode(cc); !ok {
			return fmt.Errorf("dataset: unknown country %q", cc)
		}
		for i := range l.Sites {
			s := &l.Sites[i]
			if s.Domain == "" {
				return fmt.Errorf("dataset: %s row %d has empty domain", cc, i)
			}
			if s.Country != cc {
				return fmt.Errorf("dataset: %s row %d has country %q", cc, i, s.Country)
			}
			if s.Rank < 1 || s.Rank > len(l.Sites) {
				return fmt.Errorf("dataset: %s row %d has rank %d", cc, i, s.Rank)
			}
		}
	}
	return nil
}
