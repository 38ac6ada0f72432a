package dataset

import (
	"fmt"
	"sort"
)

// FieldStatus classifies the outcome of one field's live probe. The paper's
// metrics are computed over *observed* provider distributions, so a field
// silently missing from the data skews the distribution being scored; the
// coverage accounting makes that residual loss visible instead.
type FieldStatus uint8

const (
	// StatusSkipped: the probe was not attempted (e.g. language detection
	// disabled). Skipped fields do not count toward coverage.
	StatusSkipped FieldStatus = iota
	// StatusOK: the field was measured.
	StatusOK
	// StatusEmpty: the probe completed with an authoritative negative
	// (NXDOMAIN, a 404 page) — the field is legitimately absent; the
	// absence itself was measured.
	StatusEmpty
	// StatusLost: a transient failure survived the retry budget. The
	// field is missing from the dataset for infrastructure reasons, and
	// the loss must be accounted, not ignored.
	StatusLost
)

func (s FieldStatus) String() string {
	switch s {
	case StatusSkipped:
		return "skipped"
	case StatusOK:
		return "ok"
	case StatusEmpty:
		return "empty"
	case StatusLost:
		return "lost"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// SiteOutcome records the per-field probe statuses of one crawled site.
type SiteOutcome struct {
	Host, NS, CA, Language FieldStatus
}

// Lost reports whether any probed field suffered transient loss.
func (o SiteOutcome) Lost() bool {
	return o.Host == StatusLost || o.NS == StatusLost ||
		o.CA == StatusLost || o.Language == StatusLost
}

// FieldCoverage accumulates one field's probe outcomes across a country's
// sites.
type FieldCoverage struct {
	// OK counts measured fields, Empty authoritative negatives, and Lost
	// transient failures that survived the retry budget.
	OK, Empty, Lost int
}

// Attempted returns how many probes were attempted for the field.
func (f FieldCoverage) Attempted() int { return f.OK + f.Empty + f.Lost }

// Fraction is the covered share of attempted probes: ones that produced an
// authoritative answer, positive or negative. A field with no attempts is
// fully covered.
func (f FieldCoverage) Fraction() float64 {
	n := f.Attempted()
	if n == 0 {
		return 1
	}
	return float64(f.OK+f.Empty) / float64(n)
}

func (f *FieldCoverage) observe(s FieldStatus) {
	switch s {
	case StatusOK:
		f.OK++
	case StatusEmpty:
		f.Empty++
	case StatusLost:
		f.Lost++
	}
}

// Coverage is one country's measurement-loss accounting for a live crawl.
type Coverage struct {
	Country string
	// Sites is the number of crawled sites folded in.
	Sites int
	// Per-field counters for the four live probe paths.
	Host, NS, CA, Language FieldCoverage
	// Degraded is set when the country's worst per-field coverage fell
	// below the crawl's minimum: its distributions reflect measurement
	// loss, not just infrastructure, and downstream scoring should
	// annotate or exclude it.
	Degraded bool
}

// Observe folds one site's outcome into the counters.
func (c *Coverage) Observe(o SiteOutcome) {
	c.Sites++
	c.Host.observe(o.Host)
	c.NS.observe(o.NS)
	c.CA.observe(o.CA)
	c.Language.observe(o.Language)
}

// Lost returns the total transient losses across all fields.
func (c *Coverage) Lost() int {
	return c.Host.Lost + c.NS.Lost + c.CA.Lost + c.Language.Lost
}

// Fraction returns the country's worst per-field coverage — the figure the
// degraded threshold compares against. Loss concentrated in one layer
// skews that layer's distribution even when the overall loss rate looks
// small, so the minimum is the honest summary.
func (c *Coverage) Fraction() float64 {
	frac := 1.0
	for _, f := range []FieldCoverage{c.Host, c.NS, c.CA, c.Language} {
		if v := f.Fraction(); v < frac {
			frac = v
		}
	}
	return frac
}

// Degraded returns, in sorted order, the countries a coverage accounting
// flags degraded; nil for an empty or nil accounting.
func Degraded(byCountry map[string]*Coverage) []string {
	var out []string
	for cc, cov := range byCountry {
		if cov.Degraded {
			out = append(out, cc)
		}
	}
	sort.Strings(out)
	return out
}
