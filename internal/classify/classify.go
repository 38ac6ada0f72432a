// Package classify reproduces the paper's provider classification
// (Section 5.2): compute each provider's usage 𝑈 and endemicity ratio E_R,
// min-max scale the two features, cluster with affinity propagation, and
// label the clusters with the paper's eight classes (XL-GP, L-GP,
// L-GP (R), M-GP, S-GP, L-RP, S-RP, XS-RP).
//
// The paper's authors examined 305 clusters manually; this package replaces
// the manual step with deterministic rules over cluster centroids, so the
// classification is reproducible and testable.
package classify

import (
	"sort"

	"github.com/webdep/webdep/internal/cluster"
	"github.com/webdep/webdep/internal/core"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
)

// Class is one of the paper's provider classes.
type Class string

// The eight classes of Table 1 (hosting), Table 2 (DNS), and the five-class
// subset of Table 3 (CAs).
const (
	XLGlobal       Class = "XL-GP"
	LGlobal        Class = "L-GP"
	LGlobalRegion  Class = "L-GP (R)"
	MGlobal        Class = "M-GP"
	SGlobal        Class = "S-GP"
	LRegional      Class = "L-RP"
	SRegional      Class = "S-RP"
	XSRegional     Class = "XS-RP"
	Unclassifiable Class = "unclassified"
)

// Order lists the classes in the paper's presentation order.
var Order = []Class{XLGlobal, LGlobal, LGlobalRegion, MGlobal, SGlobal, LRegional, SRegional, XSRegional}

// IsRegional reports whether a class is on the regional side of the
// taxonomy (the hatched bars of the paper's Figure 7).
func (c Class) IsRegional() bool {
	switch c {
	case LRegional, SRegional, XSRegional:
		return true
	default:
		return false
	}
}

// ProviderFeatures carries the regionalization features of one provider.
type ProviderFeatures struct {
	Provider        string
	Usage           float64 // 𝑈: area under the usage curve
	EndemicityRatio float64 // E_R ∈ [0,1]
	Peak            float64 // u1: max usage in any country
	Class           Class
	Cluster         int // affinity-propagation cluster id
}

// Result is a completed classification of one layer's providers.
type Result struct {
	Features []ProviderFeatures
	byName   map[string]*ProviderFeatures
	// Clusters is the number of affinity-propagation clusters found among
	// the clustered (non-tail) providers.
	Clusters int
	// Iterations and Converged are the affinity-propagation run's own
	// report (cluster.Result): how many message-passing rounds it took and
	// whether the exemplar set settled before Options.Cluster.MaxIterations.
	Iterations int
	Converged  bool
}

// ClassOf returns a provider's class (Unclassifiable if absent).
func (r *Result) ClassOf(provider string) Class {
	if f, ok := r.byName[provider]; ok {
		return f.Class
	}
	return Unclassifiable
}

// Counts tallies providers per class.
func (r *Result) Counts() map[Class]int {
	out := make(map[Class]int)
	for i := range r.Features {
		out[r.Features[i].Class]++
	}
	return out
}

// Options tunes classification.
type Options struct {
	// MaxClustered bounds how many providers (by usage) go through
	// affinity propagation; the long tail below the cut is classified
	// directly as XS-RP. Affinity propagation is O(n²) per iteration, and
	// a paper-scale world has >10⁴ providers, nearly all of which are
	// unambiguous extra-small regionals. Default 600.
	MaxClustered int
	// Cluster options.
	Cluster cluster.Options
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	opts := cluster.DefaultOptions()
	opts.Damping = 0.8
	return Options{MaxClustered: 600, Cluster: opts}
}

// Layer classifies the providers of one layer of a measured corpus, from
// its scoring surface alone.
func Layer(src dataset.Scored, layer countries.Layer, opts Options) (*Result, error) {
	ss := src.ScoreSet()
	curves := ss.UsageCurves(layer)
	features := make([]ProviderFeatures, 0, len(curves))
	for provider, curve := range curves {
		features = append(features, ProviderFeatures{
			Provider:        provider,
			Usage:           curve.Usage(),
			EndemicityRatio: curve.EndemicityRatio(),
			Peak:            curve.Peak(),
		})
	}
	sort.Slice(features, func(i, j int) bool {
		if features[i].Usage != features[j].Usage {
			return features[i].Usage > features[j].Usage
		}
		return features[i].Provider < features[j].Provider
	})
	return classifyFeatures(features, len(ss.Countries()), opts)
}

func classifyFeatures(features []ProviderFeatures, numCountries int, opts Options) (*Result, error) {
	if opts.MaxClustered <= 0 {
		opts.MaxClustered = 600
	}
	n := len(features)
	clustered := n
	if clustered > opts.MaxClustered {
		clustered = opts.MaxClustered
	}

	res := &Result{Features: features, byName: make(map[string]*ProviderFeatures, n)}

	if clustered > 0 {
		// Min-max scale the two features over the clustered head, as the
		// paper does before affinity propagation.
		us := make([]float64, clustered)
		es := make([]float64, clustered)
		for i := 0; i < clustered; i++ {
			us[i] = features[i].Usage
			es[i] = features[i].EndemicityRatio
		}
		usScaled := minMax(us)
		esScaled := minMax(es)
		points := make([][]float64, clustered)
		for i := range points {
			points[i] = []float64{usScaled[i], esScaled[i]}
		}
		cres, err := cluster.Points(points, opts.Cluster)
		if err != nil {
			return nil, err
		}
		res.Clusters = cres.NumClusters()
		res.Iterations, res.Converged = cres.Iterations, cres.Converged
		for i := 0; i < clustered; i++ {
			features[i].Cluster = cres.Assignment[i]
		}
		// Label each cluster from its centroid; all members share the
		// label, mirroring the paper's per-cluster manual grouping.
		type centroid struct {
			usage, er float64
			count     int
		}
		cents := make([]centroid, cres.NumClusters())
		for i := 0; i < clustered; i++ {
			c := &cents[features[i].Cluster]
			c.usage += features[i].Usage
			c.er += features[i].EndemicityRatio
			c.count++
		}
		// Identify the XL cluster(s): the top-2 providers by usage form
		// the XL-GP class when they dwarf the rest (Cloudflare and
		// Amazon in the paper).
		// Usage thresholds are defined for the paper's 150-country corpus;
		// scale them to the corpus at hand so subsets classify the same.
		scale := float64(numCountries) / 150
		if scale <= 0 {
			scale = 1
		}
		for i := 0; i < clustered; i++ {
			f := &features[i]
			c := cents[f.Cluster]
			f.Class = labelCentroid(c.usage/float64(c.count)/scale, c.er/float64(c.count))
		}
		// The two largest global providers are XL by definition.
		xl := 0
		for i := 0; i < clustered && xl < 2; i++ {
			if !features[i].Class.IsRegional() {
				features[i].Class = XLGlobal
				xl++
			}
		}
	}
	for i := clustered; i < n; i++ {
		features[i].Class = XSRegional
	}
	for i := range features {
		res.byName[features[i].Provider] = &features[i]
	}
	return res, nil
}

// labelCentroid maps a cluster centroid in (usage, endemicity-ratio) space
// to a class. Usage thresholds are in summed percentage points across 150
// countries (a provider at 10% in every country has usage 1500).
func labelCentroid(usage, er float64) Class {
	global := er < 0.80
	switch {
	case global && er >= 0.50 && usage >= 60:
		// Globally present but with clear regional strongholds: the OVH
		// and Hetzner pattern.
		return LGlobalRegion
	case global && usage >= 150:
		return LGlobal
	case global && usage >= 25:
		return MGlobal
	case global:
		return SGlobal
	case usage >= 5:
		return LRegional
	case usage >= 1.5:
		return SRegional
	default:
		return XSRegional
	}
}

func minMax(xs []float64) []float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	out := make([]float64, len(xs))
	if hi == lo {
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}

// CountryBreakdownIndexed computes, for one country, the share of sites
// served by each provider class — one bar of the paper's Figure 7/14/15 —
// from a scoring surface: no per-call corpus scan, just reads of the frozen
// per-country distribution. It returns an empty breakdown for countries the
// surface does not hold.
func CountryBreakdownIndexed(src dataset.Scored, cc string, layer countries.Layer, res *Result) map[Class]float64 {
	dist := src.ScoreSet().DistributionOf(cc, layer)
	if dist == nil {
		return make(map[Class]float64)
	}
	return breakdownOf(dist, res)
}

func breakdownOf(dist *core.Distribution, res *Result) map[Class]float64 {
	out := make(map[Class]float64)
	total := dist.Total()
	if total == 0 {
		return out
	}
	for _, ps := range dist.Ranked() {
		out[res.ClassOf(ps.Provider)] += ps.Count / total
	}
	return out
}

// ClassShares computes each country's total share on a set of providers
// (used for the correlation experiments: XL-GP share vs 𝒮, etc.), reading
// the scoring surface. The slice is aligned with the set's Countries.
func ClassShares(src dataset.Scored, layer countries.Layer, res *Result, classes ...Class) []float64 {
	ss := src.ScoreSet()
	want := make(map[Class]bool, len(classes))
	for _, c := range classes {
		want[c] = true
	}
	ccs := ss.Countries()
	out := make([]float64, len(ccs))
	for i, cc := range ccs {
		dist := ss.DistributionOf(cc, layer)
		total := dist.Total()
		if total == 0 {
			continue
		}
		var share float64
		for _, ps := range dist.Ranked() {
			if want[res.ClassOf(ps.Provider)] {
				share += ps.Count / total
			}
		}
		out[i] = share
	}
	return out
}
