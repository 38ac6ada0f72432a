package webdepd

import (
	"fmt"
	"net/http"
	"sort"

	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/depgraph"
)

// This file computes each endpoint's JSON body from the generation's read
// model — the "slow path" the response cache runs exactly once per
// (generation, query shape). Every render reads the scoring surface or the
// dependency graph through the same entry points the analysis/report
// packages use; the cross-check test serves each endpoint over HTTP, from
// an in-memory corpus and from a store, and re-renders from an
// independently measured corpus, and the bytes must match.
//
// Determinism: bodies are appended by a bodyWriter straight from the read
// model, not produced by encoding/json, but byte for byte as encoding/json
// would marshal the *Response type below: struct members in declaration
// order, map members in sorted key order, strings escaped and floats
// formatted by its rules. The read model keeps its columns in that order —
// the scoring index's countries are sorted, the classes memo sorts its
// census and shares once — so a render walks them, and sorts only the
// coverage map's codes. TestBodiesMatchEncodingJSON holds every shape to
// encoding/json's marshalling of the filled type. Every float in the read
// model is a deterministic pure function of the rows (the golden-corpus
// invariant), so one corpus renders one byte sequence whichever source it
// was built from.
//
// The *Response types are the decode contract: clients and the benchmark
// unmarshal bodies into them, and the tests marshal them as the reference
// encoding. A fixed-shape renderer fills its type and writes it member by
// member; the scores and classes renderers write their maps' members from
// the read model's ordered columns, so only the tests build those maps.

// LayerScores is one layer's per-country metrics inside an all-layers
// scores response.
type LayerScores struct {
	Scores     map[string]float64 `json:"scores"`
	Insularity map[string]float64 `json:"insularity"`
}

// AllScoresResponse answers /api/scores with no layer parameter.
type AllScoresResponse struct {
	Epoch  string                 `json:"epoch"`
	Layers map[string]LayerScores `json:"layers"`
}

// LayerScoresResponse answers /api/scores?layer=L.
type LayerScoresResponse struct {
	Epoch      string             `json:"epoch"`
	Layer      string             `json:"layer"`
	Scores     map[string]float64 `json:"scores"`
	Insularity map[string]float64 `json:"insularity"`
}

// CountryScoreResponse answers /api/scores?layer=L&country=CC. Rank is the
// country's position in the layer's descending score order (1 = most
// centralized), matching the paper's tables.
type CountryScoreResponse struct {
	Epoch      string  `json:"epoch"`
	Layer      string  `json:"layer"`
	Country    string  `json:"country"`
	Score      float64 `json:"score"`
	Insularity float64 `json:"insularity"`
	Rank       int     `json:"rank"`
	Of         int     `json:"of"` // how many countries were ranked
}

// RankCurveResponse answers /api/rankcurve: element k of Curve is the
// cumulative share of the country's measured sites on the top k+1
// providers of the layer (the paper's Figure 1).
type RankCurveResponse struct {
	Epoch   string    `json:"epoch"`
	Layer   string    `json:"layer"`
	Country string    `json:"country"`
	Curve   []float64 `json:"curve"`
}

// CoverageResponse answers /api/coverage with the live crawl's
// measurement-loss accounting; Countries is empty (never null) for corpora
// measured without probe loss accounting.
type CoverageResponse struct {
	Epoch     string                       `json:"epoch"`
	Countries map[string]*dataset.Coverage `json:"countries"`
	Degraded  []string                     `json:"degraded"`
}

// ClassesResponse answers /api/classes: the layer's provider-class census
// and each country's share of measured sites per class.
type ClassesResponse struct {
	Epoch  string                                `json:"epoch"`
	Layer  string                                `json:"layer"`
	Counts map[classify.Class]int                `json:"counts"`
	Shares map[string]map[classify.Class]float64 `json:"shares"`
}

// SPOFResponse answers /api/spof with the top-N single points of failure
// by transitive blast radius.
type SPOFResponse struct {
	Epoch string          `json:"epoch"`
	Top   []depgraph.SPOF `json:"top"`
}

// WhatIfResponse answers /api/what-if: the blast radius of one provider
// failing, per country and layer.
type WhatIfResponse struct {
	Epoch  string           `json:"epoch"`
	Impact *depgraph.Impact `json:"impact"`
}

// EpochResponse answers /api/epoch: which corpus generation is serving.
type EpochResponse struct {
	Epoch      string `json:"epoch"`
	Generation string `json:"generation"`
	Swap       int64  `json:"swap"`
	Countries  int    `json:"countries"`
	Sites      int    `json:"sites"`
}

// ErrorResponse is the body of every 4xx/5xx answer.
type ErrorResponse struct {
	Status int    `json:"status"`
	Error  string `json:"error"`
}

// render computes the response body for a parsed query against this
// generation's read model. Errors are typed QueryErrors (unknown country or
// provider → 404; classification failure → 500) and are never cached.
func (g *generation) render(q Query) ([]byte, *QueryError) {
	switch q.Endpoint {
	case epScores:
		switch {
		case q.AllLayers:
			return g.renderAllScores()
		case q.Country != "":
			return g.renderCountryScore(q.Layer, q.Country)
		default:
			return g.renderLayerScores(q.Layer)
		}
	case epRankCurve:
		return g.renderRankCurve(q.Layer, q.Country)
	case epCoverage:
		return g.renderCoverage()
	case epClasses:
		return g.renderClasses(q.Layer)
	case epSPOF:
		return g.renderSPOF(q.N)
	case epWhatIf:
		return g.renderWhatIf(q.Provider)
	case epEpoch:
		return g.renderEpoch()
	default:
		return nil, notFound("unknown endpoint %q", q.Endpoint)
	}
}

func (g *generation) renderAllScores() ([]byte, *QueryError) {
	w := newBody()
	w.open('{')
	w.key("epoch")
	w.str(g.epoch)
	w.key("layers")
	w.open('{')
	for _, layer := range layersByName {
		w.key(layer.String())
		w.open('{')
		g.writeScores(w, layer)
		w.close('}')
	}
	w.close('}')
	w.close('}')
	return w.finish()
}

func (g *generation) renderLayerScores(layer countries.Layer) ([]byte, *QueryError) {
	w := newBody()
	w.open('{')
	w.key("epoch")
	w.str(g.epoch)
	w.key("layer")
	w.str(layer.String())
	g.writeScores(w, layer)
	w.close('}')
	return w.finish()
}

// layersByName is countries.Layers in name order, the order encoding/json
// writes AllScoresResponse.Layers in.
var layersByName = func() []countries.Layer {
	ls := append([]countries.Layer(nil), countries.Layers...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].String() < ls[j].String() })
	return ls
}()

// writeScores writes a layer's "scores" and "insularity" members, each
// country's value in the index's sorted country order.
func (g *generation) writeScores(w *bodyWriter, layer countries.Layer) {
	w.key("scores")
	w.open('{')
	g.scores.EachScore(layer, func(cc string, score, _ float64) {
		w.key(cc)
		w.float(score)
	})
	w.close('}')
	w.key("insularity")
	w.open('{')
	g.scores.EachScore(layer, func(cc string, _, insularity float64) {
		w.key(cc)
		w.float(insularity)
	})
	w.close('}')
}

func (g *generation) renderCountryScore(layer countries.Layer, cc string) ([]byte, *QueryError) {
	st, ok := g.scores.Standing(cc, layer)
	if !ok {
		return nil, notFound("country %s is not in the served corpus", cc)
	}
	r := CountryScoreResponse{Epoch: g.epoch, Layer: layer.String(), Country: cc,
		Score: st.Score, Insularity: st.Insularity, Rank: st.Rank, Of: st.Of}
	w := newBody()
	w.open('{')
	w.key("epoch")
	w.str(r.Epoch)
	w.key("layer")
	w.str(r.Layer)
	w.key("country")
	w.str(r.Country)
	w.key("score")
	w.float(r.Score)
	w.key("insularity")
	w.float(r.Insularity)
	w.key("rank")
	w.int(int64(r.Rank))
	w.key("of")
	w.int(int64(r.Of))
	w.close('}')
	return w.finish()
}

func (g *generation) renderRankCurve(layer countries.Layer, cc string) ([]byte, *QueryError) {
	dist := g.scores.DistributionOf(cc, layer)
	if dist == nil {
		return nil, notFound("country %s is not in the served corpus", cc)
	}
	r := RankCurveResponse{Epoch: g.epoch, Layer: layer.String(), Country: cc, Curve: dist.RankCurve()}
	w := newBody()
	w.open('{')
	w.key("epoch")
	w.str(r.Epoch)
	w.key("layer")
	w.str(r.Layer)
	w.key("country")
	w.str(r.Country)
	w.key("curve")
	w.open('[')
	for _, v := range r.Curve {
		w.float(v)
	}
	w.close(']')
	w.close('}')
	return w.finish()
}

func (g *generation) renderCoverage() ([]byte, *QueryError) {
	r := CoverageResponse{Epoch: g.epoch, Countries: g.coverage, Degraded: dataset.Degraded(g.coverage)}
	ccs := make([]string, 0, len(r.Countries))
	for cc := range r.Countries {
		ccs = append(ccs, cc)
	}
	sort.Strings(ccs)
	w := newBody()
	w.open('{')
	w.key("epoch")
	w.str(r.Epoch)
	w.key("countries")
	w.open('{')
	for _, cc := range ccs {
		w.key(cc)
		writeCoverage(w, r.Countries[cc])
	}
	w.close('}')
	w.key("degraded")
	w.open('[')
	for _, cc := range r.Degraded {
		w.str(cc)
	}
	w.close(']')
	w.close('}')
	return w.finish()
}

// writeCoverage writes a dataset.Coverage as encoding/json does a struct
// without tags: every field under its Go name.
func writeCoverage(w *bodyWriter, c *dataset.Coverage) {
	w.open('{')
	w.key("Country")
	w.str(c.Country)
	w.key("Sites")
	w.int(int64(c.Sites))
	for _, f := range []struct {
		name string
		fc   *dataset.FieldCoverage
	}{{"Host", &c.Host}, {"NS", &c.NS}, {"CA", &c.CA}, {"Language", &c.Language}} {
		w.key(f.name)
		w.open('{')
		w.key("OK")
		w.int(int64(f.fc.OK))
		w.key("Empty")
		w.int(int64(f.fc.Empty))
		w.key("Lost")
		w.int(int64(f.fc.Lost))
		w.close('}')
	}
	w.key("Degraded")
	w.bool(c.Degraded)
	w.close('}')
}

// renderClasses takes the layer's classes from the read model, which
// clusters, tallies and orders the shares once however many generations
// share it, counts which way it went, and writes them.
func (g *generation) renderClasses(layer countries.Layer) ([]byte, *QueryError) {
	c, carried, err := g.classify(layer)
	if err != nil {
		return nil, &QueryError{Status: http.StatusInternalServerError,
			Msg: fmt.Sprintf("classifying %s providers: %v", layer, err)}
	}
	if carried {
		g.m.carried.Inc()
	} else {
		g.m.clustered.Inc()
		if c.res.Iterations > 0 && !c.res.Converged {
			g.m.capped.Inc()
		}
	}
	w := newBody()
	w.open('{')
	w.key("epoch")
	w.str(g.epoch)
	w.key("layer")
	w.str(layer.String())
	w.key("counts")
	w.open('{')
	for _, e := range c.counts {
		w.key(string(e.class))
		w.int(int64(e.v))
	}
	w.close('}')
	w.key("shares")
	w.open('{')
	for _, cs := range c.shares {
		w.key(cs.country)
		w.open('{')
		for _, e := range cs.shares {
			w.key(string(e.class))
			w.float(e.v)
		}
		w.close('}')
	}
	w.close('}')
	w.close('}')
	return w.finish()
}

func (g *generation) renderSPOF(n int) ([]byte, *QueryError) {
	r := SPOFResponse{Epoch: g.epoch, Top: g.graph.TopSPOFs(n)}
	w := newBody()
	w.open('{')
	w.key("epoch")
	w.str(r.Epoch)
	w.key("top")
	w.open('[')
	for i := range r.Top {
		s := &r.Top[i]
		w.open('{')
		w.key("provider")
		w.str(s.Provider)
		w.key("country")
		w.str(s.Country)
		w.key("sym")
		w.int(int64(s.Sym))
		w.key("radius")
		w.int(s.Radius)
		w.key("share")
		w.float(s.Share)
		w.key("hosting")
		w.float(s.Hosting)
		w.key("dns")
		w.float(s.DNS)
		w.key("ca")
		w.float(s.CA)
		w.close('}')
	}
	w.close(']')
	w.close('}')
	return w.finish()
}

func (g *generation) renderWhatIf(provider string) ([]byte, *QueryError) {
	imp, err := g.graph.Simulate(provider)
	if err != nil {
		return nil, notFound("%v", err)
	}
	r := WhatIfResponse{Epoch: g.epoch, Impact: imp}
	w := newBody()
	w.open('{')
	w.key("epoch")
	w.str(r.Epoch)
	w.key("impact")
	w.open('{')
	w.key("provider")
	w.str(r.Impact.Provider)
	w.key("countries")
	w.open('[')
	for i := range r.Impact.Countries {
		ci := &r.Impact.Countries[i]
		w.open('{')
		w.key("country")
		w.str(ci.Country)
		w.key("layers")
		writeLayerImpacts(w, &ci.Layers)
		w.close('}')
	}
	w.close(']')
	w.key("total")
	writeLayerImpacts(w, &r.Impact.Total)
	w.close('}')
	w.close('}')
	return w.finish()
}

func writeLayerImpacts(w *bodyWriter, li *depgraph.LayerImpacts) {
	w.open('{')
	for _, l := range []struct {
		name string
		li   *depgraph.LayerImpact
	}{{"hosting", &li.Hosting}, {"dns", &li.DNS}, {"ca", &li.CA}} {
		w.key(l.name)
		w.open('{')
		w.key("measured")
		w.int(l.li.Measured)
		w.key("lost")
		w.int(l.li.Lost)
		w.close('}')
	}
	w.close('}')
}

func (g *generation) renderEpoch() ([]byte, *QueryError) {
	r := EpochResponse{Epoch: g.epoch, Generation: g.label, Swap: g.id,
		Countries: len(g.scores.Countries()), Sites: g.sites}
	w := newBody()
	w.open('{')
	w.key("epoch")
	w.str(r.Epoch)
	w.key("generation")
	w.str(r.Generation)
	w.key("swap")
	w.int(r.Swap)
	w.key("countries")
	w.int(int64(r.Countries))
	w.key("sites")
	w.int(int64(r.Sites))
	w.close('}')
	return w.finish()
}
