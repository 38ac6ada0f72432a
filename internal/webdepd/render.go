package webdepd

import (
	"encoding/json"
	"fmt"
	"net/http"

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
// Determinism: bodies are produced by encoding/json over structs and
// maps. Go marshals map keys in sorted order, and every float in the read
// model is a deterministic pure function of the rows (the golden-corpus
// invariant), so one corpus renders one byte sequence whichever source it
// was built from.

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

// marshal encodes a response body. Marshal failures are a programming
// error (every response type is JSON-encodable), surfaced as a 500 rather
// than a panic so one bad render cannot take the daemon down.
func marshal(v any) ([]byte, *QueryError) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, &QueryError{Status: http.StatusInternalServerError,
			Msg: fmt.Sprintf("encoding response: %v", err)}
	}
	return append(b, '\n'), nil
}

func (g *generation) renderAllScores() ([]byte, *QueryError) {
	resp := AllScoresResponse{Epoch: g.epoch, Layers: make(map[string]LayerScores, len(countries.Layers))}
	for _, layer := range countries.Layers {
		resp.Layers[layer.String()] = LayerScores{
			Scores:     g.scores.Scores(layer),
			Insularity: g.scores.Insularities(layer),
		}
	}
	return marshal(resp)
}

func (g *generation) renderLayerScores(layer countries.Layer) ([]byte, *QueryError) {
	return marshal(LayerScoresResponse{
		Epoch:      g.epoch,
		Layer:      layer.String(),
		Scores:     g.scores.Scores(layer),
		Insularity: g.scores.Insularities(layer),
	})
}

func (g *generation) renderCountryScore(layer countries.Layer, cc string) ([]byte, *QueryError) {
	st, ok := g.scores.Standing(cc, layer)
	if !ok {
		return nil, notFound("country %s is not in the served corpus", cc)
	}
	return marshal(CountryScoreResponse{
		Epoch:      g.epoch,
		Layer:      layer.String(),
		Country:    cc,
		Score:      st.Score,
		Insularity: st.Insularity,
		Rank:       st.Rank,
		Of:         st.Of,
	})
}

func (g *generation) renderRankCurve(layer countries.Layer, cc string) ([]byte, *QueryError) {
	dist := g.scores.DistributionOf(cc, layer)
	if dist == nil {
		return nil, notFound("country %s is not in the served corpus", cc)
	}
	curve := dist.RankCurve()
	if curve == nil {
		curve = []float64{}
	}
	return marshal(RankCurveResponse{
		Epoch:   g.epoch,
		Layer:   layer.String(),
		Country: cc,
		Curve:   curve,
	})
}

func (g *generation) renderCoverage() ([]byte, *QueryError) {
	resp := CoverageResponse{Epoch: g.epoch, Countries: g.coverage, Degraded: dataset.Degraded(g.coverage)}
	if resp.Countries == nil {
		resp.Countries = map[string]*dataset.Coverage{}
	}
	if resp.Degraded == nil {
		resp.Degraded = []string{}
	}
	return marshal(resp)
}

// renderClasses takes the layer's classes from the read model, which
// clusters and tallies the shares once however many generations share it,
// counts which way it went, and marshals them.
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
	return marshal(ClassesResponse{Epoch: g.epoch, Layer: layer.String(), Counts: c.counts, Shares: c.shares})
}

func (g *generation) renderSPOF(n int) ([]byte, *QueryError) {
	top := g.graph.TopSPOFs(n)
	if top == nil {
		top = []depgraph.SPOF{}
	}
	return marshal(SPOFResponse{Epoch: g.epoch, Top: top})
}

func (g *generation) renderWhatIf(provider string) ([]byte, *QueryError) {
	imp, err := g.graph.Simulate(provider)
	if err != nil {
		return nil, notFound("%v", err)
	}
	return marshal(WhatIfResponse{Epoch: g.epoch, Impact: imp})
}

func (g *generation) renderEpoch() ([]byte, *QueryError) {
	return marshal(EpochResponse{
		Epoch:      g.epoch,
		Generation: g.label,
		Swap:       g.id,
		Countries:  len(g.scores.Countries()),
		Sites:      g.sites,
	})
}
