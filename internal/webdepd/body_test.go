package webdepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

// escapeNames are provider names, and an epoch and a label, that take
// encoding/json's escaping: HTML characters, a quote, a backslash, a
// control byte, non-ASCII, U+2028 and invalid UTF-8.
var escapeNames = []string{"AT&T", "<x>", `"`, `\`, "ctl\x01", "Türk", "line\u2028sep", "bad\xffutf8"}

// boundaryFloats sit where encoding/json's float format turns from 'f' to
// 'e' and at the ends of the float64 range.
var boundaryFloats = []float64{1e-7, 1e-6, 1e20, 1e21, math.Copysign(0, -1), 5e-324, math.MaxFloat64,
	-1e-7, 0.1, 1.0 / 3, 123456789}

// pinnedWorld is TestResponseBodiesPinned's world: worldgen's golden seed-7
// 10 × 600 world, measured and snapshotted for direct renders.
func pinnedWorld(t testing.TB) *generation {
	t.Helper()
	ccs := []string{"AU", "BR", "CZ", "DE", "IN", "IR", "JP", "TH", "US", "ZA"}
	w, err := worldgen.Build(worldgen.Config{Seed: 7, SitesPerCountry: 600, DomesticPerCountry: 30, Countries: ccs})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	return direct(corpus, "memory", 0)
}

// escapeWorld serves providers named escapeNames on every graph layer,
// under an epoch and a label that need escaping, with a coverage map —
// one country degraded, one code that needs escaping — that the
// fast path's corpora never carry.
func escapeWorld() *generation {
	c := dataset.NewCorpus("2023-05 <&>")
	for ci, cc := range []string{"US", "DE", "TH"} {
		list := &dataset.CountryList{Country: cc, Epoch: c.Epoch}
		for i, p := range escapeNames {
			for k := 0; k < 1+(i+ci)%3; k++ {
				rank := len(list.Sites) + 1
				list.Sites = append(list.Sites, dataset.Website{
					Domain: fmt.Sprintf("site%d.%s.example", rank, cc), Country: cc, Rank: rank,
					HostProvider: p, HostProviderCountry: "US",
					DNSProvider: escapeNames[(i+1)%len(escapeNames)], DNSProviderCountry: "DE",
					CAOwner: escapeNames[(i+2)%len(escapeNames)], CAOwnerCountry: cc,
					TLD: "example",
				})
			}
		}
		c.Add(list)
	}
	g := direct(c, "gen\u2028<1>", 3)
	g.coverage = map[string]*dataset.Coverage{
		"US":  {Country: "US", Sites: 12, Host: dataset.FieldCoverage{OK: 10, Empty: 1, Lost: 1}},
		"TH":  {Country: "TH", Sites: 9, CA: dataset.FieldCoverage{OK: 2, Lost: 7}, Degraded: true},
		"A&B": {Country: "A&B"},
	}
	return g
}

// everyShape is one query of every endpoint shape g can answer: scores and
// rank curves for every (layer, country), each layer's scores and classes,
// the all-layer scores, coverage, epoch, the SPOF table at several n and
// the what-if of every provider in it.
func everyShape(g *generation) []Query {
	var qs []Query
	for _, layer := range countries.Layers {
		for _, cc := range g.scores.Countries() {
			qs = append(qs,
				Query{Endpoint: epScores, Layer: layer, Country: cc},
				Query{Endpoint: epRankCurve, Layer: layer, Country: cc})
		}
		qs = append(qs, Query{Endpoint: epScores, Layer: layer}, Query{Endpoint: epClasses, Layer: layer})
	}
	qs = append(qs, Query{Endpoint: epScores, AllLayers: true}, Query{Endpoint: epCoverage}, Query{Endpoint: epEpoch})
	for _, n := range []int{1, defaultSPOFN, 20, maxSPOFN} {
		qs = append(qs, Query{Endpoint: epSPOF, N: n})
	}
	for _, s := range g.graph.TopSPOFs(maxSPOFN) {
		qs = append(qs, Query{Endpoint: epWhatIf, Provider: s.Provider})
	}
	return qs
}

// referenceBody is a body as the renderers made it before they wrote
// their own: the *Response type filled from the read model — maps built and
// left to encoding/json to sort — and marshalled, newline-terminated.
func referenceBody(t *testing.T, g *generation, q Query) []byte {
	t.Helper()
	var resp any
	switch q.Endpoint {
	case epScores:
		switch {
		case q.AllLayers:
			all := AllScoresResponse{Epoch: g.epoch, Layers: map[string]LayerScores{}}
			for _, layer := range countries.Layers {
				all.Layers[layer.String()] = LayerScores{Scores: g.scores.Scores(layer), Insularity: g.scores.Insularities(layer)}
			}
			resp = all
		case q.Country != "":
			st, _ := g.scores.Standing(q.Country, q.Layer)
			resp = CountryScoreResponse{Epoch: g.epoch, Layer: q.Layer.String(), Country: q.Country,
				Score: st.Score, Insularity: st.Insularity, Rank: st.Rank, Of: st.Of}
		default:
			resp = LayerScoresResponse{Epoch: g.epoch, Layer: q.Layer.String(),
				Scores: g.scores.Scores(q.Layer), Insularity: g.scores.Insularities(q.Layer)}
		}
	case epRankCurve:
		curve := g.scores.DistributionOf(q.Country, q.Layer).RankCurve()
		resp = RankCurveResponse{Epoch: g.epoch, Layer: q.Layer.String(), Country: q.Country, Curve: curve}
	case epCoverage:
		cov := CoverageResponse{Epoch: g.epoch, Countries: g.coverage, Degraded: dataset.Degraded(g.coverage)}
		if cov.Countries == nil {
			cov.Countries = map[string]*dataset.Coverage{}
		}
		if cov.Degraded == nil {
			cov.Degraded = []string{}
		}
		resp = cov
	case epClasses:
		c, _, err := g.classify(q.Layer)
		if err != nil {
			t.Fatal(err)
		}
		shares := map[string]map[classify.Class]float64{}
		for _, cc := range g.scores.Countries() {
			shares[cc] = classify.CountryBreakdownIndexed(g.scores, cc, q.Layer, c.res)
		}
		resp = ClassesResponse{Epoch: g.epoch, Layer: q.Layer.String(), Counts: c.res.Counts(), Shares: shares}
	case epSPOF:
		top := g.graph.TopSPOFs(q.N)
		if top == nil {
			top = []depgraph.SPOF{}
		}
		resp = SPOFResponse{Epoch: g.epoch, Top: top}
	case epWhatIf:
		imp, err := g.graph.Simulate(q.Provider)
		if err != nil {
			t.Fatal(err)
		}
		resp = WhatIfResponse{Epoch: g.epoch, Impact: imp}
	case epEpoch:
		resp = EpochResponse{Epoch: g.epoch, Generation: g.label, Swap: g.id,
			Countries: len(g.scores.Countries()), Sites: g.sites}
	default:
		t.Fatalf("no reference for endpoint %q", q.Endpoint)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("%s: reference: %v", q.Key(), err)
	}
	return append(b, '\n')
}

// TestBodiesMatchEncodingJSON is the renderers' oracle: every shape's body,
// on the pinned world and on one whose names and epoch need escaping, is
// byte for byte encoding/json's marshalling of the filled *Response type. A
// member added to a response type fails here until its renderer writes it.
func TestBodiesMatchEncodingJSON(t *testing.T) {
	for _, world := range []struct {
		name string
		g    *generation
	}{{"seed-7", pinnedWorld(t)}, {"escapes", escapeWorld()}} {
		t.Run(world.name, func(t *testing.T) {
			shapes := map[string]bool{}
			for _, q := range everyShape(world.g) {
				got, qerr := world.g.render(q)
				if qerr != nil {
					t.Fatalf("%q: render: %v", q.Key(), qerr)
				}
				if want := referenceBody(t, world.g, q); !bytes.Equal(got, want) {
					t.Errorf("%q:\n got %s\nwant %s", q.Key(), got, want)
				}
				shapes[q.Endpoint] = true
			}
			if len(shapes) != len(endpoints) {
				t.Errorf("covered %d endpoints of %d", len(shapes), len(endpoints))
			}
		})
	}

	t.Run("writer", func(t *testing.T) {
		w := newBody()
		w.open('{')
		w.key("names")
		w.open('[')
		for _, s := range escapeNames {
			w.str(s)
		}
		w.close(']')
		w.key("floats")
		w.open('[')
		for _, f := range boundaryFloats {
			w.float(f)
		}
		w.close(']')
		w.key("ints")
		w.open('[')
		for _, v := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
			w.int(v)
		}
		w.close(']')
		w.key("flags")
		w.open('[')
		w.bool(true)
		w.bool(false)
		w.close(']')
		w.close('}')
		got, qerr := w.finish()
		if qerr != nil {
			t.Fatal(qerr)
		}
		want, err := json.Marshal(struct {
			Names  []string  `json:"names"`
			Floats []float64 `json:"floats"`
			Ints   []int64   `json:"ints"`
			Flags  []bool    `json:"flags"`
		}{escapeNames, boundaryFloats, []int64{0, -1, math.MinInt64, math.MaxInt64}, []bool{true, false}})
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Errorf("\n got %s\nwant %s", got, want)
		}
	})
}

// TestNonFiniteFloatIsTyped500 holds the writer to what json.Marshal's
// error was: a NaN or an infinity in a body is a 500 naming the value, not
// a panic the cache would count in render_panics and not invalid JSON, and
// the cache drops it so the next request renders again.
func TestNonFiniteFloatIsTyped500(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		name := fmt.Sprint(f)
		renders := 0
		c := newRespCache(func(Query) ([]byte, *QueryError) {
			renders++
			w := newBody()
			w.open('{')
			w.key("score")
			w.float(0.5)
			w.key("bad")
			w.float(f)
			w.close('}')
			return w.finish()
		})
		q := Query{Endpoint: epEpoch}
		for i := 1; i <= 2; i++ {
			e, outcome := c.get(q)
			if outcome != outcomeMiss {
				t.Fatalf("%s: get %d: outcome %d, want a miss", name, i, outcome)
			}
			if e.err == nil || e.err.Status != http.StatusInternalServerError || !strings.Contains(e.err.Msg, name) {
				t.Fatalf("%s: got body %q, error %+v; want a 500 naming %s", name, e.body, e.err, name)
			}
		}
		if renders != 2 {
			t.Errorf("%s: two requests rendered %d times: the 500 was cached", name, renders)
		}
	}
}

// TestCachedBodiesCarryNoSlack keeps what the cache holds to the size of
// what it serves: a body's capacity is its length within size-class
// slack, as json.Marshal's were, for every shape on the pinned world.
func TestCachedBodiesCarryNoSlack(t *testing.T) {
	g := pinnedWorld(t)
	for _, q := range everyShape(g) {
		e, _ := g.cache.get(q)
		if e.err != nil {
			t.Fatalf("%q: %v", q.Key(), e.err)
		}
		if n, c := len(e.body), cap(e.body); c > n+n/8+64 {
			t.Errorf("%q: cached body of %d bytes holds %d", q.Key(), n, c)
		}
	}
}
