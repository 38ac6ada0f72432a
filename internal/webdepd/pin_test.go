package webdepd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/url"
	"strconv"
	"testing"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

// TestResponseBodiesPinned freezes every byte the renderers produce for one
// world, so a renderer or read-model change must serve what the old one
// served. TestEndpointsCrossCheck cannot catch that: its reference renders
// through the same code. The world is worldgen's golden seed-7 10 × 600
// world; the digest covers, in this order, scores and rank curves for every
// (layer, country), each layer's scores, each layer's classes, the
// all-layer scores, coverage, epoch, the SPOF table at the default n and at
// 5, 10 and 20, and the what-if of each of the top 20 SPOFs. The digest was
// recorded from renderers that sorted, clustered shares and ranked SPOFs
// per request.
func TestResponseBodiesPinned(t *testing.T) {
	const want = "604d18357ef371fb38e649f7da87d389f977c7bca5ca93b9fa411399aba7b3fc"
	ccs := []string{"AU", "BR", "CZ", "DE", "IN", "IR", "JP", "TH", "US", "ZA"}
	w, err := worldgen.Build(worldgen.Config{Seed: 7, SitesPerCountry: 600, DomesticPerCountry: 30, Countries: ccs})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	g := direct(corpus, "memory", 0)

	var paths []string
	for _, layer := range countries.Layers {
		for _, cc := range ccs {
			paths = append(paths,
				"/api/scores?layer="+layer.String()+"&country="+cc,
				"/api/rankcurve?layer="+layer.String()+"&country="+cc)
		}
	}
	for _, layer := range countries.Layers {
		paths = append(paths, "/api/scores?layer="+layer.String())
	}
	for _, layer := range countries.Layers {
		paths = append(paths, "/api/classes?layer="+layer.String())
	}
	paths = append(paths, "/api/scores", "/api/coverage", "/api/epoch",
		"/api/spof", "/api/spof?n=5", "/api/spof?n=10", "/api/spof?n=20")
	var top SPOFResponse
	if err := json.Unmarshal(mustRender(t, g, "/api/spof?n=20"), &top); err != nil {
		t.Fatal(err)
	}
	if len(top.Top) != 20 {
		t.Fatalf("world has %d SPOFs, want 20", len(top.Top))
	}
	for _, s := range top.Top {
		paths = append(paths, "/api/what-if?provider="+url.QueryEscape(s.Provider))
	}

	h := sha256.New()
	for _, path := range paths {
		body := mustRender(t, g, path)
		h.Write([]byte(strconv.Itoa(len(body))))
		h.Write(body)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest over %d bodies = %s, want %s", len(paths), got, want)
	}
}

// mustRender renders one request path against g.
func mustRender(t *testing.T, g *generation, path string) []byte {
	t.Helper()
	body, qerr := g.render(parsePath(t, path))
	if qerr != nil {
		t.Fatalf("%s: render: %v", path, qerr)
	}
	return body
}
