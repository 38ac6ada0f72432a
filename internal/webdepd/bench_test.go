package webdepd

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"testing"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// benchDaemon serves a mid-sized world for the hot-path benchmarks.
func benchDaemon(b *testing.B) *Daemon {
	b.Helper()
	corpus := worldCorpus(b, 42, 400, []string{"US", "DE", "JP", "IN", "BR", "FR"})
	return startDaemon(b, Config{Corpus: corpus})
}

// BenchmarkCachedHit is the alloc-regression pin for the cache-hit path:
// the full handler — parse, key, lookup, write — against a warmed cache,
// with the network and ResponseWriter stripped out. Throughput here is
// the daemon's per-core ceiling; ReportAllocs is the regression gate.
func BenchmarkCachedHit(b *testing.B) {
	d := benchDaemon(b)
	req := httptest.NewRequest(http.MethodGet, "http://x/api/scores?layer=hosting&country=DE", nil)
	w := &nullWriter{h: make(http.Header)}
	d.handleAPI(w, req) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.handleAPI(w, req)
	}
}

// BenchmarkCachedHitParallel drives the same hit path from all cores —
// the contention picture: one sync.Map load and a handful of atomics per
// request, no locks.
func BenchmarkCachedHitParallel(b *testing.B) {
	d := benchDaemon(b)
	warm := httptest.NewRequest(http.MethodGet, "http://x/api/scores?layer=hosting", nil)
	d.handleAPI(&nullWriter{h: make(http.Header)}, warm)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest(http.MethodGet, "http://x/api/scores?layer=hosting", nil)
		w := &nullWriter{h: make(http.Header)}
		for pb.Next() {
			d.handleAPI(w, req)
		}
	})
}

// BenchmarkColdRender prices what a cache miss pays, one sub-benchmark per
// query shape of a dashboard: the render from the read model and the JSON
// encode. The classes shape is the carried one — the read model already
// holds the clustering, as after a reload of an unchanged store. The
// hit/miss ratio of these and BenchmarkCachedHit is the cache's value.
func BenchmarkColdRender(b *testing.B) {
	corpus := worldCorpus(b, 42, 400, []string{"US", "DE", "JP", "IN", "BR", "FR"})
	g := direct(corpus, "memory", 0)
	top := g.graph.TopSPOFs(1)[0].Provider
	for _, shape := range []struct{ name, path, query string }{
		{"scores", "/api/scores", ""},
		{"scores-tld", "/api/scores", "layer=tld"},
		{"country-score", "/api/scores", "layer=hosting&country=DE"},
		{"spof-10", "/api/spof", "n=10"},
		{"classes-carried", "/api/classes", "layer=hosting"},
		{"what-if", "/api/what-if", "provider=" + url.QueryEscape(top)},
	} {
		b.Run(shape.name, func(b *testing.B) {
			q, qerr := ParseQuery(shape.path, shape.query)
			if qerr != nil {
				b.Fatal(qerr)
			}
			if _, qerr := g.render(q); qerr != nil { // carries the classes
				b.Fatal(qerr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, qerr := g.render(q); qerr != nil {
					b.Fatal(qerr)
				}
			}
		})
	}
}

// BenchmarkReloadUnchanged is the timer-driven loop's steady state: reload a
// store root nothing has been written to, then render classes?layer=hosting
// cold. "ap-runs/op" is how many of those renders ran affinity propagation,
// and CI fails unless it reads 0 — every one shares generation 0's read
// model, and with it the classification.
func BenchmarkReloadUnchanged(b *testing.B) {
	root := b.TempDir()
	saveGeneration(b, root, "gen-0001", reloadCorpus(b, 400))
	benchReload(b, root, func(int) {})
}

// BenchmarkReloadChanged is the other side: every reload lands a store the
// daemon is not serving (two generations, the newer hidden and shown in
// turn), so each pays the scan and the clustering — ap-runs/op reads 1.
func BenchmarkReloadChanged(b *testing.B) {
	root := b.TempDir()
	saveGeneration(b, root, "gen-0001", reloadCorpus(b, 400))
	saveGeneration(b, root, "gen-0002", reloadCorpus(b, 300))
	shown, hidden := root+"/gen-0002", root+"/gen-0002.tmp" // Generations skips *.tmp
	benchReload(b, root, func(i int) {
		from, to := shown, hidden
		if i%2 == 1 {
			from, to = hidden, shown
		}
		if err := os.Rename(from, to); err != nil {
			b.Fatal(err)
		}
	})
}

func reloadCorpus(b *testing.B, sites int) *dataset.Corpus {
	return worldCorpus(b, 42, sites, []string{"US", "DE", "JP", "IN", "BR", "FR"})
}

// benchReload times b.N rounds of land(i), a reload and one cold
// classes?layer=hosting, and reports how many of the renders clustered.
func benchReload(b *testing.B, root string, land func(i int)) {
	reg := obs.NewRegistry()
	d := startDaemon(b, Config{StoreRoot: root, Obs: reg})
	req := httptest.NewRequest(http.MethodGet, "http://x/api/classes?layer=hosting", nil)
	w := &nullWriter{h: make(http.Header)}
	d.handleAPI(w, req) // generation 0 pays for its clustering outside the loop
	before, _, _ := classesCounters(reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		land(i)
		mustReload(b, d)
		d.handleAPI(w, req)
	}
	b.StopTimer()
	clustered, carried, _ := classesCounters(reg)
	ran := clustered - before
	if ran+carried != int64(b.N) {
		b.Fatalf("%d reloads rendered classes cold %d times", b.N, ran+carried)
	}
	b.ReportMetric(float64(ran)/float64(b.N), "ap-runs/op")
}
