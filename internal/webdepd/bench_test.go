package webdepd

import (
	"net/http"
	"net/http/httptest"
	"testing"
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

// BenchmarkColdRender prices what a cache miss pays: a full score +
// insularity render and JSON encode of one layer. The hit/miss ratio of
// these two benchmarks is the cache's entire value proposition.
func BenchmarkColdRender(b *testing.B) {
	corpus := worldCorpus(b, 42, 400, []string{"US", "DE", "JP", "IN", "BR", "FR"})
	g := corpusGeneration(corpus, "memory", 0, 0)
	q, qerr := ParseQuery("/api/scores", "layer=hosting")
	if qerr != nil {
		b.Fatal(qerr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, qerr := g.render(q); qerr != nil {
			b.Fatal(qerr)
		}
	}
}
