// Package webdepd is the score-query daemon: an HTTP server answering
// per-country dependence questions — centralization scores, rank curves,
// coverage, provider-class shares, SPOF rankings, what-if simulations —
// over a loaded corpus, at a throughput far beyond re-scoring per request.
//
// The perf core is a pre-serialized response cache. Every endpoint's JSON
// body is a pure function of the corpus, so it is rendered to bytes once
// per (corpus generation, query shape) and served verbatim after that: a
// cache hit does zero scoring, zero graph traversal, and zero JSON
// encoding. Cold keys are built under singleflight coalescing — K
// concurrent requests for the same cold key trigger exactly one render.
// A generation is immutable; the daemon checks that on every request
// against the corpus's scoring-index snapshot (the invalidation contract
// Corpus.Derived uses), so a corpus mutated underneath it is a loud 500,
// never stale bytes.
//
// Epoch hot-swap: when the daemon is started over a store-generation root
// (corpusstore.LatestGeneration's layout), POST /reload — or SIGHUP via
// the CLI — loads the newest complete generation, builds a fresh
// generation value, and swaps one atomic pointer. In-flight requests
// finish on the snapshot they loaded; new requests see the new corpus;
// the old generation's corpus, index, and cache are dropped whole and
// garbage-collected. There is no torn state: a response is always
// entirely from one generation.
package webdepd

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// Config configures a Daemon. Exactly one corpus source is required:
// Corpus serves a fixed in-memory corpus (reloads refused), StoreRoot
// serves the newest complete store generation under the root and enables
// hot reloads.
type Config struct {
	// Corpus is an in-memory corpus to serve as the single generation.
	Corpus *dataset.Corpus

	// StoreRoot is a generation root (or bare store directory); the
	// daemon serves its latest complete generation and reloads from it.
	StoreRoot string

	// Workers bounds load/scoring concurrency; 0 means GOMAXPROCS.
	Workers int

	// Obs receives the daemon's metrics; nil means a private registry.
	Obs *obs.Registry
}

// generation is one immutable serving epoch: a corpus, its response
// cache, and the scoring-index snapshot the cache is valid for. The
// daemon swaps whole generations atomically and never mutates one.
type generation struct {
	corpus *dataset.Corpus
	id     int64  // swap counter: 0 for the initial load, +1 per reload
	label  string // store generation name, or "memory" for Config.Corpus
	cache  *respCache
	snap   any // corpus.SnapshotKey() captured when the generation was built
}

// newGeneration wraps a loaded corpus for serving. Capturing SnapshotKey
// here forces the scoring index to build once, eagerly, so the first
// request pays only its own render.
func newGeneration(c *dataset.Corpus, label string, id int64) *generation {
	return &generation{corpus: c, label: label, id: id, cache: newRespCache(), snap: c.SnapshotKey()}
}

// metrics holds the daemon's SLO surfaces, pre-resolved so the hit path
// never does a registry lookup.
type metrics struct {
	requests  *obs.Counter // webdepd.requests — every /api request
	hits      *obs.Counter // webdepd.hits — served from cached bytes
	misses    *obs.Counter // webdepd.misses — this request rendered the body
	coalesced *obs.Counter // webdepd.coalesced — waited on another request's render
	errors4xx *obs.Counter // webdepd.errors_4xx — rejected queries
	errors5xx *obs.Counter // webdepd.errors_5xx — render failures
	panics    *obs.Counter // webdepd.render_panics — renders that panicked (each also a miss and a 5xx)
	reloads   *obs.Counter // webdepd.reloads — successful generation swaps
	reloadErr *obs.Counter // webdepd.reload_errors — refused or failed reloads
	inflight  *obs.Gauge   // webdepd.inflight — /api requests being served now
	reloadMS  *obs.Histogram
	endpoint  map[string]*obs.Histogram // webdepd.<endpoint>.ms latency
}

func newMetrics(r *obs.Registry) *metrics {
	m := &metrics{
		requests:  r.Counter("webdepd.requests"),
		hits:      r.Counter("webdepd.hits"),
		misses:    r.Counter("webdepd.misses"),
		coalesced: r.Counter("webdepd.coalesced"),
		errors4xx: r.Counter("webdepd.errors_4xx"),
		errors5xx: r.Counter("webdepd.errors_5xx"),
		panics:    r.Counter("webdepd.render_panics"),
		reloads:   r.Counter("webdepd.reloads"),
		reloadErr: r.Counter("webdepd.reload_errors"),
		inflight:  r.Gauge("webdepd.inflight"),
		reloadMS:  r.Timing("webdepd.reload.ms"),
		endpoint:  make(map[string]*obs.Histogram, len(endpoints)),
	}
	for _, ep := range endpoints {
		m.endpoint[ep] = r.Timing("webdepd." + ep + ".ms")
	}
	return m
}

// Daemon is a running score-query server. Start it with Start, stop it
// with Close, swap its corpus with Reload (or POST /reload).
type Daemon struct {
	// Addr is the address actually listening — useful with port 0.
	Addr string

	cfg      Config
	gen      atomic.Pointer[generation]
	reloadMu sync.Mutex // serializes Reload; requests never take it
	m        *metrics
	mux      *http.ServeMux
	srv      *http.Server
	ln       net.Listener
}

// Handler exposes the daemon's full HTTP handler for in-process drivers
// — the loadtest harness's socketless mode and embedding tests.
func (d *Daemon) Handler() http.Handler { return d.mux }

// Start loads the configured corpus source, binds addr, and serves. The
// returned daemon is already answering queries.
func Start(addr string, cfg Config) (*Daemon, error) {
	if (cfg.Corpus == nil) == (cfg.StoreRoot == "") {
		return nil, fmt.Errorf("webdepd: exactly one of Corpus or StoreRoot must be set")
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d := &Daemon{cfg: cfg, m: newMetrics(reg)}

	var gen *generation
	if cfg.Corpus != nil {
		if cfg.Workers > 0 {
			cfg.Corpus.Workers = cfg.Workers
		}
		gen = newGeneration(cfg.Corpus, "memory", 0)
	} else {
		var err error
		if gen, err = d.loadGeneration(0); err != nil {
			return nil, err
		}
	}
	d.gen.Store(gen)

	d.mux = http.NewServeMux()
	d.mux.HandleFunc("/api/", d.handleAPI)
	d.mux.HandleFunc("/healthz", handleHealthz)
	d.mux.HandleFunc("/reload", d.handleReload)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("webdepd: listen: %w", err)
	}
	d.ln = ln
	d.Addr = ln.Addr().String()
	d.srv = &http.Server{Handler: d.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = d.srv.Serve(ln) }()
	return d, nil
}

// closeGrace bounds how long Close waits for in-flight responses.
const closeGrace = 2 * time.Second

// Close stops the daemon gracefully: the listener closes immediately,
// in-flight requests get a short grace to finish, stragglers are severed.
func (d *Daemon) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		return d.srv.Close()
	}
	return nil
}

// Generation reports the serving generation's label and swap id.
func (d *Daemon) Generation() (label string, swap int64) {
	g := d.gen.Load()
	return g.label, g.id
}

// Reload loads the newest complete store generation and atomically swaps
// it in. In-flight requests finish on the old generation; the old corpus
// and its cache are released whole. Refused when the daemon serves a
// fixed in-memory corpus.
func (d *Daemon) Reload() (label string, err error) {
	gen, err := d.reload()
	if err != nil {
		return "", err
	}
	return gen.label, nil
}

// reload is Reload handing back the generation it installed: whichever is
// serving by the time the caller looks may be a concurrent reload's.
func (d *Daemon) reload() (*generation, error) {
	d.reloadMu.Lock()
	defer d.reloadMu.Unlock()
	if d.cfg.StoreRoot == "" {
		d.m.reloadErr.Inc()
		return nil, fmt.Errorf("webdepd: daemon serves a fixed in-memory corpus; reload needs a store root")
	}
	sp := obs.StartSpan(d.m.reloadMS)
	gen, err := d.loadGeneration(d.gen.Load().id + 1)
	if err != nil {
		d.m.reloadErr.Inc()
		return nil, err
	}
	d.gen.Store(gen)
	sp.End()
	d.m.reloads.Inc()
	return gen, nil
}

// loadGeneration resolves and loads the newest complete generation under
// the store root.
func (d *Daemon) loadGeneration(id int64) (*generation, error) {
	dir, label, err := corpusstore.LatestGeneration(d.cfg.StoreRoot)
	if err != nil {
		return nil, err
	}
	st, err := corpusstore.Open(dir, &corpusstore.Options{Workers: d.cfg.Workers})
	if err != nil {
		return nil, err
	}
	corpus, err := st.Load()
	if err != nil {
		return nil, err
	}
	if d.cfg.Workers > 0 {
		corpus.Workers = d.cfg.Workers
	}
	return newGeneration(corpus, label, id), nil
}

// respond serves q from the generation's cache. Generations are immutable,
// and the one atomic pointer comparison here holds them to it: a corpus
// whose snapshot moved since the generation was built cannot be answered
// from the cache keyed on the old snapshot, and is refused, uncached.
func (d *Daemon) respond(g *generation, q Query) (*cacheEntry, cacheOutcome) {
	if g.corpus.SnapshotKey() != g.snap {
		return &cacheEntry{err: &QueryError{Status: http.StatusInternalServerError,
			Msg: "served corpus mutated: a generation is immutable, swap in a new one"}}, outcomeRefused
	}
	return g.cache.get(g, q)
}

// handleAPI is the query hot path. On a cache hit it does: one counter
// increment, a gauge add/sub, query parse (allocation-free for clean
// input), one key build, one sync.Map load, two header assignments (the
// Content-Length value is the entry's, built at render time) and a verbatim
// byte write — no scoring, no JSON encoding, no locks. BenchmarkCachedHit
// pins the allocation count.
func (d *Daemon) handleAPI(w http.ResponseWriter, r *http.Request) {
	d.m.requests.Inc()
	if r.Method != http.MethodGet {
		d.m.errors4xx.Inc()
		writeError(w, &QueryError{Status: http.StatusMethodNotAllowed, Msg: "score queries are GET-only"})
		return
	}
	d.m.inflight.Add(1)
	defer d.m.inflight.Add(-1)

	q, qerr := ParseQuery(r.URL.Path, r.URL.RawQuery)
	if qerr != nil {
		d.m.errors4xx.Inc()
		writeError(w, qerr)
		return
	}
	sp := obs.StartSpan(d.m.endpoint[q.Endpoint])
	e, outcome := d.respond(d.gen.Load(), q)
	sp.End()
	switch outcome {
	case outcomeHit:
		d.m.hits.Inc()
	case outcomeMiss:
		d.m.misses.Inc()
	case outcomeCoalesced:
		d.m.coalesced.Inc()
	case outcomePanicked:
		d.m.misses.Inc()
		d.m.panics.Inc()
	}
	if e.err != nil {
		if e.err.Status >= 500 {
			d.m.errors5xx.Inc()
		} else {
			d.m.errors4xx.Inc()
		}
		writeError(w, e.err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h["Content-Length"] = e.contentLength
	w.Write(e.body)
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// handleReload answers POST /reload by swapping to the newest store
// generation. GET is refused (reload is a mutation); a failed reload
// keeps serving the old generation and reports the failure.
func (d *Daemon) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &QueryError{Status: http.StatusMethodNotAllowed, Msg: "reload is POST-only"})
		return
	}
	g, err := d.reload()
	if err != nil {
		writeError(w, &QueryError{Status: http.StatusConflict, Msg: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"generation": g.label,
		"epoch":      g.corpus.Epoch,
		"swap":       g.id,
	})
}

// writeError emits the uniform JSON error body for a typed rejection.
func writeError(w http.ResponseWriter, qerr *QueryError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(qerr.Status)
	json.NewEncoder(w).Encode(ErrorResponse{Status: qerr.Status, Error: qerr.Msg})
}
