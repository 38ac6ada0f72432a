// Package webdepd is the score-query daemon: an HTTP server answering
// per-country dependence questions — centralization scores, rank curves,
// coverage, provider-class shares, SPOF rankings, what-if simulations —
// over a measured corpus, at a throughput far beyond re-scoring per request.
//
// The daemon never holds a website row. Every number it serves is a
// function of per-(country, layer) provider counts, so a generation is a
// read model of exactly that: the frozen scoring surface
// (dataset.ScoreSet), the provider dependency graph, the coverage
// accounting and the site count. A store is turned into one by a single
// symbol-ID scan feeding one tally per country (depgraph.ScanStore); an in-memory
// corpus by its scoring index and depgraph.Build, once, at Start. The
// renderers have one code path and cannot tell which source it was, and
// the resident set is O(providers × countries), not O(sites).
//
// The perf core is a pre-serialized response cache. Every endpoint's JSON
// body is a pure function of the generation, so it is rendered to bytes
// once per (generation, query shape) and served verbatim after that: a
// cache hit does zero scoring, zero graph traversal, and zero JSON
// encoding. Cold keys are built under singleflight coalescing — K
// concurrent requests for the same cold key trigger exactly one render.
// A generation is immutable by construction: it points at nothing a caller
// can mutate (the scoring surface is a frozen snapshot, the coverage map a
// private copy), so there is nothing to check per request.
//
// Epoch hot-swap: when the daemon is started over a store-generation root
// (corpusstore.LatestGeneration's layout), POST /reload — or SIGHUP via
// the CLI — scans the newest complete generation, builds a fresh
// generation value, and swaps one atomic pointer. In-flight requests
// finish on the snapshot they loaded; new requests see the new epoch;
// the old generation's read model and cache are dropped whole and
// garbage-collected. There is no torn state: a response is always
// entirely from one generation.
//
// A reload that finds the store it is already serving — the usual one, for a
// loop that reloads on a timer rather than on a write — scans nothing: the
// new generation shares its predecessor's read model, provider classes
// included, and gets a swap id and an empty cache of its own. Nothing is
// shared between generations read from different stores.
package webdepd

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/obs"
)

// Config configures a Daemon. Exactly one corpus source is required:
// Corpus serves a fixed in-memory corpus (reloads refused), StoreRoot
// serves the newest complete store generation under the root and enables
// hot reloads.
type Config struct {
	// Corpus is an in-memory corpus to serve as the single generation. Start
	// takes what it needs from it and keeps no reference: the corpus stays
	// the caller's to mutate, and the daemon keeps serving what it saw.
	Corpus *dataset.Corpus

	// StoreRoot is a generation root (or bare store directory); the
	// daemon serves its latest complete generation and reloads from it.
	StoreRoot string

	// Workers bounds load/scoring concurrency; 0 means GOMAXPROCS.
	Workers int

	// Obs receives the daemon's metrics; nil means a private registry.
	Obs *obs.Registry
}

// generation is one serving epoch: a read model, a swap id and the response
// cache, complete before the daemon's pointer swap. Nothing in it is
// reachable from outside the daemon.
type generation struct {
	id int64 // swap counter: 0 for the initial load, +1 per reload
	*model
	m     *metrics
	cache *respCache
}

// model is the read model every renderer queries: what one store, or the
// in-memory corpus, said. Nothing after construction writes to it but
// classify, under its lock. Generations that reloaded the same store share
// one; it is dropped whole with the last of them.
type model struct {
	label    string // store generation name, or "memory" for Config.Corpus
	epoch    string
	scores   *dataset.ScoreSet
	graph    *depgraph.Graph
	coverage map[string]*dataset.Coverage // the model's own; nil when the source carried none
	sites    int
	manifest os.FileInfo // the store's manifest as the load found it; nil for Config.Corpus

	mu      sync.Mutex
	classes map[countries.Layer]*classes // a layer's provider classes, once some generation has asked
}

// classes is one layer's provider classification as /api/classes serves
// it: the result, its census and every country's share of measured sites
// per class. All three are computed together, on the first successful
// clustering, and only read afterwards.
type classes struct {
	res    *classify.Result
	counts map[classify.Class]int
	shares map[string]map[classify.Class]float64
}

// classify returns the layer's provider classes, clustering and tallying
// the shares the first time a generation over this model asks; carried
// says a sibling's or this one's earlier render already had. The lock is
// not held across the kernel: two generations that ask together both
// cluster, to equal results. Only a success is remembered.
func (m *model) classify(layer countries.Layer) (c *classes, carried bool, err error) {
	m.mu.Lock()
	c = m.classes[layer]
	m.mu.Unlock()
	if c != nil {
		return c, true, nil
	}
	res, err := classify.Layer(m.scores, layer, classify.DefaultOptions())
	if err != nil {
		return nil, false, err
	}
	ccs := m.scores.Countries()
	c = &classes{res: res, counts: res.Counts(), shares: make(map[string]map[classify.Class]float64, len(ccs))}
	for _, cc := range ccs {
		c.shares[cc] = classify.CountryBreakdownIndexed(m.scores, cc, layer, res)
	}
	m.mu.Lock()
	if m.classes == nil {
		m.classes = make(map[countries.Layer]*classes, len(countries.Layers))
	}
	m.classes[layer] = c
	m.mu.Unlock()
	return c, false, nil
}

// serve wraps a read model as the generation with swap id.
func (d *Daemon) serve(m *model, id int64) *generation {
	g := &generation{id: id, model: m, m: d.m}
	g.cache = newRespCache(g.render)
	return g
}

// corpusModel snapshots an in-memory corpus. The scoring surface and the
// graph are frozen copies by construction; the coverage map is mutated in
// place by SetCoverage, and its values by a crawl still running, so both
// are copied.
func corpusModel(c *dataset.Corpus, label string, workers int) *model {
	m := &model{
		label: label, epoch: c.Epoch,
		scores:   c.ScoreSet(),
		graph:    depgraph.Build(c, &depgraph.Options{Workers: workers}),
		coverage: make(map[string]*dataset.Coverage, len(c.CoverageByCountry)),
		sites:    c.TotalSites(),
	}
	for cc, cov := range c.CoverageByCountry {
		own := *cov
		m.coverage[cc] = &own
	}
	return m
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
	unchanged *obs.Counter // webdepd.reloads_unchanged — of those, the ones that found the store already served
	reloadErr *obs.Counter // webdepd.reload_errors — refused or failed reloads
	clustered *obs.Counter // webdepd.classes.clustered — cold classes renders that ran affinity propagation
	carried   *obs.Counter // webdepd.classes.carried — cold classes renders whose read model already held the result
	capped    *obs.Counter // webdepd.classes.capped — clusterings cut off at MaxIterations, not converged
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
		unchanged: r.Counter("webdepd.reloads_unchanged"),
		reloadErr: r.Counter("webdepd.reload_errors"),
		clustered: r.Counter("webdepd.classes.clustered"),
		carried:   r.Counter("webdepd.classes.carried"),
		capped:    r.Counter("webdepd.classes.capped"),
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

	storeRoot string // "" when serving a fixed in-memory corpus
	workers   int
	gen       atomic.Pointer[generation]
	reloadMu  sync.Mutex // serializes Reload; requests never take it
	m         *metrics
	mux       *http.ServeMux
	srv       *http.Server
	ln        net.Listener
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
	d := &Daemon{storeRoot: cfg.StoreRoot, workers: cfg.Workers, m: newMetrics(reg)}

	var m *model
	if cfg.Corpus != nil {
		m = corpusModel(cfg.Corpus, "memory", cfg.Workers)
	} else {
		var err error
		if m, err = d.loadModel(nil); err != nil {
			return nil, err
		}
	}
	d.gen.Store(d.serve(m, 0))

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

// Reload resolves the newest complete store generation and atomically
// swaps to it: scanned, when it is not the store already being served, and
// otherwise over the serving read model as it is. In-flight requests finish
// on the old generation; its cache, and its read model once no generation
// shares it, are released whole. Refused when the daemon serves a fixed
// in-memory corpus.
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
	if d.storeRoot == "" {
		d.m.reloadErr.Inc()
		return nil, fmt.Errorf("webdepd: daemon serves a fixed in-memory corpus; reload needs a store root")
	}
	sp := obs.StartSpan(d.m.reloadMS)
	cur := d.gen.Load()
	m, err := d.loadModel(cur.model)
	if err != nil {
		d.m.reloadErr.Inc()
		return nil, err
	}
	gen := d.serve(m, cur.id+1)
	d.gen.Store(gen)
	sp.End()
	d.m.reloads.Inc()
	if m == cur.model {
		d.m.unchanged.Inc()
	}
	return gen, nil
}

// loadModel resolves the newest complete generation under the store root
// and returns serving itself when that is the store it was read from;
// otherwise it scans the store, once, into both surfaces. The manifest's
// coverage map is immutable after Open and its row counts are cross-checked
// against the decoded rows by the scan, so both are used as they are.
func (d *Daemon) loadModel(serving *model) (*model, error) {
	dir, label, err := corpusstore.LatestGeneration(d.storeRoot)
	if err != nil {
		return nil, err
	}
	// Stat before Open: a store replaced in between is scanned under the old
	// manifest's identity, which costs the next reload a scan, never a stale
	// answer.
	manifest, err := os.Stat(filepath.Join(dir, corpusstore.ManifestName))
	if err != nil {
		return nil, err
	}
	if serving != nil && serving.label == label && sameFile(serving.manifest, manifest) {
		return serving, nil
	}
	st, err := corpusstore.Open(dir, &corpusstore.Options{Workers: d.workers})
	if err != nil {
		return nil, err
	}
	scores, graph, err := depgraph.ScanStore(st, &depgraph.Options{Workers: d.workers})
	if err != nil {
		return nil, err
	}
	return &model{
		label: label, epoch: st.Epoch(),
		scores: scores, graph: graph,
		coverage: st.Coverage(),
		sites:    int(st.TotalSites()),
		manifest: manifest,
	}, nil
}

// sameFile says two stats of a store's manifest saw one file, unmodified. A
// store's manifest is written last, once, by rename, and Create refuses a
// directory that holds one, so a store written over a served path — the
// bare-store layout, where the label is always "." — has a manifest that is
// a different file. Size and modification time are there for a file system
// that hands the removed one's identity to the new one.
func sameFile(a, b os.FileInfo) bool {
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
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
	e, outcome := d.gen.Load().cache.get(q)
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
		"epoch":      g.epoch,
		"swap":       g.id,
	})
}

// writeError emits the uniform JSON error body for a typed rejection.
func writeError(w http.ResponseWriter, qerr *QueryError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(qerr.Status)
	json.NewEncoder(w).Encode(ErrorResponse{Status: qerr.Status, Error: qerr.Msg})
}
