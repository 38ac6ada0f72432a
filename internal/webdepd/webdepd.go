// Package webdepd is the score-query daemon: an HTTP server answering
// per-country dependence questions — centralization scores, rank curves,
// coverage, provider-class shares, SPOF rankings, what-if simulations —
// over a measured corpus, at a throughput far beyond re-scoring per request.
//
// The daemon never holds a website row. Every number it serves is a
// function of per-(country, layer) provider counts, so a generation is a
// read model of exactly that: the frozen scoring surface
// (dataset.ScoreSet), the provider dependency graph, the coverage
// accounting and the site count. A source — a store, or an in-memory corpus
// at Start — is turned into one by a single symbol-ID scan feeding one
// tally per country (depgraph.Scan). The renderers have one code path and
// cannot tell which source it was, and the resident set is
// O(providers × countries), not O(sites).
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
//
// The socket is answered by the package's own HTTP/1.1 connection loop
// (conn.go, request.go), not by net/http's server: one read and one write
// per request, dispatched through the same route Handler answers through.
package webdepd

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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
// per class, the census and each country's shares in class-name order and
// the countries in code order — ClassesResponse's map members in the order
// encoding/json writes them. All three are computed together, on the first
// successful clustering, and only read afterwards.
type classes struct {
	res    *classify.Result
	counts []classValue[int]
	shares []countryShares
}

// classValue is one class's member of a census or a country's shares.
type classValue[V int | float64] struct {
	class classify.Class
	v     V
}

// countryShares is one country's share of measured sites per class.
type countryShares struct {
	country string
	shares  []classValue[float64]
}

// byClass returns m's members sorted by class name.
func byClass[V int | float64](m map[classify.Class]V) []classValue[V] {
	out := make([]classValue[V], 0, len(m))
	for c, v := range m {
		out = append(out, classValue[V]{c, v})
	}
	slices.SortFunc(out, func(a, b classValue[V]) int { return strings.Compare(string(a.class), string(b.class)) })
	return out
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
	ccs := m.scores.Countries() // sorted
	c = &classes{res: res, counts: byClass(res.Counts()), shares: make([]countryShares, len(ccs))}
	for i, cc := range ccs {
		c.shares[i] = countryShares{cc, byClass(classify.CountryBreakdownIndexed(m.scores, cc, layer, res))}
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

// corpusModel snapshots an in-memory corpus, scanning its rows once into
// both surfaces, as a store is. The scoring surface and the graph are frozen
// copies by construction; the coverage map is mutated in place by
// SetCoverage, and its values by a crawl still running, so both are copied.
func corpusModel(c *dataset.Corpus, label string, workers int) (m *model, err error) {
	m = &model{
		label: label, epoch: c.Epoch,
		coverage: make(map[string]*dataset.Coverage, len(c.CoverageByCountry)),
		sites:    c.TotalSites(),
	}
	for cc, cov := range c.CoverageByCountry {
		own := *cov
		m.coverage[cc] = &own
	}
	m.scores, m.graph, err = depgraph.Scan(c, &depgraph.Options{Workers: workers})
	return m, err
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

	ln      net.Listener
	connMu  sync.Mutex         // guards conns; closing is stored under it
	conns   map[*conn]struct{} // open connections
	closing atomic.Bool
	connWG  sync.WaitGroup // the accept goroutine and one per connection
}

// Handler exposes the daemon's routes as an http.Handler for in-process
// drivers — the loadtest harness's socketless mode, the benchmark and
// embedding tests. It answers through route, as the socket does, and sets
// the reply's Content-Type and, for a body from the cache, its
// Content-Length.
func (d *Daemon) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := d.route(r.Method, r.URL.Path, r.URL.RawQuery)
		h := w.Header()
		h["Content-Type"] = rep.contentType
		if rep.contentLength != nil {
			h["Content-Length"] = rep.contentLength
		}
		w.WriteHeader(rep.status)
		w.Write(rep.body)
	})
}

// Start loads the configured corpus source, binds addr, and serves. The
// returned daemon is already answering queries.
func Start(addr string, cfg Config) (*Daemon, error) {
	d, err := newDaemon(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("webdepd: listen: %w", err)
	}
	d.start(ln)
	return d, nil
}

// newDaemon loads the configured corpus source. It listens on nothing until
// start.
func newDaemon(cfg Config) (*Daemon, error) {
	if (cfg.Corpus == nil) == (cfg.StoreRoot == "") {
		return nil, fmt.Errorf("webdepd: exactly one of Corpus or StoreRoot must be set")
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d := &Daemon{storeRoot: cfg.StoreRoot, workers: cfg.Workers, m: newMetrics(reg)}

	load := d.loadModel
	if cfg.Corpus != nil {
		load = func(*model) (*model, error) { return corpusModel(cfg.Corpus, "memory", cfg.Workers) }
	}
	m, err := load(nil)
	if err != nil {
		return nil, err
	}
	d.gen.Store(d.serve(m, 0))
	return d, nil
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
func (d *Daemon) loadModel(serving *model) (m *model, err error) {
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
	m = &model{
		label: label, epoch: st.Epoch(),
		coverage: st.Coverage(),
		sites:    int(st.TotalSites()),
		manifest: manifest,
	}
	m.scores, m.graph, err = depgraph.Scan(st, &depgraph.Options{Workers: d.workers})
	return m, err
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

// reply is one response as route returns it, for the connection loop or
// Handler to frame.
type reply struct {
	status      int
	contentType []string // jsonType or textType
	body        []byte
	// contentLength is the cache entry's Content-Length value, for a body
	// from the cache; nil otherwise.
	contentLength []string
}

// The Content-Type values of a reply, shared as header values so that
// Handler sets them without allocating.
var (
	jsonType = []string{"application/json"}
	textType = []string{"text/plain; charset=utf-8"}
)

var healthz = reply{status: http.StatusOK, contentType: textType, body: []byte("ok\n")}

// route answers one request: the one dispatch the socket and Handler share.
// A path outside the three routes is a JSON 404.
func (d *Daemon) route(method, path, rawQuery string) reply {
	switch {
	case strings.HasPrefix(path, "/api/"):
		return d.handleAPI(method, path, rawQuery)
	case path == "/healthz":
		return healthz
	case path == "/reload":
		return d.handleReload(method)
	}
	return errorReply(notFound("unknown path %q", clip(path)))
}

// handleAPI is the query hot path. On a cache hit it does: one counter
// increment, a gauge add/sub, query parse (allocation-free for clean
// input), one key build and one sync.Map load, and replies with the
// entry's bytes and Content-Length value as they are — no scoring, no JSON
// encoding, no locks. TestHitPathAllocs pins the allocation count.
func (d *Daemon) handleAPI(method, path, rawQuery string) reply {
	d.m.requests.Inc()
	if method != http.MethodGet {
		d.m.errors4xx.Inc()
		return errorReply(&QueryError{Status: http.StatusMethodNotAllowed, Msg: "score queries are GET-only"})
	}
	d.m.inflight.Add(1)
	defer d.m.inflight.Add(-1)

	q, qerr := ParseQuery(path, rawQuery)
	if qerr != nil {
		d.m.errors4xx.Inc()
		return errorReply(qerr)
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
		return errorReply(e.err)
	}
	return reply{status: http.StatusOK, contentType: jsonType, body: e.body, contentLength: e.contentLength}
}

// handleReload answers POST /reload by swapping to the newest store
// generation. GET is refused (reload is a mutation); a failed reload
// keeps serving the old generation and reports the failure.
func (d *Daemon) handleReload(method string) reply {
	if method != http.MethodPost {
		return errorReply(&QueryError{Status: http.StatusMethodNotAllowed, Msg: "reload is POST-only"})
	}
	g, err := d.reload()
	if err != nil {
		return errorReply(&QueryError{Status: http.StatusConflict, Msg: err.Error()})
	}
	return jsonReply(http.StatusOK, map[string]any{
		"generation": g.label,
		"epoch":      g.epoch,
		"swap":       g.id,
	})
}

// errorReply is the uniform JSON error body for a typed rejection.
func errorReply(qerr *QueryError) reply {
	return jsonReply(qerr.Status, ErrorResponse{Status: qerr.Status, Error: qerr.Msg})
}

// jsonReply encodes v as json.Encoder does, a newline after the value.
func jsonReply(status int, v any) reply {
	body, _ := json.Marshal(v) // strings and integers: cannot fail
	return reply{status: status, contentType: jsonType, body: append(body, '\n')}
}
