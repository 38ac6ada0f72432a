package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/webdepd"
)

// The two serve workloads share one fixture — world-batch ingested into a
// store, webdepd started over it — and use it in opposite ways. serve-hot
// renders every key first and then only ever hits the cache; serve-churn
// reloads before every dashboard, so every request is cold.

const (
	hotName   = "serve-hot"
	churnName = "serve-churn"
)

// serveFixture is a running daemon over a world-batch store. The world
// itself is dropped once the store is written: a production daemon does
// not share its heap with the generator.
type serveFixture struct {
	root       string // store directory, the daemon's StoreRoot
	sites      int
	storeBytes int64
	ccs        []string
	reg        *obs.Registry
	d          *webdepd.Daemon
	top        []string // top-20 SPOF providers, worst first
}

// buildServe writes batch's world into a store and starts the daemon on it.
func buildServe(e *env, batch *batchFixture) (*serveFixture, error) {
	dir, err := e.scratch("serve")
	if err != nil {
		return nil, err
	}
	fx := &serveFixture{root: filepath.Join(dir, "store"), sites: batch.sites, ccs: batch.ccs, reg: batch.reg}
	if err := batch.ingest(fx.root); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("writing the served store: %w", err)
	}
	if fx.storeBytes, err = dirBytes(fx.root); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if fx.d, err = webdepd.Start("127.0.0.1:0", webdepd.Config{StoreRoot: fx.root, Obs: batch.reg}); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting webdepd: %w", err)
	}
	status, body := render(fx.d.Handler(), "/api/spof?n=20")
	var spof webdepd.SPOFResponse
	if status != http.StatusOK || json.Unmarshal(body, &spof) != nil || len(spof.Top) == 0 {
		fx.close()
		return nil, fmt.Errorf("the daemon ranks no SPOF (status %d)", status)
	}
	for _, s := range spof.Top {
		fx.top = append(fx.top, s.Provider)
	}
	return fx, nil
}

func (fx *serveFixture) close() {
	if fx.d != nil {
		fx.d.Close()
	}
	os.RemoveAll(filepath.Dir(fx.root))
}

// recorder is a minimal in-process http.ResponseWriter.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(status int)      { r.status = status }

// render serves target through the handler in process and returns the
// status and body: the reference every wire response is compared with.
func render(h http.Handler, target string) (int, []byte) {
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return 0, nil
	}
	rec := &recorder{h: make(http.Header), status: http.StatusOK}
	h.ServeHTTP(rec, &http.Request{Method: http.MethodGet, URL: u})
	return rec.status, rec.body.Bytes()
}

// query is one request the workloads send: its target, the wire bytes, and
// the body the daemon must answer with.
type query struct {
	target string
	req    []byte
	want   []byte
}

// queries renders each target in process and pairs it with its request.
func (fx *serveFixture) queries(targets []string) ([]query, error) {
	out := make([]query, len(targets))
	for i, t := range targets {
		status, body := render(fx.d.Handler(), t)
		if status != http.StatusOK {
			return nil, fmt.Errorf("in-process render of %s: status %d", t, status)
		}
		out[i] = query{target: t, req: buildRequest("GET", t, fx.d.Addr), want: append([]byte(nil), body...)}
	}
	return out, nil
}

func whatIf(provider string) string { return "/api/what-if?provider=" + url.QueryEscape(provider) }

// hotTargets is every valid query: scores and rank curve per (layer,
// country), scores per layer and for all layers, coverage, epoch, three
// SPOF table sizes, a what-if per top-20 provider, classes per layer.
func (fx *serveFixture) hotTargets() []string {
	var ts []string
	for _, l := range countries.Layers {
		for _, cc := range fx.ccs {
			ts = append(ts,
				fmt.Sprintf("/api/scores?layer=%s&country=%s", l, cc),
				fmt.Sprintf("/api/rankcurve?layer=%s&country=%s", l, cc))
		}
		ts = append(ts, "/api/scores?layer="+l.String(), "/api/classes?layer="+l.String())
	}
	ts = append(ts, "/api/scores", "/api/coverage", "/api/epoch", "/api/spof?n=5", "/api/spof?n=10", "/api/spof?n=20")
	for _, p := range fx.top {
		ts = append(ts, whatIf(p))
	}
	return ts
}

// dashboardTargets is serve-churn's fixed 40-query dashboard, in request
// order; the countries are a seeded draw.
func (fx *serveFixture) dashboardTargets(seed int64) []string {
	ts := []string{"/api/epoch", "/api/coverage", "/api/scores"}
	for _, l := range countries.Layers {
		ts = append(ts, "/api/scores?layer="+l.String())
	}
	ts = append(ts, "/api/spof?n=10")
	for _, p := range fx.top[:min(3, len(fx.top))] {
		ts = append(ts, whatIf(p))
	}
	ts = append(ts, "/api/classes?layer=hosting")
	perm := rand.New(rand.NewSource(seed)).Perm(len(fx.ccs))
	for _, i := range perm[:min(14, len(perm))] {
		ts = append(ts,
			"/api/scores?layer=hosting&country="+fx.ccs[i],
			"/api/rankcurve?layer=hosting&country="+fx.ccs[i])
	}
	return ts
}

// fault lets the tests break a workload on purpose.
type fault struct {
	corruptBody bool // flip a byte of every received body before checking it
	deadTLS     bool // point the vantages' TLS probes at a closed port
}

// serveSetup builds world-batch only to serve it, lets it go, and renders
// the workload's targets once in process; all of it timed as set-up.
func serveSetup(e *env, targets func(*serveFixture) []string) (*serveFixture, []query, time.Duration, error) {
	type product struct {
		fx *serveFixture
		qs []query
	}
	p, setup, err := timeSetup(func() (product, error) {
		batch, err := buildBatch(e, obs.NewRegistry())
		if err != nil {
			return product{}, err
		}
		fx, err := buildServe(e, batch)
		if err != nil {
			return product{}, err
		}
		qs, err := fx.queries(targets(fx))
		if err != nil {
			fx.close()
			return product{}, err
		}
		return product{fx, qs}, nil
	})
	return p.fx, p.qs, setup, err
}

// hotWindow holds serve-hot's measurements.
type hotWindow struct {
	lat      []int64 // ns per request, in send order
	wall     time.Duration
	failed   int
	bodySize int64
}

// hotSet is what serve-hot asks for: the rendered keys in a seeded
// permutation, so that which keys are popular depends on the seed and not
// on the order hotTargets lists them, and the key each request draws,
// Zipf(1.1) over that permutation, drawn ahead so the generator is not on
// the measured path.
type hotSet struct {
	qs    []query
	draws []uint16
}

func newHotSet(seed int64, qs []query) hotSet {
	rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	z := rand.NewZipf(rand.New(rand.NewSource(seed+1)), 1.1, 1, uint64(len(qs)-1))
	draws := make([]uint16, 1<<20)
	for i := range draws {
		draws[i] = uint16(z.Uint64())
	}
	return hotSet{qs, draws}
}

// hotLoop is the closed loop on one connection: send, read, compare with
// the in-process render, record the latency.
func hotLoop(addr string, hs hotSet, offset int, window time.Duration, tr *tracer, f fault) (*hotWindow, error) {
	conn, err := dialWire(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	hw := &hotWindow{lat: make([]int64, 0, 1<<20)}
	root := tr.start(hotName, 0, "window", 0)
	start := time.Now()
	t0 := start
	for i := 0; ; i++ {
		q := &hs.qs[hs.draws[(offset+i)%len(hs.draws)]]
		id := tr.start(hotName, 0, "request", root)
		status, body, err := conn.do(q.req)
		t1 := time.Now()
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("serve-hot: %s: %w", q.target, err)
		}
		if f.corruptBody && len(body) > 0 {
			body[0] ^= 0xff
		}
		if status != http.StatusOK || !bytes.Equal(body, q.want) {
			hw.failed++
		}
		hw.bodySize += int64(len(body))
		hw.lat = append(hw.lat, int64(t1.Sub(t0)))
		if t1.Sub(start) >= window {
			hw.wall = t1.Sub(start)
			break
		}
		t0 = t1
	}
	tr.end(root)
	return hw, nil
}

// hotConns is how many connections serve-hot drives: half the cores, so
// the client and the daemon each have their own.
func hotConns(nproc int) int { return max(1, nproc/2) }

// hotRun drives hotConns connections for the window and merges them.
func hotRun(e *env, fx *serveFixture, hs hotSet, window time.Duration, tr *tracer, f fault) (*hotWindow, error) {
	n := hotConns(e.nproc)
	type res struct {
		hw  *hotWindow
		err error
	}
	out := make(chan res, n) // one send per connection
	for c := 0; c < n; c++ {
		go func(c int) {
			// Each connection starts at its own offset in the draw sequence.
			hw, err := hotLoop(fx.d.Addr, hs, c*len(hs.draws)/n, window, tr, f)
			out <- res{hw, err}
		}(c)
	}
	total := &hotWindow{}
	var firstErr error
	for c := 0; c < n; c++ {
		r := <-out
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		total.lat = append(total.lat, r.hw.lat...)
		total.failed += r.hw.failed
		total.bodySize += r.hw.bodySize
		if r.hw.wall > total.wall {
			total.wall = r.hw.wall
		}
	}
	return total, firstErr
}

// runHot is the untraced workload.
func runHot(e *env, window time.Duration, f fault) (*outcome, error) {
	fx, qs, setup, err := serveSetup(e, (*serveFixture).hotTargets)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	hw, err := hotRun(e, fx, newHotSet(e.seed, qs), window, nil, f)
	if err != nil {
		return nil, err
	}
	return hotOutcome(fx, hw, setup), nil
}

func hotOutcome(fx *serveFixture, hw *hotWindow, setup time.Duration) *outcome {
	n := len(hw.lat)
	sorted := sortSamples(hw.lat) // send order is not needed past here
	rps := float64(n) / hw.wall.Seconds()
	o := &outcome{workload: hotName, attempted: n, failed: hw.failed, samples: n}
	o.values = map[string]float64{
		"p50_ms":               float64(percentile(sorted, 0.50)) / 1e6,
		"store_bytes_per_site": float64(fx.storeBytes) / float64(fx.sites),
		"setup_s":              setup.Seconds(),
	}
	o.details = []detail{
		{"hot_rps", "1/s", rps, n, "requests / window: the mean rate, stalls included"},
		{"hot_p50_us", "us", float64(percentile(sorted, 0.50)) / 1e3, n, ""},
		{"hot_p99_us", "us", float64(percentile(sorted, 0.99)) / 1e3, n, fmt.Sprintf("%d samples beyond it", n/100)},
	}
	return o
}

// churnCycle is one reload + cold dashboard.
type churnCycle struct {
	reload, dashboard time.Duration
	failed            int
	traced            bool
}

// sameEpoch compares an epoch body with generation 0's, expecting swap.
func sameEpoch(got, gen0 []byte, swap int64) bool {
	var g, w webdepd.EpochResponse
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(gen0, &w) != nil {
		return false
	}
	w.Swap = swap
	return g == w
}

// churnLoop drives cycles over one connection. swap is the daemon's swap
// count before the first cycle.
func churnLoop(fx *serveFixture, qs []query, window time.Duration, warmup, minCycles int, tr *tracer, f fault) ([]churnCycle, error) {
	conn, err := dialWire(fx.d.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	reload := buildRequest("POST", "/reload", fx.d.Addr)
	_, swap := fx.d.Generation()

	cycle := func(tr *tracer, iter int) (churnCycle, error) {
		c := churnCycle{traced: tr != nil}
		root := tr.start(churnName, iter, "cycle", 0)
		defer tr.end(root)
		id := tr.start(churnName, iter, "POST /reload", root)
		t0 := time.Now()
		status, _, err := conn.do(reload)
		c.reload = time.Since(t0)
		tr.end(id)
		if err != nil {
			return c, fmt.Errorf("serve-churn: reload: %w", err)
		}
		swap++
		if status != http.StatusOK {
			c.failed++
		}
		dash := tr.start(churnName, iter, "dashboard", root)
		t0 = time.Now()
		for i := range qs {
			q := &qs[i]
			id := tr.start(churnName, iter, "GET "+endpointOf(q.target), dash)
			status, body, err := conn.do(q.req)
			tr.end(id)
			if err != nil {
				return c, fmt.Errorf("serve-churn: %s: %w", q.target, err)
			}
			if f.corruptBody && len(body) > 0 {
				body[0] ^= 0xff
			}
			same := bytes.Equal(body, q.want)
			if q.target == "/api/epoch" {
				same = sameEpoch(body, q.want, swap)
			}
			if status != http.StatusOK || !same {
				c.failed++
			}
		}
		c.dashboard = time.Since(t0)
		tr.end(dash)
		return c, nil
	}

	for i := 0; i < warmup; i++ {
		if _, err := cycle(nil, -1-i); err != nil {
			return nil, err
		}
	}
	var cycles []churnCycle
	start := time.Now()
	for i := 0; i < minCycles || time.Since(start) < window; i++ {
		c, err := cycle(tr.alternate(i), i)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
	}
	return cycles, nil
}

// endpointOf returns "/api/scores" for "/api/scores?layer=dns".
func endpointOf(target string) string {
	if i := strings.IndexByte(target, '?'); i >= 0 {
		return target[:i]
	}
	return target
}

// runChurn is the untraced workload.
func runChurn(e *env, window time.Duration, f fault) (*outcome, error) {
	// The dashboard is rendered in process on generation 0: bodies are a pure
	// function of the corpus, so every later generation must answer with the
	// same bytes (the epoch body aside: sameEpoch).
	fx, qs, setup, err := serveSetup(e, func(fx *serveFixture) []string { return fx.dashboardTargets(e.seed) })
	if err != nil {
		return nil, err
	}
	defer fx.close()
	cycles, err := churnLoop(fx, qs, window, 1, 3, nil, f)
	if err != nil {
		return nil, err
	}
	return churnOutcome(fx, qs, cycles, setup), nil
}

func churnOutcome(fx *serveFixture, qs []query, cycles []churnCycle, setup time.Duration) *outcome {
	var reloads, dashboards, whole []time.Duration
	failed := 0
	for _, c := range cycles {
		reloads = append(reloads, c.reload)
		dashboards = append(dashboards, c.dashboard)
		whole = append(whole, c.reload+c.dashboard)
		failed += c.failed
	}
	perCycle := len(qs) + 1
	o := &outcome{workload: churnName, attempted: len(cycles) * perCycle, failed: failed, samples: len(cycles)}
	o.values = map[string]float64{
		"p50_ms":               ms(median(whole)),
		"store_bytes_per_site": float64(fx.storeBytes) / float64(fx.sites),
		"setup_s":              setup.Seconds(),
	}
	note := fmt.Sprintf("%d cycles support a median only", len(cycles))
	o.details = []detail{
		{"reload_p50_ms", "ms", ms(median(reloads)), len(cycles), "POST /reload round trip; " + note},
		{"cold_dashboard_p50_ms", "ms", ms(median(dashboards)), len(cycles), "reload reply to 40th body; " + note},
	}
	return o
}
