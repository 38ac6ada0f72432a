package webdepd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

// worldCorpus measures a small synthetic world through the real pipeline,
// so the daemon's tests serve the same kind of corpus production does.
func worldCorpus(t testing.TB, seed int64, sites int, ccs []string) *dataset.Corpus {
	t.Helper()
	w, err := worldgen.Build(worldgen.Config{Seed: seed, SitesPerCountry: sites, Countries: ccs})
	if err != nil {
		t.Fatalf("worldgen.Build: %v", err)
	}
	corpus, err := pipeline.FromWorld(w).MeasureWorld(w)
	if err != nil {
		t.Fatalf("MeasureWorld: %v", err)
	}
	return corpus
}

// startDaemon starts a daemon on a loopback port and closes it with the
// test.
func startDaemon(t testing.TB, cfg Config) *Daemon {
	t.Helper()
	d, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// get fetches one daemon URL, returning status and body.
func get(t testing.TB, d *Daemon, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + d.Addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, body
}

// direct snapshots a corpus for direct renders, the reference served bytes
// are held to: a read model and counters of its own, nothing of the daemon
// under test.
func direct(c *dataset.Corpus, label string, id int64) *generation {
	d := &Daemon{m: newMetrics(obs.NewRegistry())}
	return d.serve(corpusModel(c, label, 0), id)
}

var testCCs = []string{"US", "DE", "JP", "IN"}

// crossCheckQueries enumerates one query of every endpoint shape.
func crossCheckQueries() []string {
	qs := []string{
		"/api/scores",
		"/api/coverage",
		"/api/epoch",
		"/api/spof",
		"/api/spof?n=3",
		"/api/what-if?provider=Cloudflare",
	}
	for _, layer := range []string{"hosting", "dns", "ca", "tld"} {
		qs = append(qs,
			"/api/scores?layer="+layer,
			"/api/scores?layer="+layer+"&country=DE",
			"/api/rankcurve?layer="+layer+"&country=US",
			"/api/classes?layer="+layer,
		)
	}
	return qs
}

// parsePath parses a request path as the daemon's handler would.
func parsePath(t testing.TB, path string) Query {
	t.Helper()
	endpoint, rawQuery, _ := strings.Cut(path, "?")
	q, qerr := ParseQuery(endpoint, rawQuery)
	if qerr != nil {
		t.Fatalf("%s: parse: %v", path, qerr)
	}
	return q
}

// TestEndpointsCrossCheck pins the daemon's correctness contract: every
// endpoint's HTTP bytes must be identical to rendering the same query
// against an independently measured corpus — the cache can never change
// what is served, only how fast — whichever source the daemon was started
// over. The store leg is the gate that the read model one Store.Scan builds
// (symbol IDs, both tallies from one decode) is the one built from rows:
// its reference never touches a store.
func TestEndpointsCrossCheck(t *testing.T) {
	root := t.TempDir()
	if err := corpusstore.Save(root+"/gen-0001", worldCorpus(t, 7, 150, testCCs), nil); err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		label string
		cfg   Config
	}{
		{"memory", Config{Corpus: worldCorpus(t, 7, 150, testCCs)}},
		{"gen-0001", Config{StoreRoot: root}},
	} {
		t.Run(leg.label, func(t *testing.T) {
			d := startDaemon(t, leg.cfg)

			// An independent measurement of the same world, rendered directly
			// with no daemon, no store and no cache in the loop.
			independent := direct(worldCorpus(t, 7, 150, testCCs), leg.label, 0)

			for _, path := range crossCheckQueries() {
				want, qerr := independent.render(parsePath(t, path))
				if qerr != nil {
					t.Fatalf("%s: direct render: %v", path, qerr)
				}
				// Twice: once cold (miss), once hot (hit) — same bytes both times.
				for pass := 0; pass < 2; pass++ {
					status, body := get(t, d, path)
					if status != http.StatusOK {
						t.Fatalf("%s pass %d: status %d: %s", path, pass, status, body)
					}
					if !bytes.Equal(body, want) {
						t.Errorf("%s pass %d: served bytes differ from direct render\n got: %.200s\nwant: %.200s", path, pass, body, want)
					}
					if !json.Valid(body) {
						t.Errorf("%s: response is not valid JSON", path)
					}
				}
			}
			if hits := d.m.hits.Value(); hits == 0 {
				t.Error("second passes never hit the cache")
			}
		})
	}
}

// TestErrorResponses pins the typed-rejection surface: hostile or wrong
// requests get a JSON error with the right status, and error bodies are
// never cached (a transient failure is retried, and a junk provider
// cannot fill the cache).
func TestErrorResponses(t *testing.T) {
	corpus := worldCorpus(t, 3, 80, []string{"US", "DE"})
	d := startDaemon(t, Config{Corpus: corpus})

	cases := []struct {
		path string
		want int
	}{
		{"/api/scores?layer=hosting&country=ZZ", http.StatusNotFound},  // unknown country
		{"/api/rankcurve?layer=dns&country=FR", http.StatusNotFound},   // not in corpus
		{"/api/what-if?provider=NoSuchProvider", http.StatusNotFound},  // unknown provider
		{"/api/nope", http.StatusNotFound},                             // unknown endpoint
		{"/api/scores?layer=blockchain", http.StatusBadRequest},        // junk layer
		{"/api/scores?layer=hosting&layer=dns", http.StatusBadRequest}, // repeated param
		{"/api/spof?n=0", http.StatusBadRequest},                       // out-of-range n
		{"/api/spof?n=9999999", http.StatusBadRequest},
		{"/api/epoch?layer=hosting", http.StatusBadRequest}, // param on a bare endpoint
		{"/api/scores?country=US", http.StatusBadRequest},   // country without layer
	}
	for _, tc := range cases {
		for pass := 0; pass < 2; pass++ { // twice: errors must not be cached into success
			status, body := get(t, d, tc.path)
			if status != tc.want {
				t.Errorf("%s: status %d, want %d (%s)", tc.path, status, tc.want, body)
				continue
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Status != tc.want || er.Error == "" {
				t.Errorf("%s: malformed error body %s", tc.path, body)
			}
		}
	}
	// Error renders must leave no cache entry behind.
	entries := 0
	d.gen.Load().cache.entries.Range(func(_, _ any) bool { entries++; return true })
	if entries != 0 {
		t.Errorf("error responses left %d cache entries", entries)
	}

	if status, _ := get(t, d, "/healthz"); status != http.StatusOK {
		t.Errorf("healthz: %d", status)
	}
	resp, err := http.Post("http://"+d.Addr+"/api/scores", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/scores: %d, want 405", resp.StatusCode)
	}
}

type renderFunc = func(Query) ([]byte, *QueryError)

// serveThrough swaps in a copy of the serving generation whose cold renders
// go through wrap — the cache's injected renderer, so a test can hold a
// build open or panic in it without a hook in production code.
func serveThrough(d *Daemon, wrap func(render renderFunc, q Query) ([]byte, *QueryError)) {
	g := *d.gen.Load()
	g.cache = newRespCache(func(q Query) ([]byte, *QueryError) { return wrap(g.render, q) })
	d.gen.Store(&g)
}

// TestCoalescing pins the singleflight contract: K concurrent requests
// for one cold key trigger exactly one render; the rest wait for it and
// are counted as coalesced.
func TestCoalescing(t *testing.T) {
	const K = 16
	corpus := worldCorpus(t, 5, 100, []string{"US", "DE"})
	d := startDaemon(t, Config{Corpus: corpus})

	var builds atomic.Int64
	release := make(chan struct{})
	serveThrough(d, func(render renderFunc, q Query) ([]byte, *QueryError) {
		builds.Add(1)
		<-release
		return render(q)
	})

	var wg sync.WaitGroup
	bodies := make([][]byte, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := get(t, d, "/api/scores?layer=hosting")
			if status != http.StatusOK {
				t.Errorf("goroutine %d: status %d", i, status)
			}
			bodies[i] = body
		}(i)
	}
	// Release the single build only once every request is in flight, so
	// all K demonstrably raced on the cold key.
	for d.m.inflight.Value() < K {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d renders for one cold key, want exactly 1", n)
	}
	if m := d.m.misses.Value(); m != 1 {
		t.Errorf("misses = %d, want 1", m)
	}
	if c := d.m.coalesced.Value(); c != K-1 {
		t.Errorf("coalesced = %d, want %d", c, K-1)
	}
	for i := 1; i < K; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("goroutine %d got different bytes", i)
		}
	}
}

// TestRenderPanicDoesNotPoisonKey pins the failure containment of the
// singleflight build: a render that panics under K parked waiters answers
// all K+1 requests with a 500, leaves no entry behind, is counted, and the
// next request for the key renders and is cached normally.
func TestRenderPanicDoesNotPoisonKey(t *testing.T) {
	const K = 8
	const path = "/api/scores?layer=hosting"
	corpus := worldCorpus(t, 5, 100, []string{"US", "DE"})
	d := startDaemon(t, Config{Corpus: corpus})

	var builds atomic.Int64
	release := make(chan struct{})
	serveThrough(d, func(render renderFunc, q Query) ([]byte, *QueryError) {
		if builds.Add(1) == 1 {
			<-release
			panic("injected render bug")
		}
		return render(q)
	})

	var wg sync.WaitGroup
	for i := 0; i <= K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := get(t, d, path)
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); status != http.StatusInternalServerError || err != nil || er.Status != status {
				t.Errorf("request %d during the panicking build: status %d body %s", i, status, body)
			}
		}(i)
	}
	// Panic only once the builder and all K waiters are in flight.
	for d.m.inflight.Value() <= K {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if p, m, c, e := d.m.panics.Value(), d.m.misses.Value(), d.m.coalesced.Value(), d.m.errors5xx.Value(); p != 1 || m != 1 || c != K || e != K+1 {
		t.Errorf("render_panics/misses/coalesced/errors_5xx = %d/%d/%d/%d, want 1/1/%d/%d", p, m, c, e, K, K+1)
	}
	entries := 0
	d.gen.Load().cache.entries.Range(func(_, _ any) bool { entries++; return true })
	if entries != 0 {
		t.Errorf("the panicked build left %d cache entries", entries)
	}

	// The key is not wedged: it renders, then hits.
	for pass := 0; pass < 2; pass++ {
		if status, body := get(t, d, path); status != http.StatusOK || !json.Valid(body) {
			t.Fatalf("pass %d after the panic: status %d body %.100s", pass, status, body)
		}
	}
	if builds.Load() != 2 || d.m.hits.Value() != 1 {
		t.Errorf("after the panic: %d builds, %d hits, want 2 and 1", builds.Load(), d.m.hits.Value())
	}
	if d.m.inflight.Value() != 0 {
		t.Errorf("inflight gauge did not return to zero: %d", d.m.inflight.Value())
	}
}

// TestReloadHotSwap drives the epoch swap end to end over a store
// generation root: the daemon starts on gen-0001, a new generation lands,
// POST /reload swaps it in, and both the epoch report and the scores
// change to the new corpus — while an in-memory daemon refuses reloads.
func TestReloadHotSwap(t *testing.T) {
	root := t.TempDir()
	corpusA := worldCorpus(t, 11, 120, testCCs)
	if err := corpusstore.Save(root+"/gen-0001", corpusA, &corpusstore.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, Config{StoreRoot: root, Workers: 2})

	if label, swap := d.Generation(); label != "gen-0001" || swap != 0 {
		t.Fatalf("initial generation (%s, %d)", label, swap)
	}
	_, before := get(t, d, "/api/scores?layer=hosting")

	// A new epoch lands (different world), plus decoys reload must skip:
	// an in-flight atomic write and a manifest-less directory.
	corpusB := worldCorpus(t, 12, 120, testCCs)
	corpusB.Epoch = "2023-06"
	if err := corpusstore.Save(root+"/gen-0002", corpusB, &corpusstore.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := corpusstore.Save(root+"/gen-0009.tmp", corpusB, &corpusstore.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post("http://"+d.Addr+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var swapped struct {
		Generation string `json:"generation"`
		Epoch      string `json:"epoch"`
		Swap       int64  `json:"swap"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&swapped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || swapped.Generation != "gen-0002" || swapped.Epoch != "2023-06" || swapped.Swap != 1 {
		t.Fatalf("reload answered %d %+v", resp.StatusCode, swapped)
	}

	status, after := get(t, d, "/api/scores?layer=hosting")
	if status != http.StatusOK {
		t.Fatalf("post-swap scores: %d", status)
	}
	if bytes.Equal(before, after) {
		t.Error("scores unchanged across an epoch swap of a different world")
	}
	var ls LayerScoresResponse
	if err := json.Unmarshal(after, &ls); err != nil || ls.Epoch != "2023-06" {
		t.Fatalf("post-swap scores carry epoch %q: %v", ls.Epoch, err)
	}
	if d.m.reloads.Value() != 1 {
		t.Errorf("reloads counter = %d", d.m.reloads.Value())
	}

	// GET /reload is a refused mutation; in-memory daemons refuse POST too.
	if resp, err := http.Get("http://" + d.Addr + "/reload"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /reload: %d", resp.StatusCode)
		}
	}
	mem := startDaemon(t, Config{Corpus: corpusA})
	if resp, err := http.Post("http://"+mem.Addr+"/reload", "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("in-memory reload: %d, want 409", resp.StatusCode)
		}
	}
	if _, err := Start("127.0.0.1:0", Config{}); err == nil {
		t.Error("Start accepted a config with no corpus source")
	}
	if _, err := Start("127.0.0.1:0", Config{Corpus: corpusA, StoreRoot: root}); err == nil {
		t.Error("Start accepted two corpus sources")
	}
}

// TestConcurrentReloadsReportOwnSwap: each POST /reload answers for the
// generation that reload installed. Reloads serialize, so K concurrent ones
// install swaps 1..K, and the K responses must name each exactly once — a
// handler that re-read the serving generation after its reload returned
// would report a later reload's swap id under its own label.
func TestConcurrentReloadsReportOwnSwap(t *testing.T) {
	root := t.TempDir()
	if err := corpusstore.Save(root+"/gen-0001", worldCorpus(t, 31, 40, []string{"US", "DE"}), nil); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, Config{StoreRoot: root})

	const K = 8
	swaps := make([]int64, K)
	var wg sync.WaitGroup
	for i := range swaps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post("http://"+d.Addr+"/reload", "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var swapped struct {
				Generation string `json:"generation"`
				Swap       int64  `json:"swap"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&swapped); err != nil || swapped.Generation != "gen-0001" {
				t.Errorf("reload answered %d %+v: %v", resp.StatusCode, swapped, err)
			}
			swaps[i] = swapped.Swap
		}(i)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for _, id := range swaps {
		if id < 1 || id > K || seen[id] {
			t.Fatalf("swap ids %v, want each of 1..%d once", swaps, K)
		}
		seen[id] = true
	}
}

// TestReloadRaceHammer hammers queries against concurrent reloads under
// the race detector: every response must be byte-identical to one of the
// two generations' direct renders — never a blend, never torn. The classes
// queries put the read model that unchanged reloads share under the same
// hammer: generation B is a smaller world (a seed alone does not move a
// provider's share), the first swap scans it with A's renders still in
// flight, and the later swaps find B already served and share its model,
// classes included, with renders on both sides of each.
func TestReloadRaceHammer(t *testing.T) {
	root := t.TempDir()
	corpusA := worldCorpus(t, 21, 80, []string{"US", "DE", "JP"})
	corpusB := worldCorpus(t, 22, 60, []string{"US", "DE", "JP"})
	corpusB.Epoch = "2023-06"
	if err := corpusstore.Save(root+"/gen-0001", corpusA, &corpusstore.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	d := startDaemon(t, Config{StoreRoot: root, Workers: 2, Obs: reg})

	classes := []string{"/api/classes?layer=ca", "/api/classes?layer=hosting"}
	paths := append([]string{
		"/api/scores?layer=hosting",
		"/api/scores?layer=dns&country=DE",
		"/api/rankcurve?layer=hosting&country=US",
		"/api/spof?n=5",
	}, classes...)
	// Direct renders from both worlds; a served body must match one side
	// entirely.
	allowed := make(map[string][2][]byte, len(paths))
	genA := direct(worldCorpus(t, 21, 80, []string{"US", "DE", "JP"}), "gen-0001", 0)
	corpusB2 := worldCorpus(t, 22, 60, []string{"US", "DE", "JP"})
	corpusB2.Epoch = "2023-06"
	genB := direct(corpusB2, "gen-0002", 1)
	for _, p := range paths {
		q := parsePath(t, p)
		wa, qerr := genA.render(q)
		if qerr != nil {
			t.Fatal(qerr)
		}
		wb, qerr := genB.render(q)
		if qerr != nil {
			t.Fatal(qerr)
		}
		allowed[p] = [2][]byte{wa, wb}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := paths[(w+i)%len(paths)]
				resp, err := client.Get("http://" + d.Addr + p)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("reader %s: %d %v", p, resp.StatusCode, err)
					return
				}
				if ab := allowed[p]; !bytes.Equal(body, ab[0]) && !bytes.Equal(body, ab[1]) {
					t.Errorf("reader %s: body matches neither generation", p)
					return
				}
			}
		}(w)
	}

	// Land generation B mid-hammer, then swap repeatedly while reads fly.
	if err := corpusstore.Save(root+"/gen-0002", corpusB, &corpusstore.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Reload(); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if label, _ := d.Generation(); label != "gen-0002" {
		t.Errorf("final generation %s", label)
	}

	// Four generations served two classes keys: at most eight cold renders,
	// each counted once. With the readers gone, one reload and a render of
	// both make sure B's model holds both results, and the next must carry
	// them.
	clustered, carried, _ := classesCounters(reg)
	if n := clustered + carried; n < 1 || n > 8 {
		t.Errorf("clustered+carried = %d+%d under the hammer, want 1..8 cold classes renders", clustered, carried)
	}
	for settled := 0; settled < 2; settled++ {
		clustered, carried, _ = classesCounters(reg)
		mustReload(t, d)
		for _, p := range classes {
			if _, body := get(t, d, p); !bytes.Equal(body, allowed[p][1]) {
				t.Errorf("%s after the hammer: body is not generation B's", p)
			}
		}
	}
	if cl, ca, _ := classesCounters(reg); cl != clustered || ca != carried+2 {
		t.Errorf("unchanged reload after the hammer: clustered/carried moved %d/%d, want 0/2", cl-clustered, ca-carried)
	}
	// Of the five reloads only the first found a store not yet served.
	if got := reg.Counter("webdepd.reloads_unchanged").Value(); got != 4 {
		t.Errorf("webdepd.reloads_unchanged = %d, want 4", got)
	}
	if got := reg.Counter("webdepd.errors_5xx").Value(); got != 0 {
		t.Errorf("webdepd.errors_5xx = %d, want 0", got)
	}
}

// TestServedSnapshotIgnoresMutation pins the immutability contract from the
// request side: Start takes what it serves from the corpus and keeps no
// pointer into it, so a caller that goes on mutating the corpus — a new
// list, coverage attached, a coverage value updated in place as a running
// crawl does — changes nothing the daemon answers. Every endpoint, cached
// before the mutation or cold after it, serves the pre-mutation bytes.
func TestServedSnapshotIgnoresMutation(t *testing.T) {
	reg := obs.NewRegistry()
	corpus := worldCorpus(t, 9, 60, []string{"US", "DE"})
	usCov := &dataset.Coverage{Country: "US", Sites: 60, Host: dataset.FieldCoverage{OK: 60}}
	corpus.SetCoverage(usCov)
	want := direct(corpus, "memory", 0)
	d := startDaemon(t, Config{Corpus: corpus, Obs: reg})

	// Warm half the keys, so the mutation is met by hits and by cold renders.
	queries := append(crossCheckQueries(), "/api/scores?layer=hosting&country=US")
	for _, path := range queries[:len(queries)/2] {
		get(t, d, path)
	}
	warmed := reg.Counter("webdepd.misses").Value()

	jp := worldCorpus(t, 9, 60, []string{"JP"})
	corpus.Add(jp.Lists["JP"])
	corpus.SetCoverage(&dataset.Coverage{Country: "DE", Sites: 60, Degraded: true})
	usCov.Degraded, usCov.Host.Lost = true, 7
	corpus.Epoch = "mutated"

	for _, path := range queries {
		wantBody, qerr := want.render(parsePath(t, path))
		if qerr != nil {
			t.Fatalf("%s: direct render: %v", path, qerr)
		}
		for pass := 0; pass < 2; pass++ {
			status, body := get(t, d, path)
			if status != http.StatusOK || !bytes.Equal(body, wantBody) {
				t.Errorf("%s pass %d after mutation: status %d\n got: %.200s\nwant: %.200s", path, pass, status, body, wantBody)
			}
		}
	}
	// Hits stay hits: every warmed key is served from cache, every cold one
	// renders once.
	n := int64(len(queries))
	if hits, misses := reg.Counter("webdepd.hits").Value(), reg.Counter("webdepd.misses").Value(); misses != n || hits != n+warmed {
		t.Errorf("hits/misses = %d/%d, want %d/%d", hits, misses, n+warmed, n)
	}
	if status, _ := get(t, d, "/api/scores?layer=hosting&country=JP"); status != http.StatusNotFound {
		t.Errorf("a country added after Start answers %d, want 404", status)
	}
	if got := reg.Counter("webdepd.errors_5xx").Value(); got != 0 {
		t.Errorf("webdepd.errors_5xx = %d, want 0", got)
	}
}

// nullWriter is an http.ResponseWriter that discards everything —
// allocation accounting must measure the daemon, not a recorder.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// TestHitPathAllocs is the alloc-regression gate on the cache-hit path:
// parse, key, lookup, and write must stay within a handful of allocations
// per request, or the throughput claim quietly rots.
func TestHitPathAllocs(t *testing.T) {
	corpus := worldCorpus(t, 13, 60, []string{"US", "DE"})
	d := startDaemon(t, Config{Corpus: corpus})

	req := httptest.NewRequest(http.MethodGet, "http://x/api/scores?layer=hosting&country=US", nil)
	w := &nullWriter{h: make(http.Header)}
	d.handleAPI(w, req) // warm the key

	avg := testing.AllocsPerRun(2000, func() { d.handleAPI(w, req) })
	if avg > 8 {
		t.Errorf("cache-hit path allocates %.1f objects/request, want <= 8", avg)
	}
}

// TestMetricsSurface checks the daemon wires its SLO surfaces into the
// shared registry: request counters, per-endpoint latency histograms, and
// the hit/miss split all move when traffic flows.
func TestMetricsSurface(t *testing.T) {
	reg := obs.NewRegistry()
	corpus := worldCorpus(t, 17, 60, []string{"US", "DE"})
	d := startDaemon(t, Config{Corpus: corpus, Obs: reg})

	get(t, d, "/api/scores?layer=hosting")
	get(t, d, "/api/scores?layer=hosting")
	get(t, d, "/api/scores?layer=blockchain")

	if got := reg.Counter("webdepd.requests").Value(); got != 3 {
		t.Errorf("requests = %d", got)
	}
	if m, h := reg.Counter("webdepd.misses").Value(), reg.Counter("webdepd.hits").Value(); m != 1 || h != 1 {
		t.Errorf("misses/hits = %d/%d, want 1/1", m, h)
	}
	if got := reg.Counter("webdepd.errors_4xx").Value(); got != 1 {
		t.Errorf("errors_4xx = %d", got)
	}
	if hs := reg.Timing("webdepd.scores.ms").Snapshot(); hs.Count != 2 {
		t.Errorf("scores latency histogram count = %d, want 2", hs.Count)
	}
	if d.m.inflight.Value() != 0 {
		t.Errorf("inflight gauge did not return to zero: %d", d.m.inflight.Value())
	}
}
