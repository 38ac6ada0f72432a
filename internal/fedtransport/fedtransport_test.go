package fedtransport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/faultinject"
	"github.com/webdep/webdep/internal/fedcrawl"
	"github.com/webdep/webdep/internal/liveworld"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/resilience"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
	"github.com/webdep/webdep/internal/worldgen"
)

// The transport suite extends PR 7's federation invariant across a real
// HTTP wire: shard assignments and signed journal artifacts travel through
// a fault-injecting proxy (drops, resets, 5xx bursts, truncated bodies,
// latency), vantage workers are killed at exact journal offsets, and the
// asynchronous-arrival merge must still be byte-identical to the unsharded
// fault-free corpus.

var ftCCs = []string{"CZ", "TH"}

const ftSites = 5

func ftWorld(t *testing.T) (*worldgen.World, *liveworld.Endpoints) {
	t.Helper()
	w, err := worldgen.Build(worldgen.Config{
		Seed:               7,
		SitesPerCountry:    ftSites,
		Countries:          ftCCs,
		DomesticPerCountry: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := liveworld.Serve(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return w, ep
}

func ftFactory(w *worldgen.World, ep *liveworld.Endpoints) func() *pipeline.Live {
	return func() *pipeline.Live {
		dns := resolver.NewClient(ep.DNSAddr)
		dns.Timeout = 200 * time.Millisecond
		return &pipeline.Live{
			Pipeline:       pipeline.FromWorld(w),
			DNS:            dns,
			Scanner:        tlsscan.New(w.Owners),
			TLSAddr:        ep.TLSAddr,
			Workers:        4,
			DetectLanguage: true,
		}
	}
}

func ftBaseline(t *testing.T, w *worldgen.World, ep *liveworld.Endpoints) *dataset.Corpus {
	t.Helper()
	live := ftFactory(w, ep)()
	live.Workers = 8
	corpus, err := live.CrawlCorpus(context.Background(), artEpoch, ftCCs,
		func(cc string) []string { return w.Truth.Get(cc).Domains() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func ftAssertConverged(t *testing.T, label string, want, got *dataset.Corpus) {
	t.Helper()
	for _, cc := range ftCCs {
		b, g := want.Get(cc), got.Get(cc)
		if g == nil {
			t.Fatalf("%s: %s missing from merged corpus", label, cc)
		}
		if len(b.Sites) != len(g.Sites) {
			t.Fatalf("%s: %s has %d sites, want %d", label, cc, len(g.Sites), len(b.Sites))
		}
		for i := range b.Sites {
			if g.Sites[i] != b.Sites[i] {
				t.Fatalf("%s: %s site %d differs:\n fault-free %+v\n merged     %+v",
					label, cc, i, b.Sites[i], g.Sites[i])
			}
		}
		cov := got.CoverageOf(cc)
		if cov == nil || cov.Fraction() != 1 || cov.Degraded {
			t.Fatalf("%s: %s coverage %+v, want full", label, cc, cov)
		}
	}
	for _, layer := range countries.Layers {
		ws, gs := want.ScoreSet().Scores(layer), got.ScoreSet().Scores(layer)
		for cc, v := range ws {
			if gs[cc] != v {
				t.Fatalf("%s: %v score for %s = %v, fault-free run says %v", label, layer, cc, gs[cc], v)
			}
		}
	}
}

// ftFederation is one fully wired remote federation: per-worker vantage
// servers, each behind its own fault proxy, and a transport client feeding
// a coordinator.
type ftFederation struct {
	dir     string
	keys    map[string][]byte
	proxies map[string]*faultinject.HTTPProxy
	client  *Client
	cfg     fedcrawl.Config
	reg     *obs.Registry
}

// ftPolicy is the client posture every transport test shares: enough
// attempts to ride out mod-pattern faults, tight backoff, per-vantage
// breakers generous enough that transient wire damage alone never retires
// a worker.
func ftPolicy(reg *obs.Registry) *resilience.Policy {
	return &resilience.Policy{
		MaxAttempts:    10,
		BaseDelay:      time.Millisecond,
		MaxDelay:       10 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
		Breakers:       resilience.NewBreakerSet(25, 10*time.Millisecond),
		Obs:            reg,
	}
}

// journalWrap wraps a journal's writer, as checkpoint.Options.WrapWriter.
type journalWrap = func(checkpoint.WriteSyncer) checkpoint.WriteSyncer

// killAt kills a journal after the given number of complete writes plus
// extra bytes of the next one.
func killAt(writes int, extra int64) journalWrap {
	return func(ws checkpoint.WriteSyncer) checkpoint.WriteSyncer {
		return faultinject.NewKillWriter(ws, writes, extra, nil)
	}
}

// ftFederate wires a federation over workers whose wires follow plan. A
// worker named in wraps writes its generation-1 journal through its
// wrapper; every other journal is left alone.
func ftFederate(t *testing.T, w *worldgen.World, ep *liveworld.Endpoints, workers []string,
	plan faultinject.HTTPPlan, wraps map[string]journalWrap) *ftFederation {
	t.Helper()
	f := &ftFederation{
		dir:     t.TempDir(),
		keys:    map[string][]byte{},
		proxies: map[string]*faultinject.HTTPProxy{},
		reg:     obs.NewRegistry(),
	}
	urls := map[string]string{}
	for _, worker := range workers {
		key := []byte("key-" + worker)
		f.keys[worker] = key
		vreg := obs.NewRegistry()
		v, err := serveVantage("127.0.0.1:0", VantageConfig{Key: key, NewLive: ftFactory(w, ep), Obs: vreg},
			func(a fedcrawl.Assignment) *checkpoint.Options {
				o := &checkpoint.Options{Obs: vreg}
				if a.Gen == 1 {
					o.WrapWriter = wraps[a.Worker]
				}
				return o
			})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		p, err := faultinject.NewHTTP(v.Addr, plan)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		f.proxies[worker] = p
		urls[worker] = "http://" + p.Addr
	}
	client, err := NewClient(ClientConfig{
		Workers:   workers,
		URL:       urls,
		Key:       f.keys,
		Dir:       f.dir,
		Epoch:     artEpoch,
		Countries: ftCCs,
		Policy:    ftPolicy(f.reg),
		Obs:       f.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	f.client = client
	f.cfg = fedcrawl.Config{
		Epoch:     artEpoch,
		Countries: ftCCs,
		DomainsOf: func(cc string) []string { return w.Truth.Get(cc).Domains() },
		Workers:   len(workers),
		Dir:       f.dir,
		Dispatch:  client.Dispatcher(),
		Obs:       f.reg,
	}
	return f
}

func (f *ftFederation) run(t *testing.T, label string) *fedcrawl.Result {
	t.Helper()
	c, err := fedcrawl.New(f.cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res
}

// TestTransportFederationCleanWire is the fault-free end-to-end: three
// remote vantages, HTTP dispatch, signed artifacts, byte-identical merge,
// and zero refusals.
func TestTransportFederationCleanWire(t *testing.T) {
	w, ep := ftWorld(t)
	want := ftBaseline(t, w, ep)
	f := ftFederate(t, w, ep, []string{"w0", "w1", "w2"}, faultinject.HTTPPlan{}, nil)
	res := f.run(t, "clean")
	ftAssertConverged(t, "clean", want, res.Corpus)

	st := f.client.Stats()
	if st.Dispatches == 0 || st.Admitted == 0 {
		t.Errorf("stats = %+v: the clean run must dispatch and admit", st)
	}
	if st.Refusals != (RefusalStats{}) || st.WorkerDeaths != 0 {
		t.Errorf("stats = %+v: a clean wire refused artifacts or killed workers", st)
	}
	for _, p := range f.proxies {
		if s := p.Stats(); s.Forwarded == 0 || s.Dropped+s.Reset+s.Fail5xx+s.Truncated != 0 {
			t.Errorf("proxy stats = %+v, want clean forwards only", s)
		}
	}
}

// TestTransportKillPointSweep is the acceptance sweep: every HTTP fault
// pattern — clean, drops, latency, truncated bodies, connection resets,
// 5xx bursts — crossed with vantage w1 killed at every journal write
// boundary of its first generation (and three bytes into every record),
// and every single variant must merge to the exact corpus of the unsharded
// fault-free run.
func TestTransportKillPointSweep(t *testing.T) {
	w, ep := ftWorld(t)
	want := ftBaseline(t, w, ep)

	patterns := []struct {
		name string
		plan faultinject.HTTPPlan
	}{
		{"clean", faultinject.HTTPPlan{}},
		{"drop", faultinject.HTTPPlan{DropMod: 3, DropModUnder: 1}},
		{"latency", faultinject.HTTPPlan{Latency: 15 * time.Millisecond}},
		{"truncate", faultinject.HTTPPlan{TruncateMod: 2, TruncateModUnder: 1, TruncateBytes: 40}},
		{"reset", faultinject.HTTPPlan{ResetMod: 3, ResetModUnder: 1}},
		{"5xx", faultinject.HTTPPlan{Fail5xxMod: 2, Fail5xxModUnder: 1}},
	}

	// w1's first-generation journal: one write per assigned site (two
	// countries × one middle shard of 2 sites each); the header is written
	// whole, outside the append path. Sweeping one past the end covers the
	// "kill never fires" edge.
	totalWrites := 2 * len(ftCCs)
	stride := 1
	if testing.Short() {
		stride = 3
	}
	for _, pat := range patterns {
		for kill := 0; kill <= totalWrites; kill += stride {
			for _, extra := range []int64{0, 3} {
				label := fmt.Sprintf("%s/kill=%d+%db", pat.name, kill, extra)
				f := ftFederate(t, w, ep, []string{"w0", "w1", "w2"}, pat.plan,
					map[string]journalWrap{"w1": killAt(kill, extra)})
				res := f.run(t, label)
				ftAssertConverged(t, label, want, res.Corpus)
				if n := res.Merge.MergeRefusalsForeign + res.Merge.MergeRefusalsCorrupt; n != 0 {
					t.Fatalf("%s: final merge refused %d journals of its own federation", label, n)
				}
			}
		}
	}
}

// TestTransportFixedFaultSmoke is the CI smoke variant (fixed seed, one
// run): drops, truncated bodies, and connection resets on every vantage's
// wire at once, w1 killed three bytes into its third journal write — full
// convergence plus exact dual-recording of the client's accounting in the
// fedtransport.* obs counters.
func TestTransportFixedFaultSmoke(t *testing.T) {
	w, ep := ftWorld(t)
	want := ftBaseline(t, w, ep)

	// Per-vantage exchange schedule: seq 0 dropped, seq 1 forwarded, seq 2
	// truncated, seq 3 reset, seq 4 truncated, seq 5 forwarded, ...
	plan := faultinject.HTTPPlan{
		DropFirst: 1,
		ResetMod:  3, ResetModUnder: 1,
		TruncateMod: 2, TruncateModUnder: 1, TruncateBytes: 64,
	}
	f := ftFederate(t, w, ep, []string{"w0", "w1", "w2"}, plan, map[string]journalWrap{"w1": killAt(2, 3)})
	res := f.run(t, "fixed-fault")
	ftAssertConverged(t, "fixed-fault", want, res.Corpus)

	if res.Stats.WorkerDeaths == 0 {
		t.Error("the killed vantage was never declared dead")
	}
	var truncated, dropped int
	for _, p := range f.proxies {
		s := p.Stats()
		truncated += s.Truncated
		dropped += s.Dropped + s.Reset
	}
	if truncated == 0 || dropped == 0 {
		t.Errorf("proxies truncated %d and dropped/reset %d exchanges; the smoke must exercise both", truncated, dropped)
	}

	// Dual-recording: the obs channel must agree exactly with the client's
	// own atomic accounting.
	st := f.client.Stats()
	checks := map[string]int64{
		"fedtransport.dispatches":         st.Dispatches,
		"fedtransport.admitted":           st.Admitted,
		"fedtransport.detached_arrivals":  st.DetachedArrivals,
		"fedtransport.worker_deaths":      st.WorkerDeaths,
		"fedtransport.refusals.forged":    st.Refusals.Forged,
		"fedtransport.refusals.truncated": st.Refusals.Truncated,
		"fedtransport.refusals.replayed":  st.Refusals.Replayed,
		"fedtransport.refusals.foreign":   st.Refusals.Foreign,
		"fedtransport.refusals.corrupt":   st.Refusals.Corrupt,
	}
	for name, wantN := range checks {
		if got := f.reg.Counter(name).Value(); got != wantN {
			t.Errorf("%s = %d, client accounting says %d", name, got, wantN)
		}
	}
	if st.Refusals.Truncated == 0 {
		t.Errorf("stats = %+v: truncated bodies must surface as counted truncation refusals", st)
	}
	if st.Admitted == 0 || st.Dispatches == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// hostileVantage answers every assignment with a plausible artifact signed
// by the WRONG key — a vantage (or a man in the middle) trying to feed the
// coordinator results it cannot vouch for.
func hostileVantage(t *testing.T, journal []byte, meta Meta) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if err := WriteArtifact(rw, []byte("not-the-shared-key"), meta,
			int64(len(journal)), bytes.NewReader(journal)); err != nil {
			t.Logf("hostile vantage write: %v", err)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestTransportRefusesHostileVantage: one vantage forges, the survivors
// converge; every vantage forges, the federation fails loudly with an
// empty merge directory — never a silently partial corpus.
func TestTransportRefusesHostileVantage(t *testing.T) {
	w, ep := ftWorld(t)
	want := ftBaseline(t, w, ep)
	journal := testJournal(t, "w1", 1, 2)

	f := ftFederate(t, w, ep, []string{"w0", "w1", "w2"}, faultinject.HTTPPlan{}, nil)
	hostile := hostileVantage(t, journal, Meta{Worker: "w1", Gen: 1, Epoch: artEpoch, Countries: ftCCs})
	f.cfg.Dispatch = nil // rebuild below with the hostile URL spliced in
	urls := map[string]string{}
	for worker, p := range f.proxies {
		urls[worker] = "http://" + p.Addr
	}
	urls["w1"] = hostile.URL
	client, err := NewClient(ClientConfig{
		Workers:   []string{"w0", "w1", "w2"},
		URL:       urls,
		Key:       f.keys,
		Dir:       f.dir,
		Epoch:     artEpoch,
		Countries: ftCCs,
		Policy:    ftPolicy(f.reg),
		Obs:       f.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	f.cfg.Dispatch = client.Dispatcher()
	res := f.run(t, "one-hostile")
	ftAssertConverged(t, "one-hostile", want, res.Corpus)
	st := client.Stats()
	if st.Refusals.Forged == 0 {
		t.Errorf("stats = %+v: the forged artifact was never refused as forged", st)
	}
	if st.WorkerDeaths == 0 || res.Stats.WorkerDeaths == 0 {
		t.Error("the hostile vantage was never retired")
	}
	if got := f.reg.Counter("fedtransport.refusals.forged").Value(); got != st.Refusals.Forged {
		t.Errorf("obs forged = %d, client accounting says %d", got, st.Refusals.Forged)
	}

	// Every vantage hostile: the federation must fail, not merge garbage.
	dir := t.TempDir()
	reg := obs.NewRegistry()
	allURLs := map[string]string{}
	keys := map[string][]byte{}
	for _, worker := range []string{"w0", "w1"} {
		h := hostileVantage(t, journal, Meta{Worker: worker, Gen: 1, Epoch: artEpoch, Countries: ftCCs})
		allURLs[worker] = h.URL
		keys[worker] = []byte("key-" + worker)
	}
	badClient, err := NewClient(ClientConfig{
		Workers: []string{"w0", "w1"}, URL: allURLs, Key: keys,
		Dir: dir, Epoch: artEpoch, Countries: ftCCs,
		Policy: ftPolicy(reg), Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(badClient.Close)
	c, err := fedcrawl.New(fedcrawl.Config{
		Epoch: artEpoch, Countries: ftCCs,
		DomainsOf: func(cc string) []string { return w.Truth.Get(cc).Domains() },
		Workers:   2, Dir: dir, Dispatch: badClient.Dispatcher(), Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("an all-hostile federation produced a corpus")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.journal")); len(files) != 0 {
		t.Errorf("forged artifacts were admitted: %v", files)
	}
}

// TestTransportDetachedArrival pins the asynchronous-arrival contract: a
// dispatch whose wave is cancelled returns the context error immediately,
// but the delivery detaches and the signed artifact is verified and
// admitted whenever it lands — the coordinator's next durable-state scan
// finds the journal without ever having been told about it.
func TestTransportDetachedArrival(t *testing.T) {
	w, ep := ftWorld(t)
	f := ftFederate(t, w, ep, []string{"w0"}, faultinject.HTTPPlan{Latency: 150 * time.Millisecond}, nil)

	jobs := []pipeline.SiteJob{}
	for i, d := range w.Truth.Get("TH").Domains() {
		jobs = append(jobs, pipeline.SiteJob{Country: "TH", Domain: d, Rank: i + 1})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := f.client.dispatch(ctx, "w0", 1, jobs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled dispatch returned %v, want the wave context's error", err)
	}
	if st := f.client.Stats(); st.DetachedArrivals != 1 {
		t.Fatalf("stats = %+v, want one detached arrival", st)
	}

	// The detached delivery must still land the journal, atomically and
	// verified.
	path := filepath.Join(f.dir, "w0-g1.journal")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached artifact never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := checkpoint.InspectBytes(data, path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard == nil || info.Shard.Worker != "w0" || info.Shard.Gen != 1 {
		t.Errorf("admitted journal header = %+v", info)
	}
	if st := f.client.Stats(); st.Admitted != 1 {
		t.Errorf("stats = %+v, want the detached artifact admitted", st)
	}
}

// TestTransportAssignmentAuthentication: a vantage only works for the
// holder of its key, and only on an assignment with a valid shard
// identity. Unsigned or missigned assignments are refused with 403 and
// counted, malformed ones with 400, all before any journal exists; a
// client whose assignment is refused loses that worker after one attempt,
// not the federation.
func TestTransportAssignmentAuthentication(t *testing.T) {
	w, ep := ftWorld(t)
	reg := obs.NewRegistry()
	scratch := t.TempDir()
	v, err := ServeVantage("127.0.0.1:0", VantageConfig{
		Key:     []byte("right-key"),
		NewLive: ftFactory(w, ep),
		Dir:     scratch,
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })

	resp, err := http.Post("http://"+v.Addr+"/crawl", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unsigned assignment answered %d, want 403", resp.StatusCode)
	}
	if got := reg.Counter("fedtransport.vantage.bad_signatures").Value(); got != 1 {
		t.Errorf("bad_signatures = %d, want 1", got)
	}

	cases := []struct {
		name   string
		key    string
		mutate func(a *fedcrawl.Assignment)
		code   int
	}{
		{"wrong key", "wrong-key", func(*fedcrawl.Assignment) {}, http.StatusForbidden},
		{"index past total", "right-key", func(a *fedcrawl.Assignment) { a.Index = a.Total }, http.StatusBadRequest},
		{"negative index", "right-key", func(a *fedcrawl.Assignment) { a.Index = -1 }, http.StatusBadRequest},
		{"no countries", "right-key", func(a *fedcrawl.Assignment) { a.Countries = nil }, http.StatusBadRequest},
	}
	for _, tc := range cases {
		creg := obs.NewRegistry()
		client, err := NewClient(ClientConfig{
			Workers: []string{"w0"},
			URL:     map[string]string{"w0": "http://" + v.Addr},
			Key:     map[string][]byte{"w0": []byte(tc.key)},
			Dir:     t.TempDir(), Epoch: artEpoch, Countries: ftCCs,
			Policy: ftPolicy(creg), Obs: creg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(client.Close)
		a := fedcrawl.Assignment{Worker: "w0", Index: 0, Total: 1, Gen: 1, Epoch: artEpoch, Countries: ftCCs}
		tc.mutate(&a)
		// The vantage's refusal is authoritative: the worker is declared
		// dead after one attempt.
		err = client.deliver(context.Background(), a)
		if !errors.Is(err, fedcrawl.ErrWorkerDead) {
			t.Fatalf("%s: dispatch returned %v, want a worker death", tc.name, err)
		}
		if want := fmt.Sprintf("answered %d", tc.code); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: dispatch error %q, want the vantage to have %s", tc.name, err, want)
		}
		if p := client.Policy().Stats(); p.Attempts != 1 {
			t.Errorf("%s: policy attempts = %d; a %d is permanent and must not be retried", tc.name, p.Attempts, tc.code)
		}
	}
	if got := reg.Counter("fedtransport.vantage.assignments").Value(); got != 0 {
		t.Errorf("vantage accepted %d refused assignments", got)
	}
	if files, _ := os.ReadDir(scratch); len(files) != 0 {
		t.Errorf("refused assignments left journals in the vantage's scratch directory: %v", files)
	}
}

// TestServeVantageFailureRemovesScratchDir: a vantage that cannot listen
// leaves no private scratch directory behind.
func TestServeVantageFailureRemovesScratchDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	live := func() *pipeline.Live { return nil }
	if v, err := ServeVantage(ln.Addr().String(), VantageConfig{Key: []byte("k"), NewLive: live}); err == nil {
		v.Close()
		t.Fatal("vantage started on an address already bound")
	}
	if files, _ := os.ReadDir(tmp); len(files) != 0 {
		t.Errorf("failed ServeVantage left %v in TMPDIR", files)
	}
}

// TestVantageHeaderTimeout: a connection that sends half a request head
// is closed once readHeaderTimeout has passed, not held open.
func TestVantageHeaderTimeout(t *testing.T) {
	t.Parallel()
	v, err := ServeVantage("127.0.0.1:0", VantageConfig{Key: []byte("k"), NewLive: func() *pipeline.Live { return nil }, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	c, err := net.Dial("tcp", v.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := io.WriteString(c, "POST /crawl HTTP/1.1\r\nHost: v\r\n"); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	n, err := io.Copy(io.Discard, c)
	took := time.Since(start)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the connection is still open after %v", took)
	}
	if n != 0 || took < readHeaderTimeout-100*time.Millisecond {
		t.Errorf("the connection closed after %v with %d bytes, want %v and none", took, n, readHeaderTimeout)
	}
}

func TestClientConfigValidation(t *testing.T) {
	base := func() ClientConfig {
		return ClientConfig{
			Workers:   []string{"w0"},
			URL:       map[string]string{"w0": "http://127.0.0.1:1"},
			Key:       map[string][]byte{"w0": []byte("k")},
			Dir:       "/tmp/x",
			Epoch:     artEpoch,
			Countries: ftCCs,
		}
	}
	cases := []struct {
		name   string
		mutate func(*ClientConfig)
	}{
		{"no workers", func(c *ClientConfig) { c.Workers = nil }},
		{"no dir", func(c *ClientConfig) { c.Dir = "" }},
		{"no epoch", func(c *ClientConfig) { c.Epoch = "" }},
		{"missing url", func(c *ClientConfig) { c.URL = nil }},
		{"missing key", func(c *ClientConfig) { c.Key = nil }},
		{"duplicate worker", func(c *ClientConfig) { c.Workers = []string{"w0", "w0"} }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		if _, err := NewClient(cfg); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	cfg := base()
	client, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.dispatch(context.Background(), "w9", 1, nil); err == nil ||
		errors.Is(err, fedcrawl.ErrWorkerDead) {
		t.Errorf("unknown worker returned %v, want a plain configuration error", err)
	}
}
