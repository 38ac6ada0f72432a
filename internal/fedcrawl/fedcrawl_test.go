package fedcrawl

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/faultinject"
	"github.com/webdep/webdep/internal/liveworld"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/resilience"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
	"github.com/webdep/webdep/internal/worldgen"
)

// The federated suite extends the PR 4 crash-convergence invariant across
// processes: a crawl sharded over N workers, with workers killed at
// arbitrary journal offsets and their shards re-assigned to survivors,
// must merge to the exact corpus of an unsharded fault-free run.

const fedEpoch = "2023-05"

var fedCCs = []string{"TH", "CZ", "US"}

const fedSitesPerCountry = 5

func fedWorld(t *testing.T) (*worldgen.World, *liveworld.Endpoints) {
	t.Helper()
	w, err := worldgen.Build(worldgen.Config{
		Seed:               7,
		SitesPerCountry:    fedSitesPerCountry,
		Countries:          fedCCs,
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

func proxyFor(t *testing.T, upstream string, udpPlan, tcpPlan faultinject.Plan) *faultinject.Proxy {
	t.Helper()
	p, err := faultinject.New(upstream, udpPlan, tcpPlan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// lossyFactory builds per-worker crawlers with the crash suite's retry
// posture: enough attempts that residual failure under 30% loss is
// negligible.
func lossyFactory(w *worldgen.World, dnsAddr, tlsAddr string) func(worker string) *pipeline.Live {
	return func(worker string) *pipeline.Live {
		dns := resolver.NewClient(dnsAddr)
		dns.Timeout = 100 * time.Millisecond
		return &pipeline.Live{
			Pipeline:       pipeline.FromWorld(w),
			DNS:            dns,
			Scanner:        tlsscan.New(w.Owners),
			TLSAddr:        tlsAddr,
			Workers:        4,
			DetectLanguage: true,
			Resilience: &resilience.Policy{
				MaxAttempts: 12,
				BaseDelay:   time.Millisecond,
				MaxDelay:    5 * time.Millisecond,
			},
		}
	}
}

// baseline crawls the world unsharded and fault-free: the corpus every
// federated merge must reproduce byte for byte.
func baseline(t *testing.T, w *worldgen.World, ep *liveworld.Endpoints, ccs []string) *dataset.Corpus {
	t.Helper()
	live := &pipeline.Live{
		Pipeline:       pipeline.FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        ep.TLSAddr,
		Workers:        8,
		DetectLanguage: true,
	}
	corpus, err := live.CrawlCorpus(context.Background(), fedEpoch, ccs,
		func(cc string) []string { return w.Truth.Get(cc).Domains() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func assertFedConverged(t *testing.T, label string, ccs []string, want, got *dataset.Corpus) {
	t.Helper()
	for _, cc := range ccs {
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
		if cov == nil {
			t.Fatalf("%s: %s has no coverage accounting", label, cc)
		}
		if cov.Fraction() != 1 || cov.Degraded {
			t.Fatalf("%s: %s coverage %.3f degraded=%v, want full", label, cc, cov.Fraction(), cov.Degraded)
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

func fedConfig(w *worldgen.World, dir string, workers int, factory func(string) *pipeline.Live) Config {
	cfg := Config{
		Epoch:     fedEpoch,
		Countries: fedCCs,
		DomainsOf: func(cc string) []string { return w.Truth.Get(cc).Domains() },
		Workers:   workers,
		Dir:       dir,
		Obs:       obs.NewRegistry(),
	}
	cfg.Dispatch = Local(cfg, factory)
	return cfg
}

// journalWrap wraps a journal's writer, as checkpoint.Options.WrapWriter.
type journalWrap = func(checkpoint.WriteSyncer) checkpoint.WriteSyncer

// firstGen is the journal fault seam the suite shares: a worker named in
// wraps writes its generation-1 journal through its wrapper, and every
// other journal is left alone.
func firstGen(cfg Config, wraps map[string]journalWrap) func(Assignment) *checkpoint.Options {
	return func(a Assignment) *checkpoint.Options {
		o := &checkpoint.Options{Obs: cfg.Obs}
		if a.Gen == 1 {
			o.WrapWriter = wraps[a.Worker]
		}
		return o
	}
}

// killAt kills a journal after the given number of complete writes plus
// extra bytes of the next one.
func killAt(writes int, extra int64) journalWrap {
	return func(ws checkpoint.WriteSyncer) checkpoint.WriteSyncer {
		return faultinject.NewKillWriter(ws, writes, extra, nil)
	}
}

// TestFederatedKillPointSweep is the acceptance sweep: a three-country
// crawl sharded over three workers under 30% injected transient loss, with
// worker w1 killed at EVERY write boundary of its first journal and three
// bytes into every record (torn mid-record writes), its shards re-assigned
// to the survivors — and every single variant must merge to the exact
// byte-identical corpus of the unsharded fault-free run.
func TestFederatedKillPointSweep(t *testing.T) {
	w, ep := fedWorld(t)
	want := baseline(t, w, ep, fedCCs)

	loss := faultinject.Plan{DropMod: 10, DropModUnder: 3}
	dnsProxy := proxyFor(t, ep.DNSAddr, loss, loss)
	tlsProxy := proxyFor(t, ep.TLSAddr, faultinject.Plan{}, loss)
	factory := lossyFactory(w, dnsProxy.Addr, tlsProxy.Addr)

	// w1's first-wave journal writes: magic + header + one per assigned
	// site. Sweeping one past the end covers the "kill never fires" edge.
	totalWrites := 2 + 2*len(fedCCs)
	stride := 1
	if testing.Short() {
		stride = 3
	}
	for kill := 0; kill <= totalWrites; kill += stride {
		for _, extra := range []int64{0, 3} {
			label := "kill=" + itoa(kill) + "+" + itoa(int(extra)) + "b"
			cfg := fedConfig(w, t.TempDir(), 3, factory)
			cfg.Dispatch = local(cfg, factory, firstGen(cfg, map[string]journalWrap{
				"w1": killAt(kill, extra),
			}))
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertFedConverged(t, label, fedCCs, want, res.Corpus)
			if n := res.Merge.MergeRefusalsForeign + res.Merge.MergeRefusalsCorrupt; n != 0 {
				t.Fatalf("%s: final merge refused %d journals of its own federation", label, n)
			}
		}
	}
	if s := dnsProxy.Stats(); s.UDPDropped == 0 {
		t.Error("DNS proxy dropped nothing; the sweep exercised no transient loss")
	}
	if s := tlsProxy.Stats(); s.TCPDropped == 0 {
		t.Error("TLS proxy dropped nothing; the sweep exercised no transient loss")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestFederatedFixedKillSmoke is the CI smoke variant: one worker killed
// three bytes into its fifth journal write (a torn mid-record tear), one
// replica vantage per shard, full convergence plus the accounting
// cross-checks — coordinator stats against the fedcrawl.* obs counters,
// and the reported disagreement against an independent re-merge.
func TestFederatedFixedKillSmoke(t *testing.T) {
	w, ep := fedWorld(t)
	want := baseline(t, w, ep, fedCCs)

	loss := faultinject.Plan{DropMod: 10, DropModUnder: 3}
	dnsProxy := proxyFor(t, ep.DNSAddr, loss, loss)
	tlsProxy := proxyFor(t, ep.TLSAddr, faultinject.Plan{}, loss)

	dir := t.TempDir()
	factory := lossyFactory(w, dnsProxy.Addr, tlsProxy.Addr)
	cfg := fedConfig(w, dir, 3, factory)
	cfg.Replicate = 1
	// Kill w1 three bytes into its fifth write (a mid-record tear) AND w2
	// at its seventh write boundary: with both the primary and the replica
	// vantage of some shards dead, convergence must come from re-dispatch
	// to the lone survivor.
	cfg.Dispatch = local(cfg, factory, firstGen(cfg, map[string]journalWrap{
		"w1": killAt(4, 3),
		"w2": killAt(6, 0),
	}))
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertFedConverged(t, "fixed-kill", fedCCs, want, res.Corpus)

	st := res.Stats
	if st.WorkerDeaths != 2 {
		t.Errorf("worker deaths = %d, want exactly the two injected kills", st.WorkerDeaths)
	}
	if st.Waves < 2 || st.Redispatches == 0 {
		t.Errorf("stats = %+v: a killed worker's shards must be re-dispatched in a later wave", st)
	}
	if res.Merge.Truncations == 0 {
		t.Error("no torn tail tolerated; the mid-record kill left one by construction")
	}
	// Dual-recording: the obs channel must agree exactly with Stats.
	checks := map[string]int64{
		"fedcrawl.waves":         st.Waves,
		"fedcrawl.dispatches":    st.Dispatches,
		"fedcrawl.redispatches":  st.Redispatches,
		"fedcrawl.replicas":      st.Replicas,
		"fedcrawl.worker_deaths": st.WorkerDeaths,
		"fedcrawl.stragglers":    st.Stragglers,
	}
	for name, wantN := range checks {
		if got := cfg.Obs.Counter(name).Value(); got != wantN {
			t.Errorf("%s = %d, coordinator accounting says %d", name, got, wantN)
		}
	}

	// Replication must have produced overlap, the deterministic world zero
	// disagreement — and an independent re-merge must reproduce both the
	// table and its obs counters exactly.
	if res.Disagreement.Overlap() == 0 {
		t.Error("Replicate=1 produced no overlapping probes")
	}
	if res.Disagreement.Disagree() != 0 {
		t.Errorf("deterministic world disagreed on %d keys", res.Disagreement.Disagree())
	}
	reg := obs.NewRegistry()
	again, err := Merge(dir, fedEpoch, fedCCs, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Disagreement, res.Disagreement) {
		t.Errorf("re-merge disagreement %+v differs from run's %+v", again.Disagreement, res.Disagreement)
	}
	for _, d := range again.Disagreement.PerCountry {
		if got := reg.Counter("fedcrawl.disagreement.overlap." + d.Country).Value(); got != int64(d.Overlap) {
			t.Errorf("%s: obs overlap = %d, table says %d", d.Country, got, d.Overlap)
		}
		if got := reg.Counter("fedcrawl.disagreement.differ." + d.Country).Value(); got != int64(d.Disagree) {
			t.Errorf("%s: obs differ = %d, table says %d", d.Country, got, d.Disagree)
		}
	}
	assertFedConverged(t, "re-merge", fedCCs, want, again.Corpus)
}

// TestFederatedResumesLeftoverDirectory proves the coordinator trusts only
// durable state: pointed at a directory whose journals already cover the
// whole work-list, it must merge without dispatching a single worker.
func TestFederatedResumesLeftoverDirectory(t *testing.T) {
	w, ep := fedWorld(t)
	want := baseline(t, w, ep, fedCCs)

	dir := t.TempDir()
	factory := lossyFactory(w, ep.DNSAddr, ep.TLSAddr)
	c, err := New(fedConfig(w, dir, 2, factory))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	cfg := fedConfig(w, dir, 2, func(worker string) *pipeline.Live {
		t.Errorf("resume dispatched worker %s over a complete directory", worker)
		return factory(worker)
	})
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Waves != 0 || res.Stats.Dispatches != 0 {
		t.Errorf("resume over a complete directory ran %+v", res.Stats)
	}
	assertFedConverged(t, "leftover-resume", fedCCs, want, res.Corpus)
}

// TestFederatedResumesPartialLeftoverDirectory is the harder resume case:
// a directory where only PART of the work-list has durable records — the
// shape a crashed coordinator leaves behind. The rebuilt coordinator must
// re-dispatch exactly the missing keys, and it must never reuse (and
// thereby truncate) a leftover journal's name: the surviving journal's
// completed records are durable state, not scratch space. The resumed run
// deliberately uses a worker count whose first-wave journal name would
// collide with the surviving journal under naive wave numbering.
func TestFederatedResumesPartialLeftoverDirectory(t *testing.T) {
	w, ep := fedWorld(t)
	want := baseline(t, w, ep, fedCCs)

	dir := t.TempDir()
	factory := lossyFactory(w, ep.DNSAddr, ep.TLSAddr)
	c, err := New(fedConfig(w, dir, 2, factory))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Simulate the crashed run: w1's journal is gone, w0's survives with
	// roughly half the work-list complete.
	if err := os.Remove(filepath.Join(dir, "w1-g1.journal")); err != nil {
		t.Fatal(err)
	}
	survivor := filepath.Join(dir, "w0-g1.journal")
	before, err := os.ReadFile(survivor)
	if err != nil {
		t.Fatal(err)
	}

	// Resume with ONE worker: every re-dispatched shard lands on w0, whose
	// generation-1 journal name is already taken by the survivor.
	c2, err := New(fedConfig(w, dir, 1, factory))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(survivor)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("resume rewrote the surviving journal %s (%d -> %d bytes); completed durable records were destroyed",
			survivor, len(before), len(after))
	}
	// One wave re-crawls exactly the missing keys; a second wave would mean
	// the resume destroyed records scanMissing had counted as complete.
	if res.Stats.Waves != 1 {
		t.Errorf("resume over a half-complete directory ran %d waves, want 1 (stats %+v)", res.Stats.Waves, res.Stats)
	}
	if _, err := os.Stat(filepath.Join(dir, "w0-g2.journal")); err != nil {
		t.Errorf("resume wave did not journal under a fresh generation: %v", err)
	}
	assertFedConverged(t, "partial-resume", fedCCs, want, res.Corpus)
}

// TestFederatedJournalCreateFailureIsWorkerDeath: a worker that cannot
// even create its shard journal forfeits its assignment like any other
// dead worker — the run converges through re-dispatch to the survivors
// instead of failing outright.
func TestFederatedJournalCreateFailureIsWorkerDeath(t *testing.T) {
	w, ep := fedWorld(t)
	want := baseline(t, w, ep, fedCCs)

	factory := lossyFactory(w, ep.DNSAddr, ep.TLSAddr)
	cfg := fedConfig(w, t.TempDir(), 2, factory)
	// w1 journals into a directory that does not exist: every journal it
	// tries to create fails.
	missing := cfg
	missing.Dir = filepath.Join(cfg.Dir, "missing")
	good, bad := cfg.Dispatch, Local(missing, factory)
	cfg.Dispatch = func(ctx context.Context, worker string, gen int, jobs []pipeline.SiteJob) error {
		if worker == "w1" {
			return bad(ctx, worker, gen, jobs)
		}
		return good(ctx, worker, gen, jobs)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("a single worker's journal-creation failure failed the federation: %v", err)
	}
	assertFedConverged(t, "create-failure", fedCCs, want, res.Corpus)
	st := res.Stats
	if st.WorkerDeaths != 1 {
		t.Errorf("worker deaths = %d, want the one create-failed worker", st.WorkerDeaths)
	}
	if st.Waves < 2 || st.Redispatches == 0 {
		t.Errorf("stats = %+v: the dead worker's shards must be re-dispatched to the survivor", st)
	}
	if got := cfg.Obs.Counter("fedcrawl.worker_deaths").Value(); got != st.WorkerDeaths {
		t.Errorf("obs worker_deaths = %d, stats say %d", got, st.WorkerDeaths)
	}
}

// TestMergeRefusesAllHeaderlessJournals: a directory whose journals are
// all torn before their headers holds no campaign identity and no records;
// the CLI-mode merge (adopted header) must refuse it rather than export an
// empty corpus.
func TestMergeRefusesAllHeaderlessJournals(t *testing.T) {
	dir := t.TempDir()
	// A strict prefix of the magic is a torn first write — accepted by the
	// scanner, contributing nothing. An empty file is the same.
	if err := os.WriteFile(filepath.Join(dir, "w0-g1.journal"), []byte("WDEP"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "w1-g1.journal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(dir, "", nil, obs.NewRegistry()); err == nil {
		t.Fatal("adopt-mode merge over header-less journals exported a corpus")
	} else if !strings.Contains(err.Error(), "header") {
		t.Fatalf("refusal does not name the missing headers: %v", err)
	}
	// With an explicit campaign identity the per-country completeness check
	// refuses the same directory.
	if _, err := Merge(dir, fedEpoch, fedCCs, obs.NewRegistry()); err == nil {
		t.Fatal("merge over header-less journals exported a corpus")
	}
}

// TestFederatedRefusesCorruptAndForeignJournals: both the coordinator's
// scan and the standalone merge must fail the WHOLE operation with a typed
// *checkpoint.CorruptError when the directory holds a mid-file-corrupt or
// foreign-epoch journal — never quietly crawl or merge around it.
func TestFederatedRefusesCorruptAndForeignJournals(t *testing.T) {
	w, ep := fedWorld(t)
	dir := t.TempDir()
	factory := lossyFactory(w, ep.DNSAddr, ep.TLSAddr)
	c, err := New(fedConfig(w, dir, 2, factory))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	journals, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil || len(journals) == 0 {
		t.Fatalf("no journals after a completed federation (%v)", err)
	}

	// Foreign epoch first: plant a journal from another campaign.
	foreign := filepath.Join(dir, "zz-foreign.journal")
	fj, err := checkpoint.Create(foreign, "2099-01", fedCCs, &checkpoint.Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fj.Close()
	var ce *checkpoint.CorruptError
	if _, err := Merge(dir, fedEpoch, fedCCs, obs.NewRegistry()); !errors.As(err, &ce) {
		t.Fatalf("merge over a foreign journal returned %T (%v), want *CorruptError", err, err)
	}
	c2, err := New(fedConfig(w, dir, 2, factory))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(context.Background()); !errors.As(err, &ce) {
		t.Fatalf("coordinator over a foreign journal returned %T (%v), want *CorruptError", err, err)
	}
	if err := os.Remove(foreign); err != nil {
		t.Fatal(err)
	}

	// Then mid-file corruption: flip a byte in the middle of a real shard
	// journal.
	data, err := os.ReadFile(journals[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(journals[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(dir, fedEpoch, fedCCs, obs.NewRegistry()); !errors.As(err, &ce) {
		t.Fatalf("merge over a corrupt journal returned %T (%v), want *CorruptError", err, err)
	} else if ce.Offset <= 0 {
		t.Errorf("corrupt refusal offset = %d, want a real byte offset", ce.Offset)
	}
	c3, err := New(fedConfig(w, dir, 2, factory))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Run(context.Background()); !errors.As(err, &ce) {
		t.Fatalf("coordinator over a corrupt journal returned %T (%v), want *CorruptError", err, err)
	}
}

// TestFederatedBudgetExhaustion: with every probe path dead, re-dispatch
// must stop at the per-shard retry budget with an honest error instead of
// looping forever.
func TestFederatedBudgetExhaustion(t *testing.T) {
	w, err := worldgen.Build(worldgen.Config{
		Seed:               11,
		SitesPerCountry:    2,
		Countries:          []string{"TH", "CZ"},
		DomesticPerCountry: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Epoch:        fedEpoch,
		Countries:    []string{"TH", "CZ"},
		DomainsOf:    func(cc string) []string { return w.Truth.Get(cc).Domains() },
		Workers:      1,
		Dir:          t.TempDir(),
		ShardRetries: 2,
		Obs:          obs.NewRegistry(),
	}
	cfg.Dispatch = Local(cfg, func(worker string) *pipeline.Live {
		// Both probe paths point at a dead port: every field of every
		// probe is transiently lost, so no key ever completes.
		dns := resolver.NewClient("127.0.0.1:1")
		dns.Timeout = 10 * time.Millisecond
		return &pipeline.Live{
			Pipeline: pipeline.FromWorld(w),
			DNS:      dns,
			Scanner:  tlsscan.New(w.Owners),
			TLSAddr:  "127.0.0.1:1",
			Workers:  2,
		}
	})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background())
	if err == nil {
		t.Fatal("run converged with every probe path dead")
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("exhaustion error does not name the budget: %v", err)
	}
	st := c.Stats()
	// Waves 1–3 dispatch (one free + two paid per shard); wave 4 aborts on
	// the first over-budget shard.
	if st.Waves != 4 || st.Redispatches != 4 {
		t.Errorf("stats = %+v, want 4 waves and 2 shards × 2 paid re-dispatches", st)
	}
	if got := cfg.Obs.Counter("fedcrawl.redispatches").Value(); got != st.Redispatches {
		t.Errorf("obs redispatches = %d, stats say %d", got, st.Redispatches)
	}
}

// slowWriter delays every journal write — a worker that is alive but too
// slow for the wave deadline.
type slowWriter struct {
	checkpoint.WriteSyncer
	delay time.Duration
}

func (s *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.WriteSyncer.Write(p)
}

// TestFederatedStragglerRedispatch: a worker that stalls past the wave's
// soft deadline is cancelled — NOT declared dead — and its unfinished keys
// converge through re-dispatch.
func TestFederatedStragglerRedispatch(t *testing.T) {
	w, err := worldgen.Build(worldgen.Config{
		Seed:               13,
		SitesPerCountry:    2,
		Countries:          []string{"TH", "CZ"},
		DomesticPerCountry: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := liveworld.Serve(w)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ccs := []string{"TH", "CZ"}

	live := &pipeline.Live{
		Pipeline:       pipeline.FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        ep.TLSAddr,
		Workers:        8,
		DetectLanguage: true,
	}
	want, err := live.CrawlCorpus(context.Background(), fedEpoch, ccs,
		func(cc string) []string { return w.Truth.Get(cc).Domains() }, nil)
	if err != nil {
		t.Fatal(err)
	}

	factory := func(worker string) *pipeline.Live {
		dns := resolver.NewClient(ep.DNSAddr)
		dns.Timeout = 100 * time.Millisecond
		return &pipeline.Live{
			Pipeline:       pipeline.FromWorld(w),
			DNS:            dns,
			Scanner:        tlsscan.New(w.Owners),
			TLSAddr:        ep.TLSAddr,
			Workers:        2,
			DetectLanguage: true,
		}
	}
	cfg := Config{
		Epoch:          fedEpoch,
		Countries:      ccs,
		DomainsOf:      func(cc string) []string { return w.Truth.Get(cc).Domains() },
		Workers:        2,
		Dir:            t.TempDir(),
		StragglerAfter: 400 * time.Millisecond,
		Obs:            obs.NewRegistry(),
	}
	cfg.Dispatch = local(cfg, factory, firstGen(cfg, map[string]journalWrap{
		"w1": func(ws checkpoint.WriteSyncer) checkpoint.WriteSyncer {
			return &slowWriter{WriteSyncer: ws, delay: 300 * time.Millisecond}
		},
	}))
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertFedConverged(t, "straggler", ccs, want, res.Corpus)
	st := res.Stats
	if st.Stragglers == 0 {
		t.Error("no straggler wave detected despite the stalled worker")
	}
	if st.WorkerDeaths != 0 {
		t.Errorf("straggling declared %d workers dead; slowness is not death", st.WorkerDeaths)
	}
	if st.Redispatches == 0 {
		t.Error("straggler's keys were never re-dispatched")
	}
	if got := cfg.Obs.Counter("fedcrawl.stragglers").Value(); got != st.Stragglers {
		t.Errorf("obs stragglers = %d, stats say %d", got, st.Stragglers)
	}
}

// TestPartitionDeterministicAndRankPreserving pins the partition contract:
// pure, contiguous, near-balanced, global ranks intact.
func TestPartitionDeterministicAndRankPreserving(t *testing.T) {
	domains := map[string][]string{
		"TH": {"a.th", "b.th", "c.th", "d.th", "e.th"},
		"CZ": {"a.cz", "b.cz"},
		"US": {},
	}
	of := func(cc string) []string { return domains[cc] }
	a := Partition([]string{"TH", "CZ", "US"}, of, 3)
	b := Partition([]string{"TH", "CZ", "US"}, of, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("partition is not deterministic")
	}
	// TH: 3 shards (2,2,1); CZ: 2 shards (1,1); US: none.
	if len(a) != 5 {
		t.Fatalf("got %d shards, want 5: %+v", len(a), a)
	}
	next := map[string]int{}
	for i, sh := range a {
		if sh.ID != i {
			t.Errorf("shard %d carries ID %d", i, sh.ID)
		}
		if len(sh.Jobs) == 0 {
			t.Errorf("shard %d is empty", i)
		}
		for _, job := range sh.Jobs {
			if job.Country != sh.Country {
				t.Errorf("shard %d (%s) holds a job for %s", i, sh.Country, job.Country)
			}
			if job.Rank != next[sh.Country]+1 {
				t.Errorf("%s: rank %d out of order (want %d)", job.Domain, job.Rank, next[sh.Country]+1)
			}
			next[sh.Country] = job.Rank
			if domains[sh.Country][job.Rank-1] != job.Domain {
				t.Errorf("%s: rank %d is not its global rank", job.Domain, job.Rank)
			}
		}
	}
	if next["TH"] != 5 || next["CZ"] != 2 {
		t.Errorf("partition dropped domains: covered %+v", next)
	}
	// More workers than domains must not produce empty shards.
	for _, sh := range Partition([]string{"CZ"}, of, 16) {
		if len(sh.Jobs) != 1 {
			t.Errorf("oversharded partition produced shard with %d jobs", len(sh.Jobs))
		}
	}
}

// TestMergeDisagreementCounting feeds the merge two hand-written vantages
// that disagree on one key's hosting measurement and checks every channel:
// the table, its per-field counts, the rate, and the obs counters.
func TestMergeDisagreementCounting(t *testing.T) {
	dir := t.TempDir()
	ccs := []string{"TH"}
	site := func(host string) dataset.Website {
		return dataset.Website{
			Domain: "a.th", Country: "TH", Rank: 1,
			HostProvider: host, DNSProvider: "dns-x", CAOwner: "ca-x", TLD: "th",
		}
	}
	ok := dataset.SiteOutcome{Host: dataset.StatusOK, NS: dataset.StatusOK, CA: dataset.StatusOK, Language: dataset.StatusOK}

	for i, host := range []string{"host-a", "host-b"} {
		sh := &checkpoint.ShardInfo{Worker: "w" + itoa(i), Index: i, Total: 2, Gen: 1}
		j, err := checkpoint.CreateShard(filepath.Join(dir, "w"+itoa(i)+"-g1.journal"), fedEpoch, ccs, sh,
			&checkpoint.Options{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		j.Append("TH", site(host), ok)
		j.Close()
	}

	reg := obs.NewRegistry()
	res, err := Merge(dir, fedEpoch, ccs, reg)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Disagreement.Of("TH")
	if d == nil {
		t.Fatal("no disagreement row for TH")
	}
	if d.Keys != 1 || d.Overlap != 1 || d.Disagree != 1 {
		t.Errorf("row = %+v, want 1 key / 1 overlap / 1 disagreement", d)
	}
	if d.Diffs.Host != 1 || d.Diffs.DNS != 0 || d.Diffs.CA != 0 || d.Diffs.Language != 0 {
		t.Errorf("field diffs = %+v, want the hosting field only", d.Diffs)
	}
	if d.Rate() != 1 {
		t.Errorf("rate = %v, want 1", d.Rate())
	}
	if got := reg.Counter("fedcrawl.disagreement.overlap.TH").Value(); got != 1 {
		t.Errorf("obs overlap = %d, want 1", got)
	}
	if got := reg.Counter("fedcrawl.disagreement.differ.TH").Value(); got != 1 {
		t.Errorf("obs differ = %d, want 1", got)
	}
	// The winner is deterministic: fewest lost fields tie → worker name
	// breaks it.
	if got := res.Corpus.Get("TH").Sites[0].HostProvider; got != "host-a" {
		t.Errorf("winner host = %q, want the deterministic tie-break", got)
	}
}
