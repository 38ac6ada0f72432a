package pipeline

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/faultinject"
	"github.com/webdep/webdep/internal/liveworld"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/resilience"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
	"github.com/webdep/webdep/internal/worldgen"
)

// The crash-convergence suite extends PR 2's live-path invariant across
// process crashes: a checkpointed crawl killed at ANY journal offset —
// whole-record boundaries and mid-record torn writes alike — and then
// resumed must produce the exact corpus of a fault-free uninterrupted
// run, even with 30% transient loss injected on every probe path.

const crashEpoch = "2023-05"

var crashCCs = []string{"TH", "CZ", "US"}

const crashSitesPerCountry = 5

// crashWorld serves a three-country world for the crash suite: ≥3
// countries so resume interleaves replayed and live sites across country
// boundaries, small enough that a sweep of kill points stays fast.
func crashWorld(t *testing.T) (*worldgen.World, *liveworld.Endpoints) {
	t.Helper()
	w, err := worldgen.Build(worldgen.Config{
		Seed:               7,
		SitesPerCountry:    crashSitesPerCountry,
		Countries:          crashCCs,
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

// lossyLive builds a Live crawler pointed at (possibly proxied) endpoints
// with the same retry posture as the PR 2 convergence tests: enough
// attempts that residual failure under 30% loss is negligible.
func lossyLive(w *worldgen.World, dnsAddr, tlsAddr string, reg *obs.Registry) *Live {
	dns := resolver.NewClient(dnsAddr)
	dns.Timeout = 100 * time.Millisecond
	return &Live{
		Pipeline:       FromWorld(w),
		DNS:            dns,
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        tlsAddr,
		Workers:        8,
		DetectLanguage: true,
		Resilience: &resilience.Policy{
			MaxAttempts: 12,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
		},
		Obs: reg,
	}
}

func crawlAll(t *testing.T, w *worldgen.World, live *Live) *dataset.Corpus {
	t.Helper()
	corpus, err := live.CrawlCorpus(context.Background(), crashEpoch, crashCCs,
		func(cc string) []string { return w.Truth.Get(cc).Domains() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// crashRun runs a checkpointed lossy crawl that "crashes" at the given
// kill point: after killWrites complete journal writes plus extraBytes of
// the next record, the journal's disk goes dead and the crawl context is
// cancelled, exactly as if the process had been killed — the journal file
// retains only the bytes written before the kill, torn mid-record when
// extraBytes lands inside a frame.
func crashRun(t *testing.T, w *worldgen.World, dnsAddr, tlsAddr, path string, killWrites int, extraBytes int64) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := &checkpoint.Options{
		Obs: obs.NewRegistry(),
		WrapWriter: func(ws checkpoint.WriteSyncer) checkpoint.WriteSyncer {
			return faultinject.NewKillWriter(ws, killWrites, extraBytes, cancel)
		},
		OnDisarm: func(error) { cancel() },
	}
	j, err := checkpoint.Create(path, crashEpoch, crashCCs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	live := lossyLive(w, dnsAddr, tlsAddr, obs.NewRegistry())
	live.Checkpoint = j
	_, err = live.CrawlCorpus(ctx, crashEpoch, crashCCs,
		func(cc string) []string { return w.Truth.Get(cc).Domains() }, nil)
	// A kill late in the final record can land after the last site
	// completed, in which case the crawl finishes; otherwise it must have
	// died on the cancelled context.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("crash run failed with a non-crash error: %v", err)
	}
}

// resumeRun reopens the torn journal and crawls to completion under the
// same injected loss, returning the corpus and the journal's accounting.
func resumeRun(t *testing.T, w *worldgen.World, dnsAddr, tlsAddr, path string, reg *obs.Registry) (*dataset.Corpus, checkpoint.Stats) {
	t.Helper()
	j, err := checkpoint.Resume(path, crashEpoch, crashCCs, &checkpoint.Options{Obs: reg})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer j.Close()
	live := lossyLive(w, dnsAddr, tlsAddr, reg)
	live.Checkpoint = j
	corpus := crawlAll(t, w, live)
	if err := j.Err(); err != nil {
		t.Fatalf("journal disarmed during resume: %v", err)
	}
	return corpus, j.Stats()
}

// assertConverged fails unless got is the exact fault-free corpus: every
// site byte-identical, full coverage, no degraded countries, identical
// scores on every layer.
func assertConverged(t *testing.T, label string, want, got *dataset.Corpus) {
	t.Helper()
	for _, cc := range crashCCs {
		b, g := want.Get(cc), got.Get(cc)
		if g == nil {
			t.Fatalf("%s: %s missing from corpus", label, cc)
		}
		if len(b.Sites) != len(g.Sites) {
			t.Fatalf("%s: %s has %d sites, want %d", label, cc, len(g.Sites), len(b.Sites))
		}
		for i := range b.Sites {
			if g.Sites[i] != b.Sites[i] {
				t.Fatalf("%s: %s site %d differs:\n fault-free %+v\n resumed    %+v",
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
	for _, layer := range []countries.Layer{countries.Hosting, countries.DNS, countries.CA, countries.TLD} {
		ws, gs := want.ScoreSet().Scores(layer), got.ScoreSet().Scores(layer)
		for cc, v := range ws {
			if gs[cc] != v {
				t.Fatalf("%s: %v score for %s = %v, fault-free run says %v", label, layer, cc, gs[cc], v)
			}
		}
	}
}

// TestCrashResumeConvergesAtEveryKillPoint is the acceptance sweep: under
// 30% injected transient loss on the DNS and TLS/HTTP paths, crash a
// three-country checkpointed crawl at every journal write boundary AND
// three bytes into every record (a torn mid-record write), resume it, and
// require exact convergence to the fault-free corpus each time.
func TestCrashResumeConvergesAtEveryKillPoint(t *testing.T) {
	w, ep := crashWorld(t)

	baseline := crawlAll(t, w, &Live{
		Pipeline:       FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        ep.TLSAddr,
		Workers:        8,
		DetectLanguage: true,
	})

	loss := faultinject.Plan{DropMod: 10, DropModUnder: 3}
	dnsProxy := proxyFor(t, ep.DNSAddr, loss, loss)
	tlsProxy := proxyFor(t, ep.TLSAddr, faultinject.Plan{}, loss)

	// Journal writes for a full run: magic + header + one per site.
	totalWrites := 2 + len(crashCCs)*crashSitesPerCountry
	stride := 1
	if testing.Short() {
		stride = 4
	}
	dir := t.TempDir()
	for kill := 0; kill < totalWrites; kill += stride {
		for _, extra := range []int64{0, 3} {
			path := filepath.Join(dir, "sweep.journal")
			crashRun(t, w, dnsProxy.Addr, tlsProxy.Addr, path, kill, extra)
			corpus, _ := resumeRun(t, w, dnsProxy.Addr, tlsProxy.Addr, path, obs.NewRegistry())
			label := "kill=" + itoa(kill) + "+" + itoa(int(extra)) + "b"
			assertConverged(t, label, baseline, corpus)
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

// TestCrashResumeFixedKillPoint is the CI smoke variant: one mid-record
// kill point, full convergence check, plus the accounting cross-checks —
// the obs counters the resume emitted must agree exactly with the
// journal's own stats and with the crawl-level instruments.
func TestCrashResumeFixedKillPoint(t *testing.T) {
	w, ep := crashWorld(t)

	baseline := crawlAll(t, w, &Live{
		Pipeline:       FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        ep.TLSAddr,
		Workers:        8,
		DetectLanguage: true,
	})

	loss := faultinject.Plan{DropMod: 10, DropModUnder: 3}
	dnsProxy := proxyFor(t, ep.DNSAddr, loss, loss)
	tlsProxy := proxyFor(t, ep.TLSAddr, faultinject.Plan{}, loss)

	// Kill three bytes into the eighth journal write: six complete site
	// records survive, the seventh tears mid-record.
	path := filepath.Join(t.TempDir(), "fixed.journal")
	crashRun(t, w, dnsProxy.Addr, tlsProxy.Addr, path, 8, 3)

	reg := obs.NewRegistry()
	corpus, st := resumeRun(t, w, dnsProxy.Addr, tlsProxy.Addr, path, reg)
	assertConverged(t, "fixed kill point", baseline, corpus)

	total := int64(len(crashCCs) * crashSitesPerCountry)
	if st.Truncations != 1 {
		t.Errorf("truncations = %d, want exactly the one torn record", st.Truncations)
	}
	if st.SitesSkipped != 6 {
		t.Errorf("sites skipped = %d, want the 6 whole records before the tear", st.SitesSkipped)
	}
	if st.SitesSkipped+st.SitesReprobed != total {
		t.Errorf("skipped %d + reprobed %d != %d sites", st.SitesSkipped, st.SitesReprobed, total)
	}
	if st.RecordsWritten != st.SitesReprobed {
		t.Errorf("records written %d != sites re-probed %d on a healthy journal", st.RecordsWritten, st.SitesReprobed)
	}

	// Cross-check the obs channel against the journal's own accounting
	// and the crawl instruments: only re-probed sites ran live probes.
	checks := map[string]int64{
		"checkpoint.records_written":  st.RecordsWritten,
		"checkpoint.records_replayed": st.RecordsReplayed,
		"checkpoint.sites_skipped":    st.SitesSkipped,
		"checkpoint.sites_reprobed":   st.SitesReprobed,
		"checkpoint.truncations":      st.Truncations,
		"checkpoint.write_errors":     st.WriteErrors,
		"checkpoint.compactions":      st.Compactions,
		"crawl.sites":                 st.SitesReprobed,
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, journal accounting says %d", name, got, want)
		}
	}
	if got := reg.Timing("checkpoint.fsync_ms").Snapshot().Count; got != st.Fsyncs {
		t.Errorf("fsync_ms count = %d, journal says %d fsyncs", got, st.Fsyncs)
	}
	if got := reg.Timing("crawl.site_ms").Snapshot().Count; got != st.SitesReprobed {
		t.Errorf("crawl.site_ms count = %d, want %d re-probed sites", got, st.SitesReprobed)
	}
}

// TestResumeMergeEdgeCases covers the resume boundaries: a journal from
// another epoch or country subset must refuse (at resume time AND at
// crawl time), a complete journal re-probes nothing, and an empty journal
// crawls everything.
func TestResumeMergeEdgeCases(t *testing.T) {
	w, ep := crashWorld(t)
	baseline := crawlAll(t, w, &Live{
		Pipeline:       FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        ep.TLSAddr,
		Workers:        8,
		DetectLanguage: true,
	})
	dir := t.TempDir()
	total := int64(len(crashCCs) * crashSitesPerCountry)

	t.Run("foreign epoch refuses", func(t *testing.T) {
		path := filepath.Join(dir, "epoch.journal")
		j, err := checkpoint.Create(path, "2099-01", crashCCs, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if _, err := checkpoint.Resume(path, crashEpoch, crashCCs, nil); err == nil {
			t.Error("resume accepted a journal from a different epoch")
		}
		// Crawl-time guard: a mis-wired journal must stop CrawlCorpus too.
		j2, err := checkpoint.Resume(path, "2099-01", crashCCs, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		live := lossyLive(w, ep.DNSAddr, ep.TLSAddr, obs.NewRegistry())
		live.Checkpoint = j2
		if _, err := live.CrawlCorpus(context.Background(), crashEpoch, crashCCs,
			func(cc string) []string { return w.Truth.Get(cc).Domains() }, nil); err == nil {
			t.Error("CrawlCorpus crawled a 2023-05 epoch against a 2099-01 journal")
		}
	})

	t.Run("foreign country subset refuses", func(t *testing.T) {
		path := filepath.Join(dir, "subset.journal")
		j, err := checkpoint.Create(path, crashEpoch, []string{"TH"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if _, err := checkpoint.Resume(path, crashEpoch, crashCCs, nil); err == nil {
			t.Error("resume accepted a journal for a different country subset")
		}
		j2, err := checkpoint.Resume(path, crashEpoch, []string{"TH"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		live := lossyLive(w, ep.DNSAddr, ep.TLSAddr, obs.NewRegistry())
		live.Checkpoint = j2
		if _, err := live.CrawlCorpus(context.Background(), crashEpoch, crashCCs,
			func(cc string) []string { return w.Truth.Get(cc).Domains() }, nil); err == nil {
			t.Error("CrawlCorpus merged a single-country journal into a three-country crawl")
		}
	})

	t.Run("complete journal reprobes nothing", func(t *testing.T) {
		path := filepath.Join(dir, "complete.journal")
		j, err := checkpoint.Create(path, crashEpoch, crashCCs, nil)
		if err != nil {
			t.Fatal(err)
		}
		live := lossyLive(w, ep.DNSAddr, ep.TLSAddr, obs.NewRegistry())
		live.Checkpoint = j
		crawlAll(t, w, live)
		j.Close()

		reg := obs.NewRegistry()
		corpus, st := resumeRun(t, w, ep.DNSAddr, ep.TLSAddr, path, reg)
		assertConverged(t, "complete journal", baseline, corpus)
		if st.SitesReprobed != 0 || st.RecordsWritten != 0 {
			t.Errorf("complete journal re-probed %d sites, wrote %d records; want zero",
				st.SitesReprobed, st.RecordsWritten)
		}
		if st.SitesSkipped != total {
			t.Errorf("skipped %d sites, want all %d", st.SitesSkipped, total)
		}
		// No live probe ran at all.
		if got := reg.Counter("crawl.sites").Value(); got != 0 {
			t.Errorf("crawl.sites = %d on a fully replayed crawl, want 0", got)
		}
	})

	t.Run("empty journal crawls everything", func(t *testing.T) {
		path := filepath.Join(dir, "empty.journal")
		j, err := checkpoint.Create(path, crashEpoch, crashCCs, nil)
		if err != nil {
			t.Fatal(err)
		}
		j.Close() // header only: a crawl that died before its first site

		corpus, st := resumeRun(t, w, ep.DNSAddr, ep.TLSAddr, path, obs.NewRegistry())
		assertConverged(t, "empty journal", baseline, corpus)
		if st.SitesSkipped != 0 || st.RecordsReplayed != 0 {
			t.Errorf("empty journal skipped %d sites from %d records; want zero",
				st.SitesSkipped, st.RecordsReplayed)
		}
		if st.SitesReprobed != total || st.RecordsWritten != total {
			t.Errorf("re-probed %d / wrote %d, want all %d sites", st.SitesReprobed, st.RecordsWritten, total)
		}
	})

	t.Run("lost outcomes are reprobed and won back", func(t *testing.T) {
		// A first run without retries against a blackholed DNS path loses
		// every DNS-derived field; resuming with retries against the
		// healthy endpoint must re-probe exactly those sites and converge.
		blackhole := proxyFor(t, ep.DNSAddr,
			faultinject.Plan{Blackhole: true}, faultinject.Plan{Blackhole: true})
		path := filepath.Join(dir, "lost.journal")
		j, err := checkpoint.Create(path, crashEpoch, crashCCs, nil)
		if err != nil {
			t.Fatal(err)
		}
		dns := resolver.NewClient(blackhole.Addr)
		dns.Timeout = 50 * time.Millisecond
		dns.Retries = 0
		degraded := &Live{
			Pipeline:       FromWorld(w),
			DNS:            dns,
			Scanner:        tlsscan.New(w.Owners),
			TLSAddr:        ep.TLSAddr,
			Workers:        8,
			DetectLanguage: true,
			MinCoverage:    -1, // accept the degraded pass; resume will win it back
			Checkpoint:     j,
		}
		crawlAll(t, w, degraded)
		j.Close()

		corpus, st := resumeRun(t, w, ep.DNSAddr, ep.TLSAddr, path, obs.NewRegistry())
		assertConverged(t, "lost outcomes", baseline, corpus)
		if st.SitesReprobed != total {
			t.Errorf("re-probed %d sites, want all %d (every site lost its DNS fields)", st.SitesReprobed, total)
		}
		if st.SitesSkipped != 0 {
			t.Errorf("skipped %d sites whose records carried loss", st.SitesSkipped)
		}
	})
}
