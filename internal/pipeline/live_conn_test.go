package pipeline

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/capki"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/faultinject"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/resilience"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
)

// liveGoldenPath holds the fault-free DetectLanguage crawl of the seed-7
// fault world — every row and every coverage counter — as written by the
// commit BEFORE the CA probe and the page fetch shared a connection. How a
// site's bytes reach the crawler must never change what the crawler
// records, so this file is only regenerated (-update) after an intentional
// change to world generation or enrichment.
const liveGoldenPath = "testdata/live_seed7.json"

// liveSnapshot serializes what a live crawl measured: rows and coverage
// per country, in the crawl's country order.
func liveSnapshot(t *testing.T, corpus *dataset.Corpus, ccs []string) []byte {
	t.Helper()
	type country struct {
		Country  string
		Sites    []dataset.Website
		Coverage dataset.Coverage
	}
	var out []country
	for _, cc := range ccs {
		out = append(out, country{cc, corpus.Get(cc).Sites, *corpus.CoverageOf(cc)})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// checkCounters compares named counters of r against want.
func checkCounters(t *testing.T, r *obs.Registry, want map[string]int64) {
	t.Helper()
	for name, v := range want {
		if got := r.Counter(name).Value(); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}

// TestOneConnectionPerSite is the mechanical check on the shared session:
// through a fault-free proxy on the TLS port, a DetectLanguage crawl opens
// exactly one TCP connection per site (two before the scan kept its
// session), every fetch rides the scan's connection, and the corpus is
// byte-equal to the one the two-connection crawler recorded.
func TestOneConnectionPerSite(t *testing.T) {
	w, ep := faultWorld(t)
	proxy := proxyFor(t, ep.TLSAddr, faultinject.Plan{}, faultinject.Plan{})
	r := obs.NewRegistry()
	corpus := crawl(t, w, &Live{
		Pipeline:       FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        proxy.Addr,
		Workers:        4,
		DetectLanguage: true,
		Resilience:     &resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Obs:            r,
	})

	const sites = 24
	if got := proxy.Stats().TCPForwarded; got != sites {
		t.Errorf("proxy forwarded %d TCP connections for %d sites, want one each", got, sites)
	}
	checkCounters(t, r, map[string]int64{
		"probe.tls.scans":      sites,
		"probe.http.fetches":   sites,
		"probe.tls.handshakes": sites,
		"probe.http.reused":    sites,
		"probe.tls.errors":     0,
		"probe.http.errors":    0,
	})

	got := liveSnapshot(t, corpus, []string{"TH", "CZ"})
	if *update {
		if err := os.WriteFile(liveGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", liveGoldenPath)
		return
	}
	want, err := os.ReadFile(liveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("live crawl differs from %s:\n%s", liveGoldenPath, got)
	}
}

// TestFetchDialsItsOwnWhenScanFails: a scan that fails chain verification
// closes its connection and loses the CA field exactly as before, and the
// page fetch — an independent probe with its own classification — still
// measures Language over a connection it dials itself.
func TestFetchDialsItsOwnWhenScanFails(t *testing.T) {
	w, ep := faultWorld(t)
	proxy := proxyFor(t, ep.TLSAddr, faultinject.Plan{}, faultinject.Plan{})
	foreign, err := capki.NewAuthority("Foreign Root", "ZZ")
	if err != nil {
		t.Fatal(err)
	}
	scanner := tlsscan.New(w.Owners)
	scanner.Roots = x509.NewCertPool()
	scanner.Roots.AddCert(foreign.Certificate())

	r := obs.NewRegistry()
	corpus := crawl(t, w, &Live{
		Pipeline:       FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        scanner,
		TLSAddr:        proxy.Addr,
		Workers:        4,
		DetectLanguage: true,
		Obs:            r,
	})

	for _, cc := range []string{"TH", "CZ"} {
		cov := corpus.CoverageOf(cc)
		// An untrusted chain is an authoritative negative, not a loss.
		if cov.CA != (dataset.FieldCoverage{Empty: 12}) {
			t.Errorf("%s: CA coverage %+v, want 12 empty", cc, cov.CA)
		}
		if cov.Language != (dataset.FieldCoverage{OK: 12}) {
			t.Errorf("%s: Language coverage %+v, want 12 OK", cc, cov.Language)
		}
		truth := w.Truth.Get(cc)
		for i, s := range corpus.Get(cc).Sites {
			if s.CAOwner != "" {
				t.Errorf("%s %s: CA owner %q from an unverified chain", cc, s.Domain, s.CAOwner)
			}
			if s.Language != truth.Sites[i].Language {
				t.Errorf("%s %s: language %q, truth %q", cc, s.Domain, s.Language, truth.Sites[i].Language)
			}
		}
	}
	if got := proxy.Stats().TCPForwarded; got != 48 {
		t.Errorf("proxy forwarded %d connections, want 48 (a scan and a fetch per site)", got)
	}
	// Every scan failed, so no fetch had a connection to ride.
	checkCounters(t, r, map[string]int64{"probe.http.reused": 0, "probe.tls.handshakes": 48})
}

// connTracker records every connection an http.Server accepts and the last
// state each reached. A hijacked connection counts as closed: its handler
// took it over in order to cut it.
type connTracker struct {
	mu     sync.Mutex
	states map[net.Conn]http.ConnState
	onNew  func(n int) // optional; called with the count of connections accepted so far
}

func (c *connTracker) track(conn net.Conn, s http.ConnState) {
	c.mu.Lock()
	if c.states == nil {
		c.states = map[net.Conn]http.ConnState{}
	}
	c.states[conn] = s
	n := len(c.states)
	c.mu.Unlock()
	if s == http.StateNew && c.onNew != nil {
		c.onNew(n)
	}
}

// waitAllClosed waits until every accepted connection has reached
// StateClosed and returns how many were accepted. The server notices a
// client's close asynchronously, hence the poll.
func (c *connTracker) waitAllClosed(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		total, open := len(c.states), 0
		for _, s := range c.states {
			if s != http.StateClosed && s != http.StateHijacked {
				open++
			}
		}
		c.mu.Unlock()
		if open == 0 {
			return total
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d accepted connections never reached StateClosed", open, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// trackedServer starts an HTTPS server whose connections are tracked. The
// crawl's scanner accepts its self-signed certificate like any other.
func trackedServer(t *testing.T, h http.Handler, onNew func(n int)) (string, *connTracker) {
	t.Helper()
	tr := &connTracker{onNew: onNew}
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = tr.track
	srv.Config.ErrorLog = log.New(io.Discard, "", 0) // cancelled handshakes are expected
	srv.StartTLS()
	t.Cleanup(srv.Close)
	return srv.Listener.Addr().String(), tr
}

func okPage(rw http.ResponseWriter, _ *http.Request) {
	fmt.Fprint(rw, "<p>the news and the weather for you</p>")
}

// TestScanClosesItsConnectionWithoutFetch: with DetectLanguage off nothing
// follows the scan, so the scan itself closes the one connection it opens.
func TestScanClosesItsConnectionWithoutFetch(t *testing.T) {
	w, ep := faultWorld(t)
	addr, tr := trackedServer(t, http.HandlerFunc(okPage), nil)
	r := obs.NewRegistry()
	crawl(t, w, &Live{
		Pipeline: FromWorld(w),
		DNS:      resolver.NewClient(ep.DNSAddr),
		Scanner:  tlsscan.New(w.Owners),
		TLSAddr:  addr,
		Workers:  4,
		Obs:      r,
	})
	if n := tr.waitAllClosed(t); n != 24 {
		t.Errorf("server accepted %d connections, want 24", n)
	}
	checkCounters(t, r, map[string]int64{"probe.http.fetches": 0})
}

// TestKeptConnectionClosedWhenFetchNeverRuns cancels the crawl's context
// between a successful scan and its fetch: under a policy no fetch attempt
// runs, without one the attempt gives up before writing, and either way the
// connection the scan kept is closed and no other is dialled.
func TestKeptConnectionClosedWhenFetchNeverRuns(t *testing.T) {
	for _, policy := range []*resilience.Policy{nil, {MaxAttempts: 3, BaseDelay: time.Millisecond}} {
		addr, tr := trackedServer(t, http.HandlerFunc(okPage), nil)
		r := obs.NewRegistry()
		l := &Live{
			Scanner:        &tlsscan.Scanner{Obs: r},
			TLSAddr:        addr,
			DetectLanguage: true,
			Resilience:     policy,
			Obs:            r,
		}
		if policy != nil {
			policy.Obs = r
		}
		ctx, cancel := context.WithCancel(context.Background())
		_, conn, err := l.scanTLS(ctx, "kept.example")
		if err != nil || conn == nil {
			t.Fatalf("scanTLS = conn %v, err %v; want an open connection", conn, err)
		}
		cancel()
		if _, err := l.fetchPage(ctx, conn, "kept.example"); !errors.Is(err, context.Canceled) {
			t.Errorf("fetchPage under a cancelled context: %v, want context.Canceled", err)
		}
		if n := tr.waitAllClosed(t); n != 1 {
			t.Errorf("server accepted %d connections, want 1", n)
		}
		// No fetch may dial after the cancellation.
		checkCounters(t, r, map[string]int64{"probe.tls.handshakes": 1})
	}
}

// TestCancelledCrawlLeaksNoConnection cancels a DetectLanguage crawl from
// the server side, as the sixth connection arrives, so workers are caught
// at every point of the scan → fetch sequence; whatever they held must be
// closed by the time CrawlCorpus returns.
func TestCancelledCrawlLeaksNoConnection(t *testing.T) {
	w, ep := faultWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, tr := trackedServer(t, http.HandlerFunc(okPage), func(n int) {
		if n == 6 {
			cancel()
		}
	})
	live := &Live{
		Pipeline:       FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        addr,
		Workers:        4,
		DetectLanguage: true,
		Resilience:     &resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Obs:            obs.NewRegistry(),
	}
	_, err := live.CrawlCorpus(ctx, "2023-05", []string{"TH", "CZ"},
		func(cc string) []string { return w.Truth.Get(cc).Domains() }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled crawl returned %v, want context.Canceled", err)
	}
	if n := tr.waitAllClosed(t); n < 6 {
		t.Errorf("server accepted %d connections, want at least the 6 that triggered the cancel", n)
	}
}

// TestFetchRetryDialsFresh: the kept connection is consumed by the first
// fetch attempt; when that attempt fails transiently (503) the retry dials
// a connection of its own rather than reusing a spent one.
func TestFetchRetryDialsFresh(t *testing.T) {
	w, ep := faultWorld(t)
	var mu sync.Mutex
	seen := map[string]bool{}
	addr, tr := trackedServer(t, http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		mu.Lock()
		first := !seen[req.Host]
		seen[req.Host] = true
		mu.Unlock()
		if first {
			http.Error(rw, "warming up", http.StatusServiceUnavailable)
			return
		}
		okPage(rw, req)
	}), nil)
	r := obs.NewRegistry()
	policy := &resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	corpus := crawl(t, w, &Live{
		Pipeline:       FromWorld(w),
		DNS:            resolver.NewClient(ep.DNSAddr),
		Scanner:        tlsscan.New(w.Owners),
		TLSAddr:        addr,
		Workers:        4,
		DetectLanguage: true,
		Resilience:     policy,
		Obs:            r,
	})
	for _, cc := range []string{"TH", "CZ"} {
		if cov := corpus.CoverageOf(cc); cov.Language != (dataset.FieldCoverage{OK: 12}) {
			t.Errorf("%s: Language coverage %+v, want 12 OK after one retry each", cc, cov.Language)
		}
	}
	checkCounters(t, r, map[string]int64{
		"probe.tls.scans":      24,
		"probe.http.fetches":   48,
		"probe.http.reused":    24,
		"probe.http.errors":    24,
		"probe.tls.handshakes": 48,
	})
	if n := tr.waitAllClosed(t); n != 48 {
		t.Errorf("server accepted %d connections, want 48", n)
	}
}

// TestFetchBodyFraming drives fetchBody against servers that frame the body
// each way HTTP/1.1 allows, and against servers that cut it short.
func TestFetchBodyFraming(t *testing.T) {
	big := strings.Repeat("<p>the news and the weather</p>\n", 200) // 6,400 B: past net/http's 2 KiB buffer, so chunked
	// hijack answers with raw bytes and then drops the TCP connection
	// without a TLS close_notify, as a reset mid-body does.
	hijack := func(raw string) http.HandlerFunc {
		return func(rw http.ResponseWriter, _ *http.Request) {
			conn, buf, err := rw.(http.Hijacker).Hijack()
			if err != nil {
				panic(err)
			}
			buf.WriteString(raw)
			buf.Flush()
			conn.(*tls.Conn).NetConn().Close()
		}
	}
	cases := []struct {
		name    string
		handler http.HandlerFunc
		want    string // body on success
		wantErr func(error) bool
	}{
		{name: "content-length", handler: okPage, want: "<p>the news and the weather for you</p>"},
		{name: "flushed", handler: func(rw http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(rw, "<p>hello</p>")
			rw.(http.Flusher).Flush()
			fmt.Fprint(rw, "<p>world</p>")
		}, want: "<p>hello</p><p>world</p>"},
		{name: "over 2 KiB", handler: func(rw http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(rw, big)
		}, want: big},
		{name: "over the cap", handler: func(rw http.ResponseWriter, _ *http.Request) {
			rw.Write(make([]byte, maxBodyBytes+4096))
		}, want: string(make([]byte, maxBodyBytes))},
		{name: "not found", handler: http.NotFound, wantErr: func(err error) bool {
			var se *HTTPStatusError
			return errors.As(err, &se) && se.Code == 404 && httpClassify(err) == resilience.Permanent
		}},
		{name: "malformed status line", handler: hijack("HTTP/1.1 abc nope\r\n\r\n"), wantErr: func(err error) bool {
			return httpClassify(err) == resilience.Permanent
		}},
		{name: "cut inside content-length", handler: hijack("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n<p>hello</p>"),
			wantErr: func(err error) bool { return httpClassify(err) == resilience.Transient }},
		{name: "cut inside chunked", handler: hijack("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nc\r\n<p>hello</p>\r\n"),
			wantErr: func(err error) bool { return httpClassify(err) == resilience.Transient }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, tr := trackedServer(t, tc.handler, nil)
			conn, err := (&tlsscan.Scanner{Obs: obs.NewRegistry()}).Dial(context.Background(), addr, "page.example")
			if err != nil {
				t.Fatal(err)
			}
			body, err := fetchBody(context.Background(), conn, "page.example")
			conn.Close()
			switch {
			case tc.wantErr == nil && err != nil:
				t.Errorf("fetchBody: %v", err)
			case tc.wantErr == nil && body != tc.want:
				t.Errorf("body = %d bytes %.60q, want %d bytes %.60q", len(body), body, len(tc.want), tc.want)
			case tc.wantErr != nil && (err == nil || !tc.wantErr(err)):
				t.Errorf("fetchBody = %.40q, %v; want a classified error, never a short page", body, err)
			}
			tr.waitAllClosed(t)
		})
	}
}
