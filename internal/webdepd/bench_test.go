package webdepd

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
)

// benchDaemon serves a mid-sized world for the hot-path benchmarks.
func benchDaemon(b *testing.B) *Daemon {
	b.Helper()
	corpus := worldCorpus(b, 42, 400, []string{"US", "DE", "JP", "IN", "BR", "FR"})
	return startDaemon(b, Config{Corpus: corpus})
}

// BenchmarkCachedHit is the alloc-regression pin for the cache-hit path:
// the full route — parse, key, lookup, reply — against a warmed cache,
// with the network and the framing stripped out. Throughput here is the
// daemon's per-core ceiling; ReportAllocs is the regression gate.
func BenchmarkCachedHit(b *testing.B) {
	d := benchDaemon(b)
	d.route(http.MethodGet, "/api/scores", "layer=hosting&country=DE") // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.route(http.MethodGet, "/api/scores", "layer=hosting&country=DE")
	}
}

// BenchmarkCachedHitParallel drives the same hit path from all cores —
// the contention picture: one sync.Map load and a handful of atomics per
// request, no locks.
func BenchmarkCachedHitParallel(b *testing.B) {
	d := benchDaemon(b)
	d.route(http.MethodGet, "/api/scores", "layer=hosting")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			d.route(http.MethodGet, "/api/scores", "layer=hosting")
		}
	})
}

// BenchmarkWireHit prices one cached hit over one keep-alive loopback
// connection, from the pre-built request's write to the last byte of the
// response. "daemon" is the daemon's own listener; "nethttp" is an
// http.Server over the same Handler, kept as the reference the daemon's
// socket path is held against. reads/op and writes/op count the server's
// calls on its side of the socket.
func BenchmarkWireHit(b *testing.B) {
	corpus := worldCorpus(b, 42, 400, []string{"US", "DE", "JP", "IN", "BR", "FR"})
	serve := map[string]func(b *testing.B, d *Daemon, ln net.Listener){
		"daemon": func(b *testing.B, d *Daemon, ln net.Listener) {
			d.start(ln)
			b.Cleanup(func() { d.Close() })
		},
		"nethttp": func(b *testing.B, d *Daemon, ln net.Listener) {
			srv := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 5 * time.Second}
			go srv.Serve(ln)
			b.Cleanup(func() { srv.Close() })
		},
	}
	for _, name := range []string{"daemon", "nethttp"} {
		b.Run(name, func(b *testing.B) {
			d, err := newDaemon(Config{Corpus: corpus})
			if err != nil {
				b.Fatal(err)
			}
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			ln := &countingListener{Listener: inner}
			serve[name](b, d, ln)
			benchWire(b, ln)
		})
	}
}

// TestWireHitAllocs is the allocation gate on a cached hit over the socket:
// a client that allocates nothing sends warm hits over one keep-alive
// loopback connection, and every malloc in the process — the daemon's
// connection goroutine's included — is counted against the requests.
func TestWireHitAllocs(t *testing.T) {
	d := startDaemon(t, Config{Corpus: worldCorpus(t, 13, 60, []string{"US", "DE"})})
	c, err := net.Dial("tcp", d.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := []byte("GET /api/scores?layer=hosting&country=US HTTP/1.1\r\nHost: t\r\n\r\n")
	br := bufio.NewReader(c)
	var failed error
	roundTrip := func() {
		if _, err := c.Write(req); err != nil {
			failed = err
		} else if status, err := discardResponse(br); err != nil || status != http.StatusOK {
			failed = fmt.Errorf("status %d, %v", status, err)
		}
	}
	roundTrip() // renders the key
	avg := testing.AllocsPerRun(2000, roundTrip)
	if failed != nil {
		t.Fatal(failed)
	}
	if avg > 7 {
		t.Errorf("a cached hit over the socket allocates %.1f objects, want <= 7", avg)
	}
}

// benchWire drives b.N round trips of one cached query over one
// connection to ln and reports the server's socket calls per request.
func benchWire(b *testing.B, ln *countingListener) {
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := []byte("GET /api/scores?layer=hosting&country=DE HTTP/1.1\r\nHost: bench\r\n\r\n")
	br := bufio.NewReader(c)
	roundTrip := func() {
		if _, err := c.Write(req); err != nil {
			b.Fatal(err)
		}
		if status, err := discardResponse(br); err != nil || status != http.StatusOK {
			b.Fatalf("status %d, %v", status, err)
		}
	}
	roundTrip() // renders the key
	ln.reads.Store(0)
	ln.writes.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
	b.ReportMetric(float64(ln.reads.Load())/float64(b.N), "reads/op")
	b.ReportMetric(float64(ln.writes.Load())/float64(b.N), "writes/op")
}

// discardResponse reads one response framed by Content-Length and returns
// its status; it allocates nothing, so allocs/op is the server's.
func discardResponse(br *bufio.Reader) (int, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 {
		return 0, fmt.Errorf("short status line %q", line)
	}
	status := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	n := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if name, v, _ := bytes.Cut(line, []byte(":")); bytes.EqualFold(name, []byte("Content-Length")) {
			if n, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, err
			}
		}
	}
	if n < 0 {
		return 0, fmt.Errorf("response without Content-Length")
	}
	_, err = br.Discard(n)
	return status, err
}

// countingListener counts the Read and Write calls on the connections it
// accepts.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.l.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkColdRender prices what a cache miss pays, one sub-benchmark per
// query shape of a dashboard: the body appended from the read model. The
// classes shape is the carried one — the read model already holds the
// clustering, as after a reload of an unchanged store. The hit/miss ratio
// of these and BenchmarkCachedHit is the cache's value.
func BenchmarkColdRender(b *testing.B) {
	corpus := worldCorpus(b, 42, 400, []string{"US", "DE", "JP", "IN", "BR", "FR"})
	g := direct(corpus, "memory", 0)
	top := g.graph.TopSPOFs(1)[0].Provider
	for _, shape := range []struct{ name, path, query string }{
		{"scores", "/api/scores", ""},
		{"scores-tld", "/api/scores", "layer=tld"},
		{"country-score", "/api/scores", "layer=hosting&country=DE"},
		{"spof-10", "/api/spof", "n=10"},
		{"classes-carried", "/api/classes", "layer=hosting"},
		{"what-if", "/api/what-if", "provider=" + url.QueryEscape(top)},
		{"rankcurve", "/api/rankcurve", "layer=hosting&country=DE"},
		{"coverage", "/api/coverage", ""},
		{"epoch", "/api/epoch", ""},
	} {
		b.Run(shape.name, func(b *testing.B) {
			q, qerr := ParseQuery(shape.path, shape.query)
			if qerr != nil {
				b.Fatal(qerr)
			}
			if _, qerr := g.render(q); qerr != nil { // carries the classes
				b.Fatal(qerr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, qerr := g.render(q); qerr != nil {
					b.Fatal(qerr)
				}
			}
		})
	}
}

// BenchmarkReloadUnchanged is the timer-driven loop's steady state: reload a
// store root nothing has been written to, then render classes?layer=hosting
// cold. "ap-runs/op" is how many of those renders ran affinity propagation,
// and CI fails unless it reads 0 — every one shares generation 0's read
// model, and with it the classification.
func BenchmarkReloadUnchanged(b *testing.B) {
	root := b.TempDir()
	saveGeneration(b, root, "gen-0001", reloadCorpus(b, 400))
	benchReload(b, root, func(int) {})
}

// BenchmarkReloadChanged is the other side: every reload lands a store the
// daemon is not serving (two generations, the newer hidden and shown in
// turn), so each pays the scan and the clustering — ap-runs/op reads 1.
func BenchmarkReloadChanged(b *testing.B) {
	root := b.TempDir()
	saveGeneration(b, root, "gen-0001", reloadCorpus(b, 400))
	saveGeneration(b, root, "gen-0002", reloadCorpus(b, 300))
	shown, hidden := root+"/gen-0002", root+"/gen-0002.tmp" // Generations skips *.tmp
	benchReload(b, root, func(i int) {
		from, to := shown, hidden
		if i%2 == 1 {
			from, to = hidden, shown
		}
		if err := os.Rename(from, to); err != nil {
			b.Fatal(err)
		}
	})
}

func reloadCorpus(b *testing.B, sites int) *dataset.Corpus {
	return worldCorpus(b, 42, sites, []string{"US", "DE", "JP", "IN", "BR", "FR"})
}

// benchReload times b.N rounds of land(i), a reload and one cold
// classes?layer=hosting, and reports how many of the renders clustered.
func benchReload(b *testing.B, root string, land func(i int)) {
	reg := obs.NewRegistry()
	d := startDaemon(b, Config{StoreRoot: root, Obs: reg})
	classes := func() { d.route(http.MethodGet, "/api/classes", "layer=hosting") }
	classes() // generation 0 pays for its clustering outside the loop
	before, _, _ := classesCounters(reg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		land(i)
		mustReload(b, d)
		classes()
	}
	b.StopTimer()
	clustered, carried, _ := classesCounters(reg)
	ran := clustered - before
	if ran+carried != int64(b.N) {
		b.Fatalf("%d reloads rendered classes cold %d times", b.N, ran+carried)
	}
	b.ReportMetric(float64(ran)/float64(b.N), "ap-runs/op")
}
