// Package loadtest is a self-contained saturating load harness for the
// webdepd query daemon. It opens N raw keep-alive TCP connections, each
// driven by its own goroutine issuing back-to-back GETs of a cached
// endpoint, and reports throughput plus latency quantiles. Using raw
// sockets instead of net/http's client removes the client as the
// bottleneck: the harness writes a pre-built request and scans the
// response with a minimal HTTP/1.1 parser, so nearly all measured cost is
// the daemon's.
//
// The CI load-smoke job runs this against an in-process daemon and
// enforces a throughput floor and a p99 bound — the perf claim as a
// regression gate rather than a README number.
package loadtest

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"github.com/webdep/webdep/internal/obs"
)

// Config drives one load run.
type Config struct {
	// Addr is the daemon's host:port. Ignored when Handler is set.
	Addr string
	// Handler, when set, drives requests in process through the HTTP
	// handler instead of the wire: the full request path — parse, cache
	// lookup, metrics, body write — without kernel socket I/O. This is
	// how the throughput-capacity gate stays meaningful on a one-core CI
	// runner, where the wire mode spends most of the core in the kernel
	// and the harness itself.
	Handler http.Handler
	// Path is the request target, e.g. "/api/scores?layer=hosting".
	Path string
	// Conns is how many concurrent keep-alive connections to drive.
	Conns int
	// Duration is the measured window.
	Duration time.Duration
	// Warmup runs before measurement starts, so cold-cache renders and
	// connection setup never pollute the quantiles.
	Warmup time.Duration
}

// Result is one load run's aggregate.
type Result struct {
	Requests           int64         // completed 200s inside the window
	Errors             int64         // non-200s, short reads, connection failures
	Elapsed            time.Duration // actual measured window
	Throughput         float64       // Requests / Elapsed, in req/s
	P50, P90, P99, Max float64       // request latency quantile estimates, ms
}

func (r Result) String() string {
	return fmt.Sprintf("%d requests in %v = %.0f req/s (p50 %.3fms p90 %.3fms p99 %.3fms max %.3fms, %d errors)",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput, r.P50, r.P90, r.P99, r.Max, r.Errors)
}

// worker owns one connection and its private tallies — nothing shared,
// nothing atomic, so the harness itself scales linearly with Conns.
type worker struct {
	requests int64
	errors   int64
	lat      *obs.Histogram
}

// Run drives the daemon at cfg.Addr until the duration elapses and
// returns the aggregate. It only errors on misconfiguration; request
// failures are counted, not fatal, so a saturated accept queue shows up
// as numbers rather than a dead run.
func Run(cfg Config) (Result, error) {
	if (cfg.Addr == "" && cfg.Handler == nil) || cfg.Path == "" {
		return Result{}, fmt.Errorf("loadtest: Path and one of Addr or Handler are required")
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}

	req := []byte("GET " + cfg.Path + " HTTP/1.1\r\nHost: " + cfg.Addr + "\r\nConnection: keep-alive\r\n\r\n")
	var hurl *url.URL
	if cfg.Handler != nil {
		u, err := url.ParseRequestURI(cfg.Path)
		if err != nil {
			return Result{}, fmt.Errorf("loadtest: bad path: %w", err)
		}
		hurl = u
	}

	drive := func(w *worker, d time.Duration) {
		if cfg.Handler != nil {
			w.driveInproc(cfg.Handler, hurl, d)
		} else {
			w.drive(cfg.Addr, req, d)
		}
	}

	// Warmup outside the measured window: one connection exercising the
	// path (rendering any cold cache key) before the fleet starts.
	if cfg.Warmup > 0 {
		drive(&worker{lat: newLatencyHistogram()}, cfg.Warmup)
	}

	workers := make([]*worker, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		w := &worker{lat: newLatencyHistogram()}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(w, cfg.Duration)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{Elapsed: elapsed}
	merged := newLatencyHistogram()
	for _, w := range workers {
		res.Requests += w.requests
		res.Errors += w.errors
		mergeHistogram(merged, w.lat)
	}
	res.Throughput = float64(res.Requests) / elapsed.Seconds()
	snap := merged.Snapshot()
	res.P50 = snap.Quantile(0.50)
	res.P90 = snap.Quantile(0.90)
	res.P99 = snap.Quantile(0.99)
	res.Max = snap.Max
	return res, nil
}

// newLatencyHistogram builds a per-worker millisecond histogram on the
// toolkit's duration buckets — private to the worker, merged after the
// run, so observation is a few array writes with no sharing.
func newLatencyHistogram() *obs.Histogram {
	return obs.NewRegistry().Timing("loadtest.request.ms")
}

// mergeHistogram folds src's buckets into dst via snapshot replay.
func mergeHistogram(dst, src *obs.Histogram) {
	snap := src.Snapshot()
	for i, n := range snap.Counts {
		if n == 0 {
			continue
		}
		// Re-observe a value inside the bucket: its upper bound (or the
		// histogram max for +Inf). Quantile estimates stay bucket-accurate.
		v := snap.Max
		if i < len(snap.Bounds) {
			v = snap.Bounds[i]
		}
		for ; n > 0; n-- {
			dst.Observe(v)
		}
	}
}

// drive issues back-to-back requests on one keep-alive connection until
// the deadline. A broken connection is re-dialed; persistent failure
// burns into the error count at a bounded rate rather than spinning.
func (w *worker) drive(addr string, req []byte, d time.Duration) {
	deadline := time.Now().Add(d)
	var conn net.Conn
	var br *bufio.Reader
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for time.Now().Before(deadline) {
		if conn == nil {
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				w.errors++
				time.Sleep(5 * time.Millisecond)
				continue
			}
			conn = c
			br = bufio.NewReaderSize(conn, 16<<10)
		}
		t0 := time.Now()
		if _, err := conn.Write(req); err != nil {
			w.errors++
			conn.Close()
			conn = nil
			continue
		}
		ok, err := readResponse(br)
		if err != nil {
			w.errors++
			conn.Close()
			conn = nil
			continue
		}
		if !ok {
			w.errors++
			continue
		}
		w.requests++
		w.lat.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	}
}

// nullWriter is the in-process mode's response writer: body bytes are
// counted as delivered and dropped, the status is kept for the error
// tally. Each worker owns one, so there is no sharing to serialize on.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }

// driveInproc issues back-to-back requests straight into the handler.
// The request is built per worker: a handler may write to its request
// (net/http's pattern mux records its match there), so sharing one across
// goroutines could race.
func (w *worker) driveInproc(h http.Handler, u *url.URL, d time.Duration) {
	wu := *u
	req := &http.Request{Method: http.MethodGet, URL: &wu}
	rw := &nullWriter{h: make(http.Header)}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		rw.status = 0
		t0 := time.Now()
		h.ServeHTTP(rw, req)
		if rw.status != 0 && rw.status != http.StatusOK {
			w.errors++
			continue
		}
		w.requests++
		w.lat.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	}
}

// readResponse scans one HTTP/1.1 response off the wire: status line,
// headers for Content-Length, then a body discard. Returns whether the
// status was 200. Only the framing webdepd emits is supported — this is
// a harness, not a client.
func readResponse(br *bufio.Reader) (ok bool, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	// "HTTP/1.1 200 OK\r\n" — status code is bytes 9..12.
	if len(line) < 12 {
		return false, fmt.Errorf("short status line %q", line)
	}
	status := string(line[9:12])

	contentLength := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return false, err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			break
		}
		if v, found := cutHeader(line, "Content-Length:"); found {
			contentLength, err = strconv.Atoi(v)
			if err != nil {
				return false, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if contentLength < 0 {
		return false, fmt.Errorf("response without Content-Length")
	}
	if _, err := br.Discard(contentLength); err != nil {
		return false, err
	}
	return status == "200", nil
}

// cutHeader matches a header line case-insensitively on its name and
// returns the trimmed value.
func cutHeader(line []byte, name string) (string, bool) {
	if len(line) < len(name) {
		return "", false
	}
	for i := 0; i < len(name); i++ {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		n := name[i]
		if 'A' <= n && n <= 'Z' {
			n += 'a' - 'A'
		}
		if c != n {
			return "", false
		}
	}
	return string(bytes.TrimSpace(line[len(name):])), true
}
