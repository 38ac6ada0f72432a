package webdepd

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// readRaw reads one response off the wire as the bytes the daemon sent,
// framed by the Content-Length every response must carry, and checks that
// its header names are sorted and include Date. method is the request's: a
// HEAD response carries no body.
func readRaw(t *testing.T, br *bufio.Reader, method string) []byte {
	t.Helper()
	var raw []byte
	var names []string
	n := -1
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			t.Fatalf("reading a response head: %v (have %q)", err, raw)
		}
		raw = append(raw, line...)
		field := strings.TrimRight(string(line), "\r\n")
		if field == "" {
			break
		}
		if len(raw) == len(line) {
			continue // the status line
		}
		name, value, _ := strings.Cut(field, ":")
		names = append(names, name)
		if name == "Content-Length" {
			var err error
			if n, err = strconv.Atoi(strings.TrimSpace(value)); err != nil {
				t.Fatalf("Content-Length %q: %v", value, err)
			}
		}
	}
	if n < 0 {
		t.Fatalf("response without Content-Length:\n%s", raw)
	}
	if !slices.IsSorted(names) || !slices.Contains(names, "Date") {
		t.Errorf("header names %v: want sorted, with Date", names)
	}
	if method != http.MethodHead {
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatalf("reading a %d-byte body: %v", n, err)
		}
		raw = append(raw, body...)
	}
	return raw
}

// rawResponse reads one response with readRaw and parses its bytes with
// net/http's own reader.
func rawResponse(t *testing.T, br *bufio.Reader, method string) (*http.Response, []byte) {
	t.Helper()
	raw := readRaw(t, br, method)
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), &http.Request{Method: method})
	if err != nil {
		t.Fatalf("net/http refuses the response: %v\n%s", err, raw)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// wantResp is one response a protocol row expects, in order.
type wantResp struct {
	method string // the request's, for HEAD framing; "" is GET
	status int
	body   string            // exact, when set
	header map[string]string // exact values of these headers
}

// expectClosed asserts the daemon closes the connection with nothing more
// to say.
func expectClosed(t *testing.T, c net.Conn, br *bufio.Reader, within time.Duration) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(within))
	if b, err := br.ReadByte(); err == nil {
		t.Fatalf("the connection stays open: read %q", b)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the connection stays open after %v", within)
	}
}

// exchange sends raw bytes on a new connection to addr and holds the
// responses to wants, in order: each read by its Content-Length and parsed
// by net/http, an error status with a JSON body. closed says the daemon
// closes after the last response; otherwise one more request is answered.
func exchange(t *testing.T, addr, send string, wants []wantResp, closed bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, send); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	for i, want := range wants {
		method := want.method
		if method == "" {
			method = http.MethodGet
		}
		resp, body := rawResponse(t, br, method)
		if resp.StatusCode != want.status || want.body != "" && string(body) != want.body {
			t.Fatalf("response %d: %d %q, want %d %q", i, resp.StatusCode, body, want.status, want.body)
		}
		for k, v := range want.header {
			if got := resp.Header.Get(k); got != v {
				t.Errorf("response %d: %s %q, want %q", i, k, got, v)
			}
		}
		if resp.StatusCode >= 400 && !strings.HasPrefix(string(body), `{"status":`) {
			t.Errorf("response %d: %d with body %q, want a JSON error", i, resp.StatusCode, body)
		}
		// net/http's reader drops a Connection: close it has read into
		// Close.
		if last := i == len(wants)-1; resp.Close != (last && closed) {
			t.Errorf("response %d: Close %v", i, resp.Close)
		}
	}
	if closed {
		expectClosed(t, c, br, time.Second)
		return
	}
	io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
	if resp, _ := rawResponse(t, br, http.MethodGet); resp.StatusCode != 200 {
		t.Fatalf("after the row: %d", resp.StatusCode)
	}
}

// TestConnProtocol holds the connection loop to its HTTP/1.1 subset over
// raw sockets, one row per rule: versions, size limits, malformed input,
// refused bodies, connection handling, response headers, timeouts and
// panics. Every response is read by its Content-Length, parsed by net/http
// and checked for sorted headers with a Date.
func TestConnProtocol(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	corpus := worldCorpus(t, 3, 40, []string{"US", "DE"})
	saveGeneration(t, root, "gen-0001", corpus)
	d := startDaemon(t, Config{StoreRoot: root})
	inproc := func(path string) string {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s in process: %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	coverage, scores := inproc("/api/coverage"), inproc("/api/scores?layer=hosting")
	get := func(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n" }
	ok := wantResp{status: 200, body: "ok\n"}
	long := strings.Repeat("a", maxRequestLine)

	for _, row := range []struct {
		name   string
		send   string
		want   []wantResp
		closed bool // the daemon closes after the last response
	}{
		{"keep-alive", get("/healthz") + get("/healthz"), []wantResp{ok, ok}, false},
		{"pipelined in order", get("/api/coverage") + get("/healthz") + get("/api/scores?layer=hosting"),
			[]wantResp{{status: 200, body: coverage}, ok, {status: 200, body: scores}}, false},
		{"HEAD keeps Content-Length", "HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n" + get("/healthz"),
			[]wantResp{{method: http.MethodHead, status: 200, header: map[string]string{"Content-Length": "3"}}, ok}, false},
		{"Connection: close", "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive, close\r\n\r\n" + get("/healthz"),
			[]wantResp{ok}, true},
		{"HTTP/1.0 closes", "GET /healthz HTTP/1.0\r\n\r\n",
			[]wantResp{ok}, true},
		{"HTTP/1.0 keep-alive", "GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n" + get("/healthz"),
			[]wantResp{{status: 200, header: map[string]string{"Connection": "keep-alive"}}, ok}, false},
		{"bare LF line endings", "GET /healthz HTTP/1.1\nHost: t\n\n", []wantResp{ok}, false},
		{"error bodies framed", get("/api/nope"), []wantResp{{status: 404, header: map[string]string{"Content-Type": "application/json"}}}, false},
		{"POST /reload, Content-Length: 0", "POST /reload HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n", []wantResp{{status: 200}}, false},
		{"POST /reload, no body", "POST /reload HTTP/1.1\r\nHost: t\r\n\r\n", []wantResp{{status: 200}}, false},
		{"HTTP/2.0 is 505", "GET /healthz HTTP/2.0\r\nHost: t\r\n\r\n", []wantResp{{status: 505}}, true},
		{"HTTP/0.9 is 505", "GET /healthz HTTP/0.9\r\n\r\n", []wantResp{{status: 505}}, true},
		{"malformed version", "GET /healthz HTTP/1\r\nHost: t\r\n\r\n", []wantResp{{status: 400}}, true},
		{"malformed request line", "GET /healthz\r\nHost: t\r\n\r\n", []wantResp{{status: 400}}, true},
		{"absolute-form target", "GET http://t/healthz HTTP/1.1\r\nHost: t\r\n\r\n", []wantResp{{status: 400}}, true},
		{"request line too long", get("/" + long), []wantResp{{status: 414}}, true},
		{"header block too long", "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: " + long + long + "\r\n\r\n", []wantResp{{status: 431}}, true},
		{"folded header", "GET /healthz HTTP/1.1\r\nHost: t\r\nX-A: 1\r\n 2\r\n\r\n", []wantResp{{status: 400}}, true},
		{"malformed header name", "GET /healthz HTTP/1.1\r\nHost: t\r\nX A: 1\r\n\r\n", []wantResp{{status: 400}}, true},
		{"header without colon", "GET /healthz HTTP/1.1\r\nHost: t\r\nX-A\r\n\r\n", []wantResp{{status: 400}}, true},
		{"missing Host", "GET /healthz HTTP/1.1\r\n\r\n", []wantResp{{status: 400}}, true},
		{"two Hosts", "GET /healthz HTTP/1.1\r\nHost: t\r\nhost: u\r\n\r\n", []wantResp{{status: 400}}, true},
		{"conflicting Content-Length", "POST /reload HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nContent-Length: 00\r\n\r\n", []wantResp{{status: 400}}, true},
		{"Transfer-Encoding is 501", "POST /reload HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", []wantResp{{status: 501}}, true},
		{"a body is 413", "POST /reload HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello", []wantResp{{status: 413}}, true},
		{"Expect is 417", "POST /reload HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nExpect: 100-continue\r\n\r\n", []wantResp{{status: 417}}, true},
		{"control byte in the target", "GET /heal\x7fthz HTTP/1.1\r\nHost: t\r\n\r\n", []wantResp{{status: 400}}, true},
		{"bad escape in the path", get("/api/scores%zz?layer=hosting"), []wantResp{{status: 400}}, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			exchange(t, d.Addr, row.send, row.want, row.closed)
		})
	}

	t.Run("handler panic is 500", func(t *testing.T) {
		t.Parallel()
		// A generation with no cache makes route panic on any /api request.
		broken := startDaemon(t, Config{Corpus: corpus})
		g := *broken.gen.Load()
		g.cache = nil
		broken.gen.Store(&g)
		exchange(t, broken.Addr, get("/api/coverage")+get("/healthz"),
			[]wantResp{{status: 500, header: map[string]string{"Content-Type": "application/json"}}}, true)
	})

	t.Run("header timeout", func(t *testing.T) {
		t.Parallel()
		c, err := net.Dial("tcp", d.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: t\r\n")
		expectClosed(t, c, bufio.NewReader(c), headerTimeout+2*time.Second)
		if took := time.Since(start); took < headerTimeout-100*time.Millisecond {
			t.Errorf("an unfinished head was cut after %v, want %v", took, headerTimeout)
		}
	})
	t.Run("write deadline", func(t *testing.T) {
		t.Parallel()
		// One response far larger than both socket buffers, to a client
		// that never reads it: the daemon's write stalls, gives up after
		// writeTimeout, and the connection is dropped and reset. The body
		// is a 16 MB cache entry stored under a real key.
		big := startDaemon(t, Config{Corpus: corpus})
		e := &cacheEntry{ready: make(chan struct{}), body: make([]byte, 16<<20)}
		close(e.ready)
		big.gen.Load().cache.entries.Store(parsePath(t, "/api/spof?n=7").Key(), e)
		c, err := net.Dial("tcp", big.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.(*net.TCPConn).SetReadBuffer(4 << 10)
		start := time.Now()
		io.WriteString(c, get("/api/spof?n=7"))
		served := func() bool {
			big.connMu.Lock()
			defer big.connMu.Unlock()
			for sc := range big.conns {
				if sc.rwc.RemoteAddr().String() == c.LocalAddr().String() {
					return true
				}
			}
			return false
		}
		for !served() {
			if time.Since(start) > time.Second {
				t.Fatal("the connection was never served")
			}
			time.Sleep(time.Millisecond)
		}
		for served() {
			if time.Since(start) > writeTimeout+10*time.Second {
				t.Fatalf("the connection is still served %v after its response stopped being read", time.Since(start))
			}
			time.Sleep(10 * time.Millisecond)
		}
		if took := time.Since(start); took < writeTimeout {
			t.Errorf("the connection was dropped after %v, before writeTimeout (%v)", took, writeTimeout)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, c); !errors.Is(err, syscall.ECONNRESET) {
			t.Errorf("reading what was sent: %v, want a reset", err)
		}
	})
	t.Run("idle keep-alive has no deadline", func(t *testing.T) {
		t.Parallel()
		c, err := net.Dial("tcp", d.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		br := bufio.NewReader(c)
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				time.Sleep(headerTimeout + 500*time.Millisecond)
			}
			io.WriteString(c, get("/healthz"))
			if resp, _ := rawResponse(t, br, http.MethodGet); resp.StatusCode != 200 {
				t.Fatalf("pass %d: %d", pass, resp.StatusCode)
			}
		}
	})
}

// TestWireResponsesPinned freezes every byte the daemon's socket sends,
// status line and headers included, for one world: a digest per row, the
// Date value masked. Each row is one connection, in order: every endpoint
// shape twice (cold, then a hit), each refusal status, HEAD, HTTP/1.0 with
// and without keep-alive, a pipelined pair, an escaped path and paths
// outside the daemon's routes. The 409 row is a daemon over an in-memory
// corpus, which refuses reloads; the successful reload comes last.
func TestWireResponsesPinned(t *testing.T) {
	root := t.TempDir()
	corpus := worldCorpus(t, 3, 40, []string{"US", "DE"})
	saveGeneration(t, root, "gen-0001", corpus)
	d := startDaemon(t, Config{StoreRoot: root})
	mem := startDaemon(t, Config{Corpus: corpus})
	top := url.QueryEscape(d.gen.Load().graph.TopSPOFs(1)[0].Provider)
	get := func(target string) string { return "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n" }
	twice := func(target string) string { return get(target) + get(target) }
	long := strings.Repeat("a", maxRequestLine)
	date := regexp.MustCompile(`(?m)^Date: [^\r]*\r$`)

	for _, row := range []struct {
		name    string
		d       *Daemon
		send    string
		methods []string // one per response, in order
		want    string   // the first 16 hex digits of the rows' SHA-256
	}{
		{"scores", d, twice("/api/scores"), []string{"GET", "GET"}, "108a37c2793c0629"},
		{"layer scores", d, twice("/api/scores?layer=hosting"), []string{"GET", "GET"}, "2fe3c3da1e8eda02"},
		{"country score", d, twice("/api/scores?layer=dns&country=US"), []string{"GET", "GET"}, "bf72dc1632c996c0"},
		{"rankcurve", d, twice("/api/rankcurve?layer=ca&country=DE"), []string{"GET", "GET"}, "b0bf6c6be944a56c"},
		{"coverage", d, twice("/api/coverage"), []string{"GET", "GET"}, "20b2f04c684e50a4"},
		{"classes", d, twice("/api/classes?layer=hosting"), []string{"GET", "GET"}, "95961b0907c4e6a8"},
		{"spof", d, twice("/api/spof"), []string{"GET", "GET"}, "e9ddf8fd90ec5bb6"},
		{"spof n", d, twice("/api/spof?n=3"), []string{"GET", "GET"}, "1cee66f61f4d73e1"},
		{"what-if", d, twice("/api/what-if?provider=" + top), []string{"GET", "GET"}, "ba3cc66fbee23925"},
		{"epoch", d, twice("/api/epoch"), []string{"GET", "GET"}, "724a402e47901cab"},
		{"healthz", d, twice("/healthz"), []string{"GET", "GET"}, "4217c986708b7778"},
		{"escaped path", d, get("/api/scor%65s?layer=hosting"), []string{"GET"}, "67cba2479b8a310a"},
		{"HEAD healthz", d, "HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n", []string{"HEAD"}, "179e2ec0bdb85245"},
		{"HEAD api is 405", d, "HEAD /api/coverage HTTP/1.1\r\nHost: t\r\n\r\n", []string{"HEAD"}, "7b436955e32dc91c"},
		{"HTTP/1.0 closes", d, "GET /api/epoch HTTP/1.0\r\n\r\n", []string{"GET"}, "a7a70bbbe74b6e45"},
		{"HTTP/1.0 keep-alive", d, "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" + get("/healthz"), []string{"GET", "GET"}, "21f9967d88b11174"},
		{"pipelined pair", d, get("/api/coverage") + get("/api/epoch"), []string{"GET", "GET"}, "6997326681c60c5f"},
		{"400", d, "GET /healthz HTTP/1.1\r\n\r\n", []string{"GET"}, "b5d9efb16a5b7455"},
		{"404", d, get("/api/nope"), []string{"GET"}, "8fc74d79bf8b2852"},
		{"405", d, get("/reload"), []string{"GET"}, "d36e9ad54eb14394"},
		{"409", mem, "POST /reload HTTP/1.1\r\nHost: t\r\n\r\n", []string{"POST"}, "dff84c283f3090a9"},
		{"413", d, "POST /reload HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello", []string{"POST"}, "a66785aa1c3190b9"},
		{"414", d, get("/" + long), []string{"GET"}, "a04f23d14954817c"},
		{"417", d, "POST /reload HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n\r\n", []string{"POST"}, "905ee1a94bb96356"},
		{"431", d, "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: " + long + long + "\r\n\r\n", []string{"GET"}, "21c61373f4117be1"},
		{"501", d, "POST /reload HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", []string{"POST"}, "adebf1728dda5984"},
		{"505", d, "GET /healthz HTTP/2.0\r\nHost: t\r\n\r\n", []string{"GET"}, "b26d24e2d7dc5477"},
		{"root", d, get("/"), []string{"GET"}, "088669e02c9779c5"},
		{"api without slash", d, get("/api"), []string{"GET"}, "a8aada3c07a56c45"},
		{"double slash", d, get("//api/coverage"), []string{"GET"}, "4cd7a25a7dc4834d"},
		{"reload", d, "POST /reload HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n", []string{"POST"}, "e4307a9944adac11"},
	} {
		c, err := net.Dial("tcp", row.d.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(c, row.send); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(c)
		h := sha256.New()
		for _, method := range row.methods {
			h.Write(date.ReplaceAll(readRaw(t, br, method), []byte("Date: -\r")))
		}
		c.Close()
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != row.want {
			t.Errorf("%s: digest %s, want %s", row.name, got, row.want)
		}
	}
}

// FuzzReadRequest holds the request reader to net/http's: on any bytes it
// never panics and never reads more than its limits allow, and a request
// it accepts is one http.ReadRequest accepts too, with the same method,
// path (URL.Path), raw query, Host, close decision and minor version.
func FuzzReadRequest(f *testing.F) {
	for _, s := range []string{
		"GET /api/scores?layer=hosting HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n\r\n",
		"GET / HTTP/1.0\r\n\r\n",
		"HEAD /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"POST /reload HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
		"POST /reload HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n",
		"POST /reload HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
		"GET /a%20b?x=%ZZ HTTP/1.1\nHost: [::1]:80\nConnection: close\n\n",
		"GET /a%zzb HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /a\x01b?c HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET //x/y? HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /x HTTP/1.1\r\nHost: x\r\nX-A: 1\r\n 2\r\n\r\n",
		"GET /x HTTP/2.0\r\n\r\n",
		"GET * HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /" + strings.Repeat("a", maxRequestLine) + " HTTP/1.1\r\n\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &countingReader{r: bytes.NewReader(data)}
		rr := &requestReader{br: bufio.NewReaderSize(src, maxRequestLine+maxHeaderBytes), conn: noDeadline{}}
		r, refusal, err := rr.read()
		if src.n > maxRequestLine+maxHeaderBytes {
			t.Fatalf("read %d bytes for one head", src.n)
		}
		if refusal != nil {
			switch refusal.Status {
			case 400, 413, 414, 417, 431, 501, 505:
			default:
				t.Fatalf("refused with %d", refusal.Status)
			}
			return
		}
		if err != nil {
			return
		}
		consumed := len(data) - rr.br.Buffered() - (src.r.Len())
		if line := bytes.IndexByte(data, '\n') + 1; line > maxRequestLine || consumed-line > maxHeaderBytes {
			t.Fatalf("accepted a %d-byte request line and a %d-byte header block", line, consumed-line)
		}
		want, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("accepted %q, which http.ReadRequest refuses: %v", data[:consumed], err)
		}
		if r.method != want.Method || r.path != want.URL.Path || r.rawQuery != want.URL.RawQuery || r.host != want.Host ||
			r.close != want.Close || r.minor != want.ProtoMinor {
			t.Fatalf("%q: read %+v, http.ReadRequest %s %q %q host %q close %v minor %d", data[:consumed],
				*r, want.Method, want.URL.Path, want.URL.RawQuery, want.Host, want.Close, want.ProtoMinor)
		}
	})
}

type countingReader struct {
	r *bytes.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

type noDeadline struct{}

func (noDeadline) SetReadDeadline(time.Time) error { return nil }

// TestCloseDrains holds Close to its contract: an idle keep-alive
// connection closes at once and new dials are refused; an in-flight cold
// classes render finishes with its full body; a straggler is severed after
// closeGrace; and Close returns only once every connection goroutine has
// exited, leaving no goroutine behind.
func TestCloseDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	corpus := worldCorpus(t, 5, 100, []string{"US", "DE"})
	want, qerr := direct(corpus, "memory", 0).render(parsePath(t, "/api/classes?layer=hosting"))
	if qerr != nil {
		t.Fatal(qerr)
	}
	d, err := Start("127.0.0.1:0", Config{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	finish, straggle := make(chan struct{}), make(chan struct{})
	serveThrough(d, func(render renderFunc, q Query) ([]byte, *QueryError) {
		switch q.Endpoint {
		case "classes":
			<-finish
		case "coverage":
			<-straggle
		}
		return render(q)
	})
	dial := func(send string) (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", d.Addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		io.WriteString(c, send)
		return c, bufio.NewReader(c)
	}
	idle, idleR := dial("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
	rawResponse(t, idleR, http.MethodGet)
	inflight, inflightR := dial("GET /api/classes?layer=hosting HTTP/1.1\r\nHost: t\r\n\r\n")
	straggler, stragglerR := dial("GET /api/coverage HTTP/1.1\r\nHost: t\r\n\r\n")
	for d.m.inflight.Value() < 2 {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()

	expectClosed(t, idle, idleR, time.Second)
	for deadline := time.Now().Add(time.Second); ; {
		c, err := net.Dial("tcp", d.Addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("the listener still accepts after Close")
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(finish)
	resp, body := rawResponse(t, inflightR, http.MethodGet)
	if resp.StatusCode != 200 || !bytes.Equal(body, want) || !resp.Close {
		t.Errorf("in-flight render: %d, Close %v, %d bytes (want 200, true, %d)", resp.StatusCode, resp.Close, len(body), len(want))
	}
	expectClosed(t, inflight, inflightR, time.Second)

	expectClosed(t, straggler, stragglerR, closeGrace+time.Second)
	if took := time.Since(start); took < closeGrace-100*time.Millisecond {
		t.Errorf("the straggler was severed after %v, want %v", took, closeGrace)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a handler still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(straggle)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("a second Close: %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Start", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
