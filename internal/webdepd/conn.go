package webdepd

import (
	"bufio"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The connection loop's timeouts, besides headerTimeout, and its buffers
// (DESIGN.md, "The connection loop").
const (
	// writeTimeout bounds the write of one response.
	writeTimeout = 10 * time.Second
	// lingerTimeout bounds how long a connection that closes after a
	// response drains what the client still sends, so that closing with
	// unread bytes does not reset the response before the client reads it.
	lingerTimeout = 500 * time.Millisecond
	// closeGrace bounds how long Close waits for in-flight responses.
	closeGrace = 2 * time.Second
	// headroom is the room a response buffer keeps in front of the body for
	// the status line and headers, so that a response goes out in one write
	// with its body copied once.
	headroom = 512
	// maxPooledBody is the largest response buffer a closed connection
	// hands to the next one.
	maxPooledBody = 1 << 20
)

// A connection's state, as Close reads it.
const (
	connIdle   int32 = iota // waiting, with no deadline, for a request's first byte
	connActive              // reading, serving or answering a request
	connClosed              // closed by Close while idle
)

// conn is one accepted connection and what it reuses from request to
// request. A closed connection's buffers go back to connPool; it is
// removed from the daemon's set first, so Close never sees one reused.
type conn struct {
	rwc   net.Conn
	state atomic.Int32
	br    *bufio.Reader
	rr    requestReader
	w     response
	head  []byte   // status line and headers, built before the copy into w.buf's headroom
	keys  []string // header names of one response, sorted
	date  []byte   // the Date value, formatted once a second
	dated int64    // the Unix second date was formatted for
}

var connPool = sync.Pool{New: func() any {
	c := &conn{br: bufio.NewReaderSize(nil, maxRequestLine+maxHeaderBytes)}
	c.rr = requestReader{br: c.br, header: make(http.Header)}
	c.w.header = make(http.Header)
	return c
}}

func newConn(rwc net.Conn) *conn {
	c := connPool.Get().(*conn)
	c.rwc = rwc
	c.state.Store(connIdle)
	c.br.Reset(rwc)
	c.rr.conn = rwc
	c.rr.remoteAddr = rwc.RemoteAddr().String()
	if cap(c.w.buf) < headroom {
		c.w.buf = make([]byte, headroom, headroom+4<<10)
	}
	return c
}

func (c *conn) release() {
	c.rwc, c.rr.conn = nil, nil
	c.br.Reset(nil)
	c.rr.req = http.Request{}
	clear(c.rr.header)
	c.w.reset()
	if cap(c.w.buf) > maxPooledBody {
		c.w.buf = nil
	}
	connPool.Put(c)
}

// response is the loop's http.ResponseWriter: it buffers the status, the
// headers and the body, and the loop frames them once the handler returns.
type response struct {
	header http.Header
	status int
	buf    []byte // headroom, then the body
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *response) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *response) reset() {
	clear(w.header)
	w.status = 0
	w.buf = w.buf[:min(headroom, cap(w.buf))]
}

// start serves ln until Close: one goroutine accepts, and one per
// connection answers its requests in order.
func (d *Daemon) start(ln net.Listener) {
	d.ln = ln
	d.Addr = ln.Addr().String()
	d.conns = make(map[*conn]struct{})
	d.connWG.Add(1)
	go d.accept()
}

func (d *Daemon) accept() {
	defer d.connWG.Done()
	var backoff time.Duration
	for {
		rwc, err := d.ln.Accept()
		if err != nil {
			if d.closing.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Out of file descriptors, say: back off as net/http does.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			log.Printf("webdepd: accept: %v; retrying in %v", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		c := newConn(rwc)
		d.connMu.Lock()
		if d.closing.Load() {
			d.connMu.Unlock()
			rwc.Close()
			c.release()
			continue
		}
		d.conns[c] = struct{}{}
		d.connWG.Add(1)
		d.connMu.Unlock()
		go d.serveConn(c)
	}
}

// serveConn answers c's requests in order until the client closes, a
// request asks for the close, a request is refused, or the daemon closes.
func (d *Daemon) serveConn(c *conn) {
	defer d.dropConn(c)
	for {
		// Publish idle before reading closing: Close sets closing before it
		// reads the states, so either this sees it or Close sees idle.
		c.state.Store(connIdle)
		if d.closing.Load() {
			return
		}
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		if !c.state.CompareAndSwap(connIdle, connActive) {
			return
		}
		r, refusal, err := c.rr.read()
		if err != nil {
			return
		}
		c.w.reset()
		keep := false
		if refusal != nil {
			writeError(&c.w, refusal)
		} else {
			keep = c.dispatch(d.mux, r) && !r.Close
		}
		keep = keep && !d.closing.Load()
		if err := c.respond(r, keep); err != nil {
			// The response is lost either way (a client that stopped reading
			// past writeTimeout, or one that went away): reset the connection
			// so that the kernel does not keep queuing it, and the close
			// behind it, for a client that does not read.
			if l, ok := c.rwc.(interface{ SetLinger(int) error }); ok {
				_ = l.SetLinger(0)
			}
			return
		}
		if !keep {
			c.linger()
			return
		}
	}
}

// dispatch runs the handler and reports whether it returned. A panic is
// logged and answered 500, dropping whatever the handler had buffered:
// nothing of a response reaches the socket before its handler returns.
func (c *conn) dispatch(h http.Handler, r *http.Request) (returned bool) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("webdepd: panic serving %s %s: %v\n%s", r.Method, r.RequestURI, p, debug.Stack())
			c.w.reset()
			writeError(&c.w, &QueryError{Status: http.StatusInternalServerError, Msg: "internal error"})
		}
	}()
	h.ServeHTTP(&c.w, r)
	return true
}

// respond writes the buffered response in one call: the status line, the
// handler's headers with Content-Length, Date and, when the connection
// closes or is HTTP/1.0, Connection, in sorted order, then the body. r is
// nil for a refusal. A HEAD response keeps its Content-Length and drops
// the body.
func (c *conn) respond(r *http.Request, keep bool) error {
	w := &c.w
	status := w.status
	if status == 0 {
		status = http.StatusOK
	}
	body := w.buf[headroom:]
	minor, bodyless := 1, false
	if r != nil {
		minor, bodyless = r.ProtoMinor, r.Method == http.MethodHead
	}
	h := w.header
	if _, ok := h["Content-Type"]; !ok && len(body) > 0 {
		h.Set("Content-Type", http.DetectContentType(body))
	}
	now := time.Now()
	if sec := now.Unix(); sec != c.dated || c.date == nil {
		c.dated, c.date = sec, now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}

	c.keys = c.keys[:0]
	for k := range h {
		switch k {
		case "Connection", "Content-Length", "Date":
		default:
			c.keys = append(c.keys, k)
		}
	}
	if !keep || minor == 0 {
		c.keys = append(c.keys, "Connection")
	}
	c.keys = append(c.keys, "Content-Length", "Date")
	slices.Sort(c.keys)

	b := append(c.head[:0], "HTTP/1."...)
	b = append(b, byte('0'+minor), ' ')
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(status)...)
	b = append(b, "\r\n"...)
	for _, k := range c.keys {
		switch k {
		case "Connection":
			v := "close"
			if keep {
				v = "keep-alive"
			}
			b = appendField(b, k, v)
		case "Content-Length":
			b = append(b, "Content-Length: "...)
			b = strconv.AppendInt(b, int64(len(body)), 10)
			b = append(b, "\r\n"...)
		case "Date":
			b = append(b, "Date: "...)
			b = append(b, c.date...)
			b = append(b, "\r\n"...)
		default:
			if isToken(k) {
				for _, v := range h[k] {
					b = appendField(b, k, v)
				}
			}
		}
	}
	b = append(b, "\r\n"...)
	c.head = b

	var out []byte
	if n := len(b); n <= headroom {
		out = w.buf[headroom-n:]
		copy(out, b)
	} else {
		out = append(b[:n:n], body...)
	}
	if bodyless {
		out = out[:len(out)-len(body)]
	}
	if err := c.rwc.SetWriteDeadline(now.Add(writeTimeout)); err != nil {
		return err
	}
	_, err := c.rwc.Write(out)
	return err
}

// appendField appends one header line, a value's line breaks turned into
// spaces as net/http writes them.
func appendField(b []byte, k, v string) []byte {
	b = append(b, k...)
	b = append(b, ": "...)
	v = strings.Trim(v, " \t\r\n")
	if strings.ContainsAny(v, "\r\n") {
		v = strings.NewReplacer("\r", " ", "\n", " ").Replace(v)
	}
	b = append(b, v...)
	return append(b, "\r\n"...)
}

// linger half-closes the connection and drains what the client still
// sends, for at most lingerTimeout, before the close.
func (c *conn) linger() {
	cw, ok := c.rwc.(interface{ CloseWrite() error })
	if !ok || cw.CloseWrite() != nil || c.rwc.SetReadDeadline(time.Now().Add(lingerTimeout)) != nil {
		return
	}
	// Whatever ends the drain — the client's close, the deadline, an error —
	// the connection closes next.
	_, _ = io.Copy(io.Discard, c.rwc)
}

func (d *Daemon) dropConn(c *conn) {
	c.rwc.Close()
	d.connMu.Lock()
	delete(d.conns, c)
	d.connMu.Unlock()
	c.release()
	d.connWG.Done()
}

// Close stops the daemon. The listener and every idle connection close at
// once; requests in flight get closeGrace to finish their responses, each
// sent with Connection: close, and the connections still open after it are
// severed. Close returns once every connection goroutine has exited, so a
// handler that never returns holds it.
func (d *Daemon) Close() error {
	d.connMu.Lock()
	d.closing.Store(true)
	for c := range d.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			c.rwc.Close()
		}
	}
	d.connMu.Unlock()
	err := d.ln.Close()
	if errors.Is(err, net.ErrClosed) { // closed before
		err = nil
	}

	done := make(chan struct{})
	go func() {
		d.connWG.Wait()
		close(done)
	}()
	grace := time.NewTimer(closeGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		d.connMu.Lock()
		for c := range d.conns {
			c.rwc.Close()
		}
		d.connMu.Unlock()
		<-done
	}
	return err
}
