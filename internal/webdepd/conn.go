package webdepd

import (
	"bufio"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
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
	out   []byte // one response, head and body, as it is written
	date  []byte // the Date value, formatted once a second
	dated int64  // the Unix second date was formatted for
}

var connPool = sync.Pool{New: func() any {
	c := &conn{br: bufio.NewReaderSize(nil, maxRequestLine+maxHeaderBytes)}
	c.rr.br = c.br
	return c
}}

func newConn(rwc net.Conn) *conn {
	c := connPool.Get().(*conn)
	c.rwc = rwc
	c.state.Store(connIdle)
	c.br.Reset(rwc)
	c.rr.conn = rwc
	return c
}

func (c *conn) release() {
	c.rwc, c.rr.conn = nil, nil
	c.br.Reset(nil)
	c.rr.req = request{}
	if cap(c.out) > maxPooledBody {
		c.out = nil
	}
	connPool.Put(c)
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
		var rep reply
		keep := false
		if refusal != nil {
			rep = errorReply(refusal)
		} else {
			rep, keep = d.dispatch(r)
			keep = keep && !r.close
		}
		keep = keep && !d.closing.Load()
		if err := c.respond(r, rep, keep); err != nil {
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

// dispatch routes r and reports whether its handler returned. A panic is
// logged and answered 500: nothing of a response reaches the socket before
// its handler returns.
func (d *Daemon) dispatch(r *request) (rep reply, returned bool) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("webdepd: panic serving %s %s: %v\n%s", r.method, r.path, p, debug.Stack())
			rep = errorReply(&QueryError{Status: http.StatusInternalServerError, Msg: "internal error"})
		}
	}()
	return d.route(r.method, r.path, r.rawQuery), true
}

// respond writes one response in one call: the status line; Connection,
// when the connection closes after the response or is HTTP/1.0; then
// Content-Length, Content-Type and Date; then the body. A HEAD response
// keeps its Content-Length and drops the body.
func (c *conn) respond(r *request, rep reply, keep bool) error {
	now := time.Now()
	if sec := now.Unix(); sec != c.dated || c.date == nil {
		c.dated, c.date = sec, now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	b := append(c.out[:0], "HTTP/1."...)
	b = append(b, byte('0'+r.minor), ' ')
	b = strconv.AppendInt(b, int64(rep.status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(rep.status)...)
	switch {
	case !keep:
		b = append(b, "\r\nConnection: close"...)
	case r.minor == 0:
		b = append(b, "\r\nConnection: keep-alive"...)
	}
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(rep.body)), 10)
	b = append(b, "\r\nContent-Type: "...)
	b = append(b, rep.contentType[0]...)
	b = append(b, "\r\nDate: "...)
	b = append(b, c.date...)
	b = append(b, "\r\n\r\n"...)
	if r.method != http.MethodHead {
		b = append(b, rep.body...)
	}
	c.out = b
	if err := c.rwc.SetWriteDeadline(now.Add(writeTimeout)); err != nil {
		return err
	}
	_, err := c.rwc.Write(b)
	return err
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
