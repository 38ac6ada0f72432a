package webdepd

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// The connection loop's limits on a request head (DESIGN.md, "The
// connection loop"). A head is read whole into one buffer of
// maxRequestLine+maxHeaderBytes bytes before any of it is parsed.
const (
	// maxRequestLine bounds the request line, its line ending included. A
	// longer one is answered 414.
	maxRequestLine = 4 << 10
	// maxHeaderBytes bounds the header block after the request line, the
	// blank line that ends it included. A longer one is answered 431.
	maxHeaderBytes = 8 << 10
	// headerTimeout bounds a request head from its first byte. An idle
	// keep-alive connection waits for that byte with no deadline.
	headerTimeout = 5 * time.Second
)

// request is one request head as the connection loop reads it: what the
// route and the response's framing need. Its strings are substrings of one
// copy of the head.
type request struct {
	method   string
	path     string // the target's path, unescaped
	rawQuery string // the target after its first '?', as sent
	host     string // the Host value, checked but not routed on
	minor    int    // HTTP/1.minor
	close    bool   // the connection closes after the response
}

// requestReader reads the request heads of one connection into one reused
// request.
type requestReader struct {
	br   *bufio.Reader
	conn interface{ SetReadDeadline(time.Time) error }
	req  request
}

// read reads and parses the next request head. It returns the request;
// or a refusal, with the request set to frame it (HTTP/1.1, closing); or
// the read error that ends the connection. The request is valid until the
// next read.
func (rr *requestReader) read() (r *request, refusal *QueryError, err error) {
	head, refusal, err := rr.readHead()
	if err == nil && refusal == nil {
		s := string(head)
		rr.br.Discard(len(head)) // buffered: cannot fail
		refusal = rr.parse(s)
	}
	if refusal != nil {
		rr.req = request{minor: 1, close: true}
	}
	return &rr.req, refusal, err
}

// readHead returns the next request head, request line through the blank
// line, as a slice of the buffer. A head that needs more than the read
// that brought its first byte arms headerTimeout.
func (rr *requestReader) readHead() ([]byte, *QueryError, error) {
	br := rr.br
	lineEnd := -1 // just past the request line's '\n'
	from := 0     // where the next unscanned line starts
	armed := false
	for {
		buf, _ := br.Peek(br.Buffered())
		for {
			i := bytes.IndexByte(buf[from:], '\n')
			if i < 0 {
				break
			}
			end := from + i + 1
			switch {
			case lineEnd < 0:
				if end > maxRequestLine {
					return nil, refuse(http.StatusRequestURITooLong, "request line longer than %d bytes", maxRequestLine), nil
				}
				lineEnd = end
			case end-from <= 2 && (end-from == 1 || buf[from] == '\r'):
				if end-lineEnd > maxHeaderBytes {
					return nil, refuse(http.StatusRequestHeaderFieldsTooLarge, "header block longer than %d bytes", maxHeaderBytes), nil
				}
				if armed {
					if err := rr.conn.SetReadDeadline(time.Time{}); err != nil {
						return nil, nil, err
					}
				}
				return buf[:end], nil, nil
			}
			from = end
		}
		if lineEnd < 0 && len(buf) >= maxRequestLine {
			return nil, refuse(http.StatusRequestURITooLong, "request line longer than %d bytes", maxRequestLine), nil
		}
		if lineEnd >= 0 && len(buf)-lineEnd >= maxHeaderBytes {
			return nil, refuse(http.StatusRequestHeaderFieldsTooLarge, "header block longer than %d bytes", maxHeaderBytes), nil
		}
		if !armed {
			armed = true
			if err := rr.conn.SetReadDeadline(time.Now().Add(headerTimeout)); err != nil {
				return nil, nil, err
			}
		}
		if _, err := br.Peek(len(buf) + 1); err != nil {
			return nil, nil, err
		}
	}
}

// parse fills the reader's request from a head readHead returned. It
// accepts a subset of what http.ReadRequest does, and refuses a request
// whose body the daemon would have to read.
func (rr *requestReader) parse(head string) *QueryError {
	line, rest, _ := strings.Cut(head, "\n")
	line = strings.TrimSuffix(line, "\r")
	method, line, ok1 := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(line, " ")
	if !ok1 || !ok2 || !isToken(method) {
		return refuse(http.StatusBadRequest, "malformed request line")
	}
	var minor int
	switch proto {
	case "HTTP/1.1":
		minor = 1
	case "HTTP/1.0":
	default:
		if len(proto) == len("HTTP/x.y") && strings.HasPrefix(proto, "HTTP/") && isDigit(proto[5]) && proto[6] == '.' && isDigit(proto[7]) {
			return refuse(http.StatusHTTPVersionNotSupported, "%s is not served; HTTP/1.1 and HTTP/1.0 are", proto)
		}
		return refuse(http.StatusBadRequest, "malformed HTTP version")
	}
	if !strings.HasPrefix(target, "/") {
		return refuse(http.StatusBadRequest, "request target must be an absolute path")
	}
	rawPath, rawQuery, _ := strings.Cut(target, "?")
	path, err := url.PathUnescape(rawPath)
	if err != nil || strings.ContainsFunc(target, func(r rune) bool { return r < ' ' || r == 0x7f }) {
		return refuse(http.StatusBadRequest, "malformed request target")
	}

	// The fields the loop reads, compared case-insensitively by name; the
	// rest are checked and dropped.
	var host, contentLength string
	var hosts, lengths int
	var conflicting, transferEncoding, expect, connClose, connKeepAlive bool
	for {
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimSuffix(line, "\r")
		if line == "" {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			return refuse(http.StatusBadRequest, "folded header line")
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok || !isToken(name) {
			return refuse(http.StatusBadRequest, "malformed header line")
		}
		value = strings.Trim(value, " \t")
		for i := 0; i < len(value); i++ {
			if c := value[i]; c < ' ' && c != '\t' || c == 0x7f {
				return refuse(http.StatusBadRequest, "control byte in a header value")
			}
		}
		switch {
		case strings.EqualFold(name, "Host"):
			host, hosts = value, hosts+1
		case strings.EqualFold(name, "Content-Length"):
			conflicting = conflicting || lengths > 0 && value != contentLength
			contentLength, lengths = value, lengths+1
		case strings.EqualFold(name, "Transfer-Encoding"):
			transferEncoding = true
		case strings.EqualFold(name, "Expect"):
			expect = true
		case strings.EqualFold(name, "Connection"):
			connClose = connClose || hasToken(value, "close")
			connKeepAlive = connKeepAlive || hasToken(value, "keep-alive")
		}
	}

	switch {
	case hosts > 1:
		return refuse(http.StatusBadRequest, "more than one Host header")
	case hosts == 0 && minor == 1:
		return refuse(http.StatusBadRequest, "missing Host header")
	case hosts == 1 && !validHost(host):
		return refuse(http.StatusBadRequest, "malformed Host header")
	case conflicting:
		return refuse(http.StatusBadRequest, "conflicting Content-Length headers")
	case lengths > 0 && (contentLength == "" || strings.Trim(contentLength, "0123456789") != ""):
		return refuse(http.StatusBadRequest, "malformed Content-Length")
	case transferEncoding:
		return refuse(http.StatusNotImplemented, "request bodies are not read; Transfer-Encoding is not served")
	case lengths > 0 && strings.Trim(contentLength, "0") != "":
		return refuse(http.StatusRequestEntityTooLarge, "request bodies are not read; Content-Length must be 0")
	case expect:
		return refuse(http.StatusExpectationFailed, "request bodies are not read; Expect is not served")
	}

	rr.req = request{
		method:   method,
		path:     path,
		rawQuery: rawQuery,
		host:     host,
		minor:    minor,
		close:    connClose || minor == 0 && !connKeepAlive,
	}
	return nil
}

// refuse builds the refusal of a request the loop does not serve.
func refuse(status int, format string, args ...any) *QueryError {
	return &QueryError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// hasToken reports whether a comma-separated header value lists token,
// compared case-insensitively.
func hasToken(v, token string) bool {
	for v != "" {
		var t string
		t, v, _ = strings.Cut(v, ",")
		if strings.EqualFold(strings.Trim(t, " \t"), token) {
			return true
		}
	}
	return false
}

// isToken reports whether s is an RFC 9110 token: a method or a field name.
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !isDigit(c) && !('a' <= c|0x20 && c|0x20 <= 'z') && strings.IndexByte("!#$%&'*+-.^_`|~", c) < 0 {
			return false
		}
	}
	return true
}

// validHost reports whether every byte of a Host value may appear in a
// host, an IPv6 literal or a port, as net/http's server checks it.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		c := h[i]
		if !isDigit(c) && !('a' <= c|0x20 && c|0x20 <= 'z') && strings.IndexByte("!$%&'()*+,-.:;=[]_~", c) < 0 {
			return false
		}
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
