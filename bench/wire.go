package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// The benchmark's own raw-socket HTTP/1.1 client. It exists because
// webdepd never sets Content-Length, so net/http sends any body above its
// 2 KB buffer chunked, and loadtest.readResponse only understands
// Content-Length (README.md, "Known issues for later PRs"). Using a raw
// socket rather than http.Client also keeps the client's own cost small
// and constant, so what serve-hot measures is the daemon.

// wireConn is one keep-alive connection. Not safe for concurrent use.
type wireConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte // reused across responses
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return newWireConn(c), nil
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

func (w *wireConn) Close() error { return w.c.Close() }

// do writes one pre-built request and reads its response. The returned
// body aliases the connection's buffer and is valid until the next call.
func (w *wireConn) do(req []byte) (status int, body []byte, err error) {
	if _, err := w.c.Write(req); err != nil {
		return 0, nil, err
	}
	status, w.body, err = readResponse(w.br, w.body[:0])
	return status, w.body, err
}

// buildRequest renders the bytes of one keep-alive request.
func buildRequest(method, target, host string) []byte {
	req := method + " " + target + " HTTP/1.1\r\nHost: " + host + "\r\n"
	if method == "POST" {
		req += "Content-Length: 0\r\n"
	}
	return []byte(req + "\r\n")
}

var errShortStatus = errors.New("wire: short status line")

// readResponse reads one HTTP/1.1 response, framing the body by
// Content-Length or by Transfer-Encoding: chunked, and appends the body to
// buf. Any other framing (read-until-close) is an error: a keep-alive
// benchmark connection cannot use it.
func readResponse(br *bufio.Reader, buf []byte) (status int, body []byte, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, buf, err
	}
	// "HTTP/1.1 200 OK\r\n": the status code is bytes 9..12.
	if len(line) < 12 {
		return 0, buf, errShortStatus
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, buf, fmt.Errorf("wire: bad status line %q", line)
	}

	contentLength := -1
	chunked := false
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return status, buf, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return status, buf, fmt.Errorf("wire: malformed header %q", line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			contentLength, err = strconv.Atoi(string(value))
			if err != nil || contentLength < 0 {
				return status, buf, fmt.Errorf("wire: bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			if !bytes.EqualFold(value, []byte("chunked")) {
				return status, buf, fmt.Errorf("wire: unsupported Transfer-Encoding %q", value)
			}
			chunked = true
		}
	}

	switch {
	case chunked:
		body, err = readChunked(br, buf)
	case contentLength >= 0:
		body, err = readN(br, buf, contentLength)
	default:
		return status, buf, errors.New("wire: response framed by neither Content-Length nor chunked")
	}
	return status, body, err
}

// readN appends exactly n bytes from br to buf.
func readN(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	start := len(buf)
	if cap(buf)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:start+n]
	if _, err := io.ReadFull(br, buf[start:]); err != nil {
		return buf[:start], err
	}
	return buf, nil
}

// maxChunk bounds one chunk so a corrupt size line cannot demand the
// address space; webdepd's largest body is a few hundred KB.
const maxChunk = 64 << 20

// readChunked appends a chunked body to buf: hex size lines (extensions
// after ';' ignored), each chunk followed by CRLF, a zero chunk, then
// optional trailers up to an empty line.
func readChunked(br *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return buf, err
		}
		size := bytes.TrimRight(line, "\r\n")
		if i := bytes.IndexByte(size, ';'); i >= 0 {
			size = size[:i]
		}
		n, err := strconv.ParseUint(string(bytes.TrimSpace(size)), 16, 32)
		if err != nil || n > maxChunk {
			return buf, fmt.Errorf("wire: bad chunk size %q", line)
		}
		if n == 0 {
			for {
				line, err = br.ReadSlice('\n')
				if err != nil {
					return buf, err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return buf, nil
				}
			}
		}
		if buf, err = readN(br, buf, int(n)); err != nil {
			return buf, err
		}
		crlf, err := br.ReadSlice('\n')
		if err != nil {
			return buf, err
		}
		if len(bytes.TrimRight(crlf, "\r\n")) != 0 {
			return buf, fmt.Errorf("wire: chunk of %d bytes not followed by CRLF", n)
		}
	}
}
