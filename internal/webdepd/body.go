package webdepd

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// bodyWriter appends one response body's JSON, token by token, in the order
// the renderer calls it. It writes what encoding/json writes for the same
// values — strings with its escaping, floats with its format — and tracks
// only where a comma goes, so a renderer reads like the object it writes:
//
//	w.open('{'); w.key("epoch"); w.str(e); w.close('}')
//
// A non-finite float is not JSON: the writer remembers the first and finish
// reports it as a 500, as json.Marshal's error was, instead of writing it.
// Writers are pooled and their buffer reused; finish copies the body out at
// its exact length, so a cached body carries no growth slack.
type bodyWriter struct {
	b     []byte
	comma bool // the next key or value follows a sibling
	err   *QueryError
}

var bodyWriters = sync.Pool{New: func() any { return new(bodyWriter) }}

// newBody returns an empty writer from the pool.
func newBody() *bodyWriter {
	w := bodyWriters.Get().(*bodyWriter)
	w.b, w.comma, w.err = w.b[:0], false, nil
	return w
}

// finish returns the body, newline-terminated as json.Encoder ends one, in
// a slice of its own, and puts the writer back in the pool.
func (w *bodyWriter) finish() ([]byte, *QueryError) {
	defer bodyWriters.Put(w)
	if w.err != nil {
		return nil, w.err
	}
	out := make([]byte, len(w.b)+1)
	copy(out, w.b)
	out[len(w.b)] = '\n'
	return out, nil
}

func (w *bodyWriter) sep() {
	if w.comma {
		w.b = append(w.b, ',')
	}
}

// open starts an object ('{') or an array ('[').
func (w *bodyWriter) open(c byte) {
	w.sep()
	w.b = append(w.b, c)
	w.comma = false
}

// close ends the object ('}') or array (']') open last.
func (w *bodyWriter) close(c byte) {
	w.b = append(w.b, c)
	w.comma = true
}

// key writes an object member's name; its value comes next.
func (w *bodyWriter) key(k string) {
	w.sep()
	w.b = appendString(w.b, k)
	w.b = append(w.b, ':')
	w.comma = false
}

func (w *bodyWriter) str(s string) {
	w.sep()
	w.b = appendString(w.b, s)
	w.comma = true
}

func (w *bodyWriter) int(v int64) {
	w.sep()
	w.b = strconv.AppendInt(w.b, v, 10)
	w.comma = true
}

func (w *bodyWriter) bool(v bool) {
	w.sep()
	w.b = strconv.AppendBool(w.b, v)
	w.comma = true
}

func (w *bodyWriter) float(f float64) {
	w.sep()
	w.comma = true
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = &QueryError{Status: http.StatusInternalServerError,
				Msg: fmt.Sprintf("encoding response: unsupported value: %v", f)}
		}
		return
	}
	w.b = appendFloat(w.b, f)
}

// appendString appends s as a JSON string. Plain ASCII — every country
// code, layer, class and almost every provider name — is copied between
// quotes; a string with any byte encoding/json escapes (a quote, a
// backslash, a control byte, <, > or &, or anything outside ASCII, which
// may be U+2028 or invalid UTF-8) is quoted by encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json formats a float64: the
// shortest representation that round-trips, in 'f' form unless |f| is
// below 1e-6 or at least 1e21, and then in 'e' form with a one-digit
// negative exponent written without its leading zero (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
