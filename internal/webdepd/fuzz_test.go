package webdepd

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzQueryParse is the hostile-input gate for the daemon's front door:
// for any path and query string, ParseQuery must never panic, every
// rejection must be a well-formed 4xx whose message echoes at most a
// clipped piece of the input, and every accepted query must
// satisfy the invariants the cache keys and renderers rely on.
func FuzzQueryParse(f *testing.F) {
	f.Add("/api/scores", "")
	f.Add("/api/scores", "layer=hosting&country=us")
	f.Add("/api/rankcurve", "layer=dns&country=DE")
	f.Add("/api/spof", "n=10")
	f.Add("/api/what-if", "provider=Cloudflare")
	f.Add("/api/classes", "layer=tld")
	f.Add("/api/coverage", "")
	f.Add("/api/epoch", "")
	f.Add("/api/scores", "layer=%68osting")
	f.Add("/api/what-if", "provider=%ZZ")
	f.Add("/api/../etc/passwd", "")
	f.Add("/api/scores", "layer=hosting&layer=dns")
	f.Add("/api/spof", "n=-1&n=2")
	f.Add("/api/what-if", "provider="+strings.Repeat("A", 300))
	f.Add("/api/scores", strings.Repeat("k", 4096)+"=1")
	f.Add("/api/scores", strings.Repeat("k", 4096)+"=%ZZ")
	f.Add("/api/"+strings.Repeat("p", 4096), "")
	f.Add("", "")

	f.Fuzz(func(t *testing.T, path, rawQuery string) {
		q, qerr := ParseQuery(path, rawQuery)
		if qerr != nil {
			if qerr.Status < 400 || qerr.Status > 499 {
				t.Fatalf("ParseQuery(%q, %q): non-4xx rejection %d", path, rawQuery, qerr.Status)
			}
			if qerr.Msg == "" {
				t.Fatalf("ParseQuery(%q, %q): empty rejection message", path, rawQuery)
			}
			if len(qerr.Msg) > 256 {
				t.Fatalf("ParseQuery(%q, %q): %d-byte rejection message echoes unbounded input", path, rawQuery, len(qerr.Msg))
			}
			return
		}
		// Accepted queries must be canonical: a known endpoint, a bounded
		// key, and parameters inside the ranges the renderers assume.
		known := false
		for _, ep := range endpoints {
			if q.Endpoint == ep {
				known = true
			}
		}
		if !known {
			t.Fatalf("accepted unknown endpoint %q", q.Endpoint)
		}
		if q.Country != "" {
			if len(q.Country) != 2 || q.Country != strings.ToUpper(q.Country) {
				t.Fatalf("accepted non-canonical country %q", q.Country)
			}
		}
		if q.Endpoint == epSPOF && (q.N < 1 || q.N > maxSPOFN) {
			t.Fatalf("accepted out-of-range n %d", q.N)
		}
		if len(q.Provider) > maxProviderLen {
			t.Fatalf("accepted oversized provider (%d bytes)", len(q.Provider))
		}
		if key := q.Key(); key == "" || len(key) > maxProviderLen+20 {
			t.Fatalf("cache key %q out of bounds", key)
		}
	})
}

// FuzzBodyWriter holds the body writer's strings and floats to
// encoding/json's: for any string and any finite float, the bytes appended
// are json.Marshal's, and a non-finite float is a 500, not bytes. The seeds
// are the oracle test's escaping and format-boundary cases, so plain go test
// runs them.
func FuzzBodyWriter(f *testing.F) {
	for i, s := range escapeNames {
		f.Add(s, boundaryFloats[i%len(boundaryFloats)])
	}
	for _, v := range boundaryFloats {
		f.Add("plain", v)
	}
	f.Add("", math.NaN())
	f.Add("US", math.Inf(1))
	f.Add("DE", math.Inf(-1))

	f.Fuzz(func(t *testing.T, s string, v float64) {
		w := newBody()
		w.str(s)
		w.float(v)
		got, qerr := w.finish()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if qerr == nil || qerr.Status != 500 {
				t.Fatalf("%v: got body %q, error %v; want a 500", v, got, qerr)
			}
			return
		}
		if qerr != nil {
			t.Fatalf("(%q, %v): %v", s, v, qerr)
		}
		js, _ := json.Marshal(s)
		jf, _ := json.Marshal(v)
		want := append(append(append(js, ','), jf...), '\n')
		if !bytes.Equal(got, want) {
			t.Fatalf("(%q, %v): got %s, want %s", s, v, got, want)
		}
	})
}
