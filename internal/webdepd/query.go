package webdepd

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"github.com/webdep/webdep/internal/countries"
)

// QueryError is a typed request rejection: a 4xx (hostile or malformed
// input) or 5xx (the corpus could not answer) with a message that names
// the offending parameter. It is what every parse and render failure
// surfaces as, so the daemon never panics on untrusted input and never
// caches an error body (see cache.go).
type QueryError struct {
	Status int
	Msg    string
}

func (e *QueryError) Error() string { return e.Msg }

func badRequest(format string, args ...any) *QueryError {
	return &QueryError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) *QueryError {
	return &QueryError{Status: http.StatusNotFound, Msg: fmt.Sprintf(format, args...)}
}

// Endpoint names, used as cache-key prefixes and per-endpoint metric names.
const (
	epScores    = "scores"
	epRankCurve = "rankcurve"
	epCoverage  = "coverage"
	epClasses   = "classes"
	epSPOF      = "spof"
	epWhatIf    = "whatif"
	epEpoch     = "epoch"
)

// endpoints lists every query endpoint, for metric registration.
var endpoints = []string{epScores, epRankCurve, epCoverage, epClasses, epSPOF, epWhatIf, epEpoch}

// defaultSPOFN is how many SPOFs /api/spof returns when n is absent.
const defaultSPOFN = 10

// maxSPOFN bounds the spof ranking length so the cache key space stays
// finite under hostile n values.
const maxSPOFN = 500

// maxProviderLen bounds the what-if provider name; real AS organization
// and CCADB owner names are far shorter.
const maxProviderLen = 200

// Query is one parsed score-query request. The zero Layer with AllLayers
// set means "every layer"; Country, Provider, and N are populated only for
// the endpoints that use them.
type Query struct {
	Endpoint  string
	Layer     countries.Layer
	AllLayers bool
	Country   string
	Provider  string
	N         int
}

// Key returns the canonical cache key for the query: two requests that
// must serve the same bytes map to the same key regardless of parameter
// order or URL escaping.
func (q Query) Key() string {
	switch q.Endpoint {
	case epScores:
		if q.AllLayers {
			return "scores|all"
		}
		return "scores|" + q.Layer.String() + "|" + q.Country
	case epRankCurve:
		return "rankcurve|" + q.Layer.String() + "|" + q.Country
	case epSPOF:
		return "spof|" + strconv.Itoa(q.N)
	case epWhatIf:
		return "whatif|" + q.Provider
	case epClasses:
		return "classes|" + q.Layer.String()
	default: // coverage, epoch: no parameters
		return q.Endpoint
	}
}

// ParseQuery validates an /api request's path and raw query string into a
// Query. Every rejection is a typed 4xx QueryError; hostile input — junk
// layers, malformed escapes, oversized provider names, unknown parameters
// — can never panic or produce an unbounded cache key (FuzzQueryParse is
// the gate). rawQuery is parsed by hand instead of url.ParseQuery so the
// cache-hit path does not allocate a values map per request.
func ParseQuery(path, rawQuery string) (Query, *QueryError) {
	name, ok := strings.CutPrefix(path, "/api/")
	if !ok || name == "" || strings.ContainsRune(name, '/') {
		return Query{}, notFound("unknown endpoint %q", clip(path))
	}

	var q Query
	var layer, country, provider, n string
	for raw := rawQuery; raw != ""; {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		v, err := unescape(v)
		if err != nil {
			return Query{}, badRequest("parameter %s: undecodable value", clip(k))
		}
		var dst *string
		switch k {
		case "layer":
			dst = &layer
		case "country":
			dst = &country
		case "provider":
			dst = &provider
		case "n":
			dst = &n
		default:
			return Query{}, badRequest("unknown parameter %q", clip(k))
		}
		if *dst != "" {
			return Query{}, badRequest("parameter %s repeated", k)
		}
		if v == "" {
			return Query{}, badRequest("parameter %s is empty", k)
		}
		*dst = v
	}

	// reject refuses parameters an endpoint does not take, so a typo'd
	// request fails loudly instead of silently hitting a broader key.
	reject := func(param, val string) *QueryError {
		if val != "" {
			return badRequest("endpoint %s takes no %s parameter", name, param)
		}
		return nil
	}

	switch name {
	case epScores:
		if err := reject("provider", provider); err != nil {
			return Query{}, err
		}
		if err := reject("n", n); err != nil {
			return Query{}, err
		}
		q.Endpoint = epScores
		if layer == "" {
			if country != "" {
				return Query{}, badRequest("country requires a layer parameter")
			}
			q.AllLayers = true
			return q, nil
		}
		var qerr *QueryError
		if q.Layer, qerr = parseLayer(layer); qerr != nil {
			return Query{}, qerr
		}
		if country != "" {
			if q.Country, qerr = parseCountry(country); qerr != nil {
				return Query{}, qerr
			}
		}
		return q, nil

	case epRankCurve:
		if err := reject("provider", provider); err != nil {
			return Query{}, err
		}
		if err := reject("n", n); err != nil {
			return Query{}, err
		}
		q.Endpoint = epRankCurve
		var qerr *QueryError
		if q.Layer, qerr = parseLayer(layer); qerr != nil {
			return Query{}, qerr
		}
		if q.Country, qerr = parseCountry(country); qerr != nil {
			return Query{}, qerr
		}
		return q, nil

	case epClasses:
		if err := reject("provider", provider); err != nil {
			return Query{}, err
		}
		if err := reject("n", n); err != nil {
			return Query{}, err
		}
		if err := reject("country", country); err != nil {
			return Query{}, err
		}
		q.Endpoint = epClasses
		var qerr *QueryError
		if q.Layer, qerr = parseLayer(layer); qerr != nil {
			return Query{}, qerr
		}
		return q, nil

	case epSPOF:
		if err := reject("provider", provider); err != nil {
			return Query{}, err
		}
		if err := reject("layer", layer); err != nil {
			return Query{}, err
		}
		if err := reject("country", country); err != nil {
			return Query{}, err
		}
		q.Endpoint = epSPOF
		q.N = defaultSPOFN
		if n != "" {
			v, err := strconv.Atoi(n)
			if err != nil || v < 1 || v > maxSPOFN {
				return Query{}, badRequest("n must be an integer in [1, %d]", maxSPOFN)
			}
			q.N = v
		}
		return q, nil

	case "what-if", epWhatIf:
		if err := reject("layer", layer); err != nil {
			return Query{}, err
		}
		if err := reject("country", country); err != nil {
			return Query{}, err
		}
		if err := reject("n", n); err != nil {
			return Query{}, err
		}
		q.Endpoint = epWhatIf
		var qerr *QueryError
		if q.Provider, qerr = parseProvider(provider); qerr != nil {
			return Query{}, qerr
		}
		return q, nil

	case epCoverage, epEpoch:
		if rawQuery != "" {
			return Query{}, badRequest("endpoint %s takes no parameters", name)
		}
		q.Endpoint = name
		return q, nil

	default:
		return Query{}, notFound("unknown endpoint %q", clip(path))
	}
}

// parseLayer maps a layer name to its Layer, case-insensitively.
func parseLayer(s string) (countries.Layer, *QueryError) {
	for _, l := range countries.Layers {
		if strings.EqualFold(s, l.String()) {
			return l, nil
		}
	}
	return 0, badRequest("unknown layer %q (want hosting, dns, ca, or tld)", clip(s))
}

// parseCountry validates a two-ASCII-letter country code, folding to the
// corpus's uppercase convention. Whether the country exists in the served
// corpus is the render step's call (a 404); this only bounds the syntax.
func parseCountry(s string) (string, *QueryError) {
	if len(s) != 2 || !isLetter(s[0]) || !isLetter(s[1]) {
		return "", badRequest("country must be a two-letter code, got %q", clip(s))
	}
	return strings.ToUpper(s), nil
}

// parseProvider bounds a what-if provider name: non-empty, printable,
// length-capped. Existence is checked at render time against the graph.
func parseProvider(s string) (string, *QueryError) {
	if s == "" {
		return "", badRequest("what-if requires a provider parameter")
	}
	if len(s) > maxProviderLen {
		return "", badRequest("provider name longer than %d bytes", maxProviderLen)
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == 0x7f {
			return "", badRequest("provider name contains control bytes")
		}
	}
	return s, nil
}

func isLetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// clip bounds hostile strings before they are echoed into an error body.
func clip(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

// unescape decodes %XX and '+' query escapes, skipping the allocation when
// the value carries none — the overwhelmingly common case on the hit path.
func unescape(v string) (string, error) {
	if !strings.ContainsAny(v, "%+") {
		return v, nil
	}
	return url.QueryUnescape(v)
}
