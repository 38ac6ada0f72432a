package webdepd

import (
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
)

// respCache memoizes rendered response bodies for one corpus generation.
// Keys are canonical Query.Key() strings, so the key space is bounded by
// construction: layers × countries for scores/rankcurve, a clamped n for
// spof, and only *valid* providers for what-if (failed renders are never
// cached, so hostile provider names cannot fill the map).
//
// Concurrency contract (the coalescing test pins this): for a cold key
// under K concurrent requests, exactly one goroutine builds — the others
// block on the entry's ready channel and reuse its bytes. Build errors
// propagate to every waiter and the entry is deleted, so a transient
// failure is retried by the next request instead of being served forever.
// A render that panics is a build error like any other (a 500): the ready
// channel is closed on every way out of the build, so a bug in one
// renderer costs the requests that met it, never the key.
type respCache struct {
	render  func(Query) ([]byte, *QueryError) // the generation's renderer
	mu      sync.Mutex                        // guards entry creation only; lookups are lock-free
	entries sync.Map                          // Query.Key() → *cacheEntry
}

type cacheEntry struct {
	ready chan struct{} // closed once body/err are set
	body  []byte
	// contentLength is body's Content-Length header value, built once at
	// render time so that Handler sets it without allocating: without it,
	// net/http's server sends any body over 2 KB chunked. The connection
	// loop writes the body's length itself.
	contentLength []string
	err           *QueryError
}

// cacheOutcome classifies one get() for the daemon's counters.
type cacheOutcome uint8

const (
	outcomeHit cacheOutcome = iota
	outcomeMiss
	outcomeCoalesced
	outcomePanicked // a miss whose render panicked
)

// newRespCache returns an empty cache that fills cold keys by calling
// render — a generation's, or a test's blocking or panicking stand-in.
func newRespCache(render func(Query) ([]byte, *QueryError)) *respCache {
	return &respCache{render: render}
}

// get returns the cache entry for q, rendering it at most once per key no
// matter how many requests race on a cold cache. The returned entry is
// complete: body and contentLength, or err, are set.
func (c *respCache) get(q Query) (*cacheEntry, cacheOutcome) {
	key := q.Key()
	if v, ok := c.entries.Load(key); ok {
		return c.wait(v.(*cacheEntry), outcomeHit)
	}

	c.mu.Lock()
	if v, ok := c.entries.Load(key); ok {
		// Lost the creation race: someone else is (or finished) building.
		c.mu.Unlock()
		return c.wait(v.(*cacheEntry), outcomeCoalesced)
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries.Store(key, e)
	c.mu.Unlock()
	return e, c.build(q, key, e)
}

// build renders q into the published entry e and releases the requests
// parked on it. An error — a panic included, which is logged with its stack
// as net/http would have — is published to those requests, and the entry is
// dropped so the error is never served from cache.
func (c *respCache) build(q Query, key string, e *cacheEntry) (outcome cacheOutcome) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("webdepd: rendering %s panicked: %v\n%s", key, p, debug.Stack())
			e.err = &QueryError{Status: http.StatusInternalServerError,
				Msg: fmt.Sprintf("rendering %s panicked: %v", key, p)}
			outcome = outcomePanicked
		}
		if e.err != nil {
			c.entries.Delete(key)
		}
		close(e.ready)
	}()
	e.body, e.err = c.render(q)
	e.contentLength = []string{strconv.Itoa(len(e.body))}
	return outcomeMiss
}

// wait blocks until the entry's build completes. A closed ready channel is
// the common case and returns without scheduling; hit is downgraded to
// coalesced when the caller actually had to park.
func (c *respCache) wait(e *cacheEntry, outcome cacheOutcome) (*cacheEntry, cacheOutcome) {
	select {
	case <-e.ready:
		return e, outcome
	default:
	}
	if outcome == outcomeHit {
		outcome = outcomeCoalesced
	}
	<-e.ready
	return e, outcome
}
