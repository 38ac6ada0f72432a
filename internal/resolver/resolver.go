// Package resolver is the toolkit's concurrent DNS lookup engine — the
// ZDNS substitute. A Client performs single exchanges against an
// authoritative server over UDP with retries and automatic TCP fallback on
// truncation; the crawler (pipeline.Live) fans lookups out across its own
// bounded worker set, the way the paper's measurement resolved 588K domains.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/webdep/webdep/internal/dnswire"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/resilience"
)

// Errors surfaced by the resolver.
var (
	ErrTimeout    = errors.New("resolver: query timed out")
	ErrIDMismatch = errors.New("resolver: response ID mismatch")
	ErrServFail   = errors.New("resolver: SERVFAIL")
	ErrNXDomain   = errors.New("resolver: NXDOMAIN")
	ErrRefused    = errors.New("resolver: REFUSED")
)

// Client queries one DNS server. The zero value is unusable; fill Server.
type Client struct {
	// Server is the "host:port" of the authoritative server.
	Server string
	// Timeout bounds each network attempt. Default 2s.
	Timeout time.Duration
	// Retries is the number of additional attempts after the first,
	// used when Policy is nil. Default 2.
	Retries int
	// Policy, when non-nil, replaces the fixed Retries loop with the
	// resilience layer: jittered exponential backoff, per-attempt
	// timeouts, a bounded retry budget, and circuit breaking keyed
	// "dns:<server>". Transient failures (timeouts, datagram loss) are
	// retried under the policy; authoritative negatives (NXDOMAIN,
	// REFUSED) never are.
	Policy *resilience.Policy
	// Obs selects the metrics registry the client's "probe.dns.*"
	// instruments record to; nil means obs.Default().
	Obs *obs.Registry

	// rng guards query-ID generation.
	mu  sync.Mutex
	rng *rand.Rand

	metricsOnce sync.Once
	metrics     *clientMetrics
}

// clientMetrics holds the hoisted per-probe instruments: one latency
// histogram per wire exchange (each attempt, not each logical lookup, so
// retry inflation is visible) plus attempt/fallback counters.
type clientMetrics struct {
	exchangeMS   *obs.Histogram
	attempts     *obs.Counter
	errors       *obs.Counter
	tcpFallbacks *obs.Counter
}

func (c *Client) m() *clientMetrics {
	c.metricsOnce.Do(func() {
		r := c.Obs
		if r == nil {
			r = obs.Default()
		}
		c.metrics = &clientMetrics{
			exchangeMS:   r.Timing("probe.dns.ms"),
			attempts:     r.Counter("probe.dns.attempts"),
			errors:       r.Counter("probe.dns.errors"),
			tcpFallbacks: r.Counter("probe.dns.tcp_fallbacks"),
		}
	})
	return c.metrics
}

// NewClient returns a client with defaults suitable for LAN-local
// authoritative servers.
func NewClient(server string) *Client {
	return &Client{
		Server:  server,
		Timeout: 2 * time.Second,
		Retries: 2,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

func (c *Client) nextID() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return uint16(c.rng.Intn(1 << 16))
}

// Classify maps resolver errors onto resilience classes: authoritative
// negatives (NXDOMAIN, REFUSED) and protocol violations (ID mismatch) are
// permanent — retrying cannot change the answer — while timeouts and
// SERVFAIL are transient. Anything else falls through to
// resilience.DefaultClassify, which covers raw network errors.
func Classify(err error) resilience.Class {
	switch {
	case err == nil:
		return resilience.Success
	case errors.Is(err, ErrNXDomain), errors.Is(err, ErrRefused), errors.Is(err, ErrIDMismatch):
		return resilience.Permanent
	case errors.Is(err, ErrTimeout), errors.Is(err, ErrServFail):
		return resilience.Transient
	}
	return resilience.DefaultClassify(err)
}

// Exchange sends one query and returns the parsed response, retrying over
// UDP and falling back to TCP when the answer is truncated. DNS-level
// failures (NXDOMAIN, SERVFAIL, REFUSED) are returned as errors alongside
// the response carrying the code.
func (c *Client) Exchange(name string, qtype uint16) (*dnswire.Message, error) {
	return c.ExchangeContext(context.Background(), name, qtype)
}

// ExchangeContext is Exchange bounded by a context: cancelling ctx aborts
// in-flight attempts and pending retry backoffs. When c.Policy is set the
// retry schedule, budget, and circuit breaking come from the policy;
// otherwise the fixed c.Retries loop applies.
func (c *Client) ExchangeContext(ctx context.Context, name string, qtype uint16) (*dnswire.Message, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	var resp *dnswire.Message
	attempt := func(ctx context.Context) error {
		resp = nil
		r, err := c.attempt(ctx, name, qtype, timeout)
		if err != nil {
			return err
		}
		resp = r
		return rcodeError(r.Header.RCode)
	}

	if c.Policy != nil {
		err := c.Policy.DoClassified(ctx, "dns:"+c.Server, Classify, attempt)
		return resp, err
	}

	attempts := c.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		err := attempt(ctx)
		if Classify(err) != resilience.Transient {
			// Success or an authoritative answer carrying an error code:
			// either way the exchange is over.
			return resp, err
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrTimeout
	}
	return nil, lastErr
}

// attempt performs one UDP exchange with TCP fallback on truncation,
// recording the attempt's wire latency and outcome.
func (c *Client) attempt(ctx context.Context, name string, qtype uint16, timeout time.Duration) (*dnswire.Message, error) {
	m := c.m()
	m.attempts.Inc()
	sp := obs.StartSpan(m.exchangeMS)
	resp, err := c.exchangeUDP(ctx, name, qtype, timeout)
	if err == nil && resp.Header.TC {
		m.tcpFallbacks.Inc()
		resp, err = c.exchangeTCP(ctx, name, qtype, timeout)
	}
	sp.End()
	if err != nil {
		m.errors.Inc()
		return nil, err
	}
	return resp, nil
}

func rcodeError(rcode uint8) error {
	switch rcode {
	case dnswire.RCodeNoError:
		return nil
	case dnswire.RCodeServFail:
		return ErrServFail
	case dnswire.RCodeNXDomain:
		return ErrNXDomain
	case dnswire.RCodeRefused:
		return ErrRefused
	default:
		return fmt.Errorf("resolver: RCODE %d", rcode)
	}
}

// deadline returns the attempt deadline: timeout from now, tightened to
// the context's own deadline when that is sooner.
func deadline(ctx context.Context, timeout time.Duration) time.Time {
	d := time.Now().Add(timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(d) {
		return dl
	}
	return d
}

func (c *Client) exchangeUDP(ctx context.Context, name string, qtype uint16, timeout time.Duration) (*dnswire.Message, error) {
	id := c.nextID()
	query, err := dnswire.NewQuery(id, name, qtype).Pack()
	if err != nil {
		return nil, err
	}
	dialer := &net.Dialer{Timeout: timeout}
	conn, err := dialer.DialContext(ctx, "udp", c.Server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(deadline(ctx, timeout)); err != nil {
		return nil, err
	}
	if _, err := conn.Write(query); err != nil {
		return nil, err
	}
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil, ErrTimeout
			}
			return nil, err
		}
		resp, err := dnswire.Unpack(buf[:n])
		if err != nil {
			return nil, err
		}
		if resp.Header.ID != id {
			// Stale or spoofed datagram on a connected UDP socket; keep
			// waiting for the matching one until the deadline fires.
			continue
		}
		return resp, nil
	}
}

func (c *Client) exchangeTCP(ctx context.Context, name string, qtype uint16, timeout time.Duration) (*dnswire.Message, error) {
	id := c.nextID()
	query, err := dnswire.NewQuery(id, name, qtype).Pack()
	if err != nil {
		return nil, err
	}
	dialer := &net.Dialer{Timeout: timeout}
	conn, err := dialer.DialContext(ctx, "tcp", c.Server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(deadline(ctx, timeout)); err != nil {
		return nil, err
	}
	framed := make([]byte, 2+len(query))
	framed[0] = byte(len(query) >> 8)
	framed[1] = byte(len(query))
	copy(framed[2:], query)
	if _, err := conn.Write(framed); err != nil {
		return nil, err
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	msg := make([]byte, int(lenBuf[0])<<8|int(lenBuf[1]))
	if _, err := io.ReadFull(conn, msg); err != nil {
		return nil, err
	}
	resp, err := dnswire.Unpack(msg)
	if err != nil {
		return nil, err
	}
	if resp.Header.ID != id {
		return nil, ErrIDMismatch
	}
	return resp, nil
}

// LookupA resolves a name to its IPv4 addresses, following CNAMEs included
// in the answer section.
func (c *Client) LookupA(name string) ([]netip.Addr, error) {
	return c.LookupAContext(context.Background(), name)
}

// LookupAContext is LookupA bounded by a context.
func (c *Client) LookupAContext(ctx context.Context, name string) ([]netip.Addr, error) {
	resp, err := c.ExchangeContext(ctx, name, dnswire.TypeA)
	if err != nil {
		return nil, err
	}
	var out []netip.Addr
	for _, r := range resp.Answers {
		if r.Type == dnswire.TypeA {
			out = append(out, r.Addr)
		}
	}
	return out, nil
}

// LookupNS resolves a name's authoritative nameservers.
func (c *Client) LookupNS(name string) ([]string, error) {
	targets, _, err := c.LookupNSGlued(name)
	return targets, err
}

// LookupNSGlued resolves a name's authoritative nameservers and also
// returns any glue addresses the server volunteered in the additional
// section, keyed by nameserver host. Callers can skip the follow-up A
// lookup for glued targets.
func (c *Client) LookupNSGlued(name string) (targets []string, glue map[string][]netip.Addr, err error) {
	return c.LookupNSGluedContext(context.Background(), name)
}

// LookupNSGluedContext is LookupNSGlued bounded by a context.
func (c *Client) LookupNSGluedContext(ctx context.Context, name string) (targets []string, glue map[string][]netip.Addr, err error) {
	resp, err := c.ExchangeContext(ctx, name, dnswire.TypeNS)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range resp.Answers {
		if r.Type == dnswire.TypeNS {
			targets = append(targets, r.Target)
		}
	}
	for _, r := range resp.Additionals {
		if r.Type == dnswire.TypeA || r.Type == dnswire.TypeAAAA {
			if glue == nil {
				glue = make(map[string][]netip.Addr)
			}
			glue[r.Name] = append(glue[r.Name], r.Addr)
		}
	}
	return targets, glue, nil
}
