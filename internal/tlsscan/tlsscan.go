// Package tlsscan performs TLS handshakes against web servers and labels
// the CA ownership of the leaf certificates they present — the ZGrab2 +
// CCADB step of the paper's pipeline, run against the toolkit's in-process
// HTTPS endpoints.
package tlsscan

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/webdep/webdep/internal/capki"
	"github.com/webdep/webdep/internal/obs"
)

// Result is the outcome of one TLS scan.
type Result struct {
	// Leaf is the server's end-entity certificate.
	Leaf *x509.Certificate
	// CAOwner and CAOwnerCountry identify the owner of the issuing CA per
	// the owner database; empty when the issuer is unknown.
	CAOwner        string
	CAOwnerCountry string
	// Version and CipherSuite describe the negotiated session.
	Version     uint16
	CipherSuite uint16
}

// ErrNoCertificate is returned when the handshake completes without a peer
// certificate (cannot happen with standard TLS servers, kept for safety).
var ErrNoCertificate = errors.New("tlsscan: no peer certificate")

// Scanner dials servers and records their certificate chain. The zero
// value is unusable; construct with New.
type Scanner struct {
	// Owners resolves issuers to CA owners. Optional; when nil, results
	// carry an empty owner.
	Owners *capki.OwnerDB
	// Timeout bounds dial + handshake. Default 3s.
	Timeout time.Duration
	// Roots optionally verifies chains against a trust store. When nil the
	// scanner accepts any certificate (the paper labels what sites serve,
	// not whether browsers would trust it).
	Roots *x509.CertPool
	// Obs selects the metrics registry the scanner's "probe.tls.*"
	// instruments record to; nil means obs.Default().
	Obs *obs.Registry

	metricsOnce sync.Once
	metrics     *scanMetrics
}

// scanMetrics holds the hoisted per-scan instruments: handshake latency
// plus scan/error counters, and the count of handshakes completed through
// Dial — by a scan or by anyone else who needed a session to the site.
type scanMetrics struct {
	scanMS     *obs.Histogram
	scans      *obs.Counter
	errors     *obs.Counter
	handshakes *obs.Counter
}

func (s *Scanner) m() *scanMetrics {
	s.metricsOnce.Do(func() {
		r := s.Obs
		if r == nil {
			r = obs.Default()
		}
		s.metrics = &scanMetrics{
			scanMS:     r.Timing("probe.tls.ms"),
			scans:      r.Counter("probe.tls.scans"),
			errors:     r.Counter("probe.tls.errors"),
			handshakes: r.Counter("probe.tls.handshakes"),
		}
	})
	return s.metrics
}

// New returns a scanner using the given owner database.
func New(owners *capki.OwnerDB) *Scanner {
	return &Scanner{Owners: owners, Timeout: 3 * time.Second}
}

// Scan connects to addr ("host:port"), handshakes with the given SNI
// serverName, and labels the leaf certificate's CA owner.
func (s *Scanner) Scan(addr, serverName string) (*Result, error) {
	return s.ScanContext(context.Background(), addr, serverName)
}

// ScanContext is Scan bounded by a context: cancelling ctx aborts the dial
// and handshake, so crawl-level retry policies and cancellation propagate
// into in-flight scans.
func (s *Scanner) ScanContext(ctx context.Context, addr, serverName string) (*Result, error) {
	res, conn, err := s.ScanConn(ctx, addr, serverName)
	if err != nil {
		return nil, err
	}
	conn.Close()
	return res, nil
}

// Dial connects to addr and completes a TLS handshake with the given SNI,
// accepting whatever chain the site serves. It is the one place the live
// path opens a TLS session, so "probe.tls.handshakes" counts every
// completed client handshake whoever asked for it. Timeout bounds dial +
// handshake; the context's expiry does not affect the returned connection.
func (s *Scanner) Dial(ctx context.Context, addr, serverName string) (*tls.Conn, error) {
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	conf := &tls.Config{
		ServerName: serverName,
		// The measurement must observe whatever certificate the site
		// serves, trusted or not; verification, when requested, happens
		// explicitly in ScanConn against the configured roots.
		InsecureSkipVerify: true,
		MinVersion:         tls.VersionTLS12,
	}
	dialer := &tls.Dialer{NetDialer: &net.Dialer{Timeout: timeout}, Config: conf}
	nc, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tlsscan: %s (sni %s): %w", addr, serverName, err)
	}
	s.m().handshakes.Inc()
	return nc.(*tls.Conn), nil
}

// ScanConn is ScanContext that hands the open session back with the
// result, so a caller with more to ask of the site (the crawl's page fetch)
// does not pay a second handshake. The caller owns the connection and must
// close it; on error the connection is already closed and nil. The
// "probe.tls.ms" span covers dial, handshake and verification only — it
// has ended by the time the caller can write a byte.
func (s *Scanner) ScanConn(ctx context.Context, addr, serverName string) (res *Result, conn *tls.Conn, err error) {
	m := s.m()
	m.scans.Inc()
	sp := obs.StartSpan(m.scanMS)
	defer func() {
		sp.End()
		if err != nil {
			m.errors.Inc()
		}
	}()
	conn, err = s.Dial(ctx, addr, serverName)
	if err != nil {
		return nil, nil, err
	}
	if res, err = s.label(conn.ConnectionState(), serverName); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return res, conn, nil
}

// label reads the peer chain off a completed handshake, verifies it when
// Roots is set, and joins the leaf against the owner database.
func (s *Scanner) label(state tls.ConnectionState, serverName string) (*Result, error) {
	if len(state.PeerCertificates) == 0 {
		return nil, ErrNoCertificate
	}
	leaf := state.PeerCertificates[0]

	if s.Roots != nil {
		inter := x509.NewCertPool()
		for _, c := range state.PeerCertificates[1:] {
			inter.AddCert(c)
		}
		if _, err := leaf.Verify(x509.VerifyOptions{
			Roots:         s.Roots,
			Intermediates: inter,
			DNSName:       serverName,
		}); err != nil {
			return nil, fmt.Errorf("tlsscan: chain verification: %w", err)
		}
	}

	res := &Result{
		Leaf:        leaf,
		Version:     state.Version,
		CipherSuite: state.CipherSuite,
	}
	if s.Owners != nil {
		if owner, ok := s.Owners.OwnerOf(leaf); ok {
			res.CAOwner = owner.Name
			res.CAOwnerCountry = owner.Country
		}
	}
	return res, nil
}
