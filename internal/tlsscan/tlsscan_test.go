package tlsscan

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"io"
	"net"
	"testing"
	"time"

	"github.com/webdep/webdep/internal/capki"
	"github.com/webdep/webdep/internal/obs"
)

// startTLSServer runs a minimal TLS listener presenting certs selected by
// SNI, returning its address.
func startTLSServer(t *testing.T, certs map[string]tls.Certificate) string {
	t.Helper()
	conf := &tls.Config{
		GetCertificate: func(hello *tls.ClientHelloInfo) (*tls.Certificate, error) {
			if c, ok := certs[hello.ServerName]; ok {
				return &c, nil
			}
			// Default: first cert.
			for _, c := range certs {
				return &c, nil
			}
			return nil, nil
		},
		MinVersion: tls.VersionTLS12,
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", conf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				// Drive the handshake, then hold briefly.
				if tc, ok := c.(*tls.Conn); ok {
					tc.Handshake()
				}
				time.Sleep(50 * time.Millisecond)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestScanLabelsCAOwner(t *testing.T) {
	le, err := capki.NewAuthority("Let's Encrypt", "US")
	if err != nil {
		t.Fatal(err)
	}
	asseco, err := capki.NewAuthority("Asseco", "PL")
	if err != nil {
		t.Fatal(err)
	}
	certLE, err := le.IssueLeaf("global.example")
	if err != nil {
		t.Fatal(err)
	}
	certAsseco, err := asseco.IssueLeaf("polish.example")
	if err != nil {
		t.Fatal(err)
	}
	addr := startTLSServer(t, map[string]tls.Certificate{
		"global.example": certLE,
		"polish.example": certAsseco,
	})

	db := capki.NewOwnerDB()
	db.RegisterAuthority(le)
	db.RegisterAuthority(asseco)
	scanner := New(db)

	res, err := scanner.Scan(addr, "global.example")
	if err != nil {
		t.Fatal(err)
	}
	if res.CAOwner != "Let's Encrypt" || res.CAOwnerCountry != "US" {
		t.Errorf("owner = %q/%q", res.CAOwner, res.CAOwnerCountry)
	}
	if res.Leaf.Subject.CommonName != "global.example" {
		t.Errorf("leaf CN = %q", res.Leaf.Subject.CommonName)
	}
	if res.Version < tls.VersionTLS12 {
		t.Errorf("version = %x", res.Version)
	}

	res, err = scanner.Scan(addr, "polish.example")
	if err != nil {
		t.Fatal(err)
	}
	if res.CAOwner != "Asseco" || res.CAOwnerCountry != "PL" {
		t.Errorf("owner = %q/%q", res.CAOwner, res.CAOwnerCountry)
	}
}

func TestScanUnknownIssuerYieldsEmptyOwner(t *testing.T) {
	rogue, err := capki.NewAuthority("Rogue CA", "ZZ")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := rogue.IssueLeaf("rogue.example")
	if err != nil {
		t.Fatal(err)
	}
	addr := startTLSServer(t, map[string]tls.Certificate{"rogue.example": cert})
	scanner := New(capki.NewOwnerDB()) // empty DB
	res, err := scanner.Scan(addr, "rogue.example")
	if err != nil {
		t.Fatal(err)
	}
	if res.CAOwner != "" {
		t.Errorf("owner = %q, want empty", res.CAOwner)
	}
}

func TestScanWithRootVerification(t *testing.T) {
	ca, err := capki.NewAuthority("DigiCert", "US")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueLeaf("secure.example")
	if err != nil {
		t.Fatal(err)
	}
	addr := startTLSServer(t, map[string]tls.Certificate{"secure.example": cert})

	roots := x509.NewCertPool()
	roots.AddCert(ca.Certificate())
	db := capki.NewOwnerDB()
	db.RegisterAuthority(ca)
	scanner := New(db)
	scanner.Roots = roots

	if _, err := scanner.Scan(addr, "secure.example"); err != nil {
		t.Errorf("verified scan failed: %v", err)
	}

	// A different trust store must reject the chain.
	other, err := capki.NewAuthority("Other", "US")
	if err != nil {
		t.Fatal(err)
	}
	wrongRoots := x509.NewCertPool()
	wrongRoots.AddCert(other.Certificate())
	scanner.Roots = wrongRoots
	if _, err := scanner.Scan(addr, "secure.example"); err == nil {
		t.Error("scan verified against wrong root")
	}
}

func TestScanConnectionRefused(t *testing.T) {
	scanner := New(nil)
	scanner.Timeout = 300 * time.Millisecond
	if _, err := scanner.Scan("127.0.0.1:1", "x.example"); err == nil {
		t.Error("scan of closed port succeeded")
	}
}

func TestScanNilOwnerDB(t *testing.T) {
	ca, err := capki.NewAuthority("X", "US")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueLeaf("nodb.example")
	if err != nil {
		t.Fatal(err)
	}
	addr := startTLSServer(t, map[string]tls.Certificate{"nodb.example": cert})
	scanner := &Scanner{} // zero value + nil DB: must still scan
	res, err := scanner.Scan(addr, "nodb.example")
	if err != nil {
		t.Fatal(err)
	}
	if res.CAOwner != "" || res.Leaf == nil {
		t.Errorf("res = %+v", res)
	}
}

func TestScanContextCancellation(t *testing.T) {
	// A listener that accepts but never handshakes: only the context can
	// end the scan early.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the connection open, say nothing
		}
	}()

	scanner := New(nil)
	scanner.Timeout = 10 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := scanner.ScanContext(ctx, ln.Addr().String(), "x.example"); err == nil {
		t.Fatal("cancelled scan succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

// TestScanConnHandsBackOpenSession: ScanConn labels like Scan and returns
// the session still open — the server can be spoken to over it — while a
// scan that fails verification closes the connection itself. Either way one
// handshake is counted, and the scan's span has ended before the caller
// gets to write.
func TestScanConnHandsBackOpenSession(t *testing.T) {
	ca, err := capki.NewAuthority("DigiCert", "US")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueLeaf("kept.example")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Each accepted connection echoes what it reads until the client closes,
	// then reports how it ended.
	ended := make(chan error, 2)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, err := io.Copy(c, c)
				c.Close()
				ended <- err
			}()
		}
	}()

	db := capki.NewOwnerDB()
	db.RegisterAuthority(ca)
	r := obs.NewRegistry()
	scanner := New(db)
	scanner.Obs = r

	res, conn, err := scanner.ScanConn(context.Background(), ln.Addr().String(), "kept.example")
	if err != nil {
		t.Fatal(err)
	}
	if res.CAOwner != "DigiCert" {
		t.Errorf("owner = %q", res.CAOwner)
	}
	if got := r.Timing("probe.tls.ms").Snapshot().Count; got != 1 {
		t.Errorf("probe.tls.ms count = %d before the caller used the session, want 1", got)
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatalf("write over the kept session: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo over the kept session = %q, %v", buf, err)
	}
	conn.Close()
	if err := <-ended; err != nil {
		t.Errorf("server saw the session end with %v, want a clean close", err)
	}

	other, err := capki.NewAuthority("Other", "US")
	if err != nil {
		t.Fatal(err)
	}
	scanner.Roots = x509.NewCertPool()
	scanner.Roots.AddCert(other.Certificate())
	if res, conn, err := scanner.ScanConn(context.Background(), ln.Addr().String(), "kept.example"); err == nil || conn != nil || res != nil {
		t.Fatalf("ScanConn against a foreign root = %v, %v, %v; want only an error", res, conn, err)
	}
	select {
	case <-ended: // the failed scan closed its own connection
	case <-time.After(2 * time.Second):
		t.Error("connection of the failed scan still open")
	}
	for name, want := range map[string]int64{
		"probe.tls.scans": 2, "probe.tls.handshakes": 2, "probe.tls.errors": 1,
	} {
		if got := r.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
