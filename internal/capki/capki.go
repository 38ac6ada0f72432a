// Package capki is the toolkit's synthetic WebPKI: certificate authorities
// that issue real ECDSA X.509 leaf certificates, plus a CCADB-like owner
// database mapping issuers to CA owners — the substitute for the paper's
// ZGrab2 + Common CA Database pipeline.
//
// Everything is real crypto from the standard library, so the TLS scanner
// (internal/tlsscan) performs genuine handshakes and parses genuine leaves;
// only the trust anchors are generated rather than publicly trusted.
package capki

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Authority is one certificate authority: a self-signed root that issues
// leaf certificates.
type Authority struct {
	// Name is the CA owner name as it would appear in CCADB (e.g.
	// "Let's Encrypt").
	Name string
	// Country is the owner's home country (ISO alpha-2).
	Country string

	cert *x509.Certificate
	key  *ecdsa.PrivateKey

	mu     sync.Mutex
	serial int64
}

// NewAuthority generates a root CA. Generation uses P-256, the cheapest
// curve the TLS stack accepts, because worlds instantiate dozens of CAs.
func NewAuthority(name, country string) (*Authority, error) {
	if name == "" {
		return nil, fmt.Errorf("capki: empty CA name")
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("capki: generating CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject: pkix.Name{
			CommonName:   name + " Root",
			Organization: []string{name},
			Country:      []string{country},
		},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("capki: self-signing root: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("capki: parsing root: %w", err)
	}
	return &Authority{Name: name, Country: country, cert: cert, key: key, serial: 1}, nil
}

// Certificate returns the CA's root certificate.
func (a *Authority) Certificate() *x509.Certificate { return a.cert }

// IssueLeaf creates a TLS server certificate for the domain (and
// 127.0.0.1/::1 so in-process servers pass SNI-less dials), signed by the
// authority.
func (a *Authority) IssueLeaf(domain string) (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("capki: generating leaf key: %w", err)
	}
	a.mu.Lock()
	a.serial++
	serial := a.serial
	a.mu.Unlock()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject:      pkix.Name{CommonName: domain},
		DNSNames:     []string{domain},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(90 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, a.cert, &key.PublicKey, a.key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("capki: issuing leaf for %s: %w", domain, err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("capki: parsing leaf: %w", err)
	}
	return tls.Certificate{
		Certificate: [][]byte{der, a.cert.Raw},
		PrivateKey:  key,
		Leaf:        leaf,
	}, nil
}

// Owner identifies who operates a CA, per the CCADB notion of CA ownership
// the paper uses (Ma et al.): multiple issuing organizations can roll up to
// one owner.
type Owner struct {
	Name    string
	Country string
}

// OwnerDB maps issuer organizations to CA owners — the CCADB substitute.
// The zero value is empty and usable. Lookups read an immutable index
// through one atomic load, so concurrent enrichment workers share no
// written cache line; Register, which only world building calls, publishes
// a copy with the new entry.
type OwnerDB struct {
	mu    sync.Mutex // serializes Register's copy-on-write
	index atomic.Pointer[OwnerIndex]
}

// OwnerIndex is the database as of one moment, with owners by dense ID, so
// a caller joining many sites can keep its own per-owner table indexed by
// ID. Every registered issuer organization has its own ID. An OwnerIndex is
// immutable.
type OwnerIndex struct {
	byIssuer map[string]int32
	owners   []Owner // by ID, in registration order
}

// NewOwnerDB returns an empty database.
func NewOwnerDB() *OwnerDB {
	return &OwnerDB{}
}

// Index returns the database's current index.
func (db *OwnerDB) Index() *OwnerIndex {
	if x := db.index.Load(); x != nil {
		return x
	}
	return &OwnerIndex{}
}

// Register records that certificates issued under the given organization
// name belong to the owner.
func (db *OwnerDB) Register(issuerOrg string, owner Owner) {
	db.mu.Lock()
	defer db.mu.Unlock()
	old := db.Index()
	next := &OwnerIndex{byIssuer: make(map[string]int32, len(old.byIssuer)+1), owners: slices.Clone(old.owners)}
	for org, id := range old.byIssuer {
		next.byIssuer[org] = id
	}
	if id, ok := next.byIssuer[issuerOrg]; ok {
		next.owners[id] = owner
	} else {
		next.byIssuer[issuerOrg] = int32(len(next.owners))
		next.owners = append(next.owners, owner)
	}
	db.index.Store(next)
}

// RegisterAuthority is a convenience that maps an Authority's issuing
// organization to itself as owner.
func (db *OwnerDB) RegisterAuthority(a *Authority) {
	db.Register(a.Name, Owner{Name: a.Name, Country: a.Country})
}

// OwnerOf resolves a parsed leaf certificate to its CA owner via the
// issuer's organization (falling back to the issuer CN when the
// organization is absent).
func (db *OwnerDB) OwnerOf(leaf *x509.Certificate) (Owner, bool) {
	if leaf == nil {
		return Owner{}, false
	}
	x := db.Index()
	for _, org := range leaf.Issuer.Organization {
		if id, ok := x.byIssuer[org]; ok {
			return x.owners[id], true
		}
	}
	if id, ok := x.byIssuer[leaf.Issuer.CommonName]; ok {
		return x.owners[id], true
	}
	return Owner{}, false
}

// Owners returns the owners by ID. The caller must not modify it.
func (x *OwnerIndex) Owners() []Owner { return x.owners }

// Lookup returns the ID of the owner OwnerOf gives a leaf whose issuer
// names only the organization issuerOrg (and no common name), or -1 when
// it has none.
func (x *OwnerIndex) Lookup(issuerOrg string) int32 {
	if id, ok := x.byIssuer[issuerOrg]; ok {
		return id
	}
	if id, ok := x.byIssuer[""]; ok {
		return id
	}
	return -1
}

// Len reports the number of registered issuer organizations.
func (db *OwnerDB) Len() int {
	return len(db.Index().byIssuer)
}
