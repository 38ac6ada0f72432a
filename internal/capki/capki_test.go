package capki

import (
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"sync"
	"testing"
)

func TestNewAuthorityProducesCAroot(t *testing.T) {
	ca, err := NewAuthority("Let's Encrypt", "US")
	if err != nil {
		t.Fatal(err)
	}
	root := ca.Certificate()
	if !root.IsCA {
		t.Error("root is not a CA certificate")
	}
	if got := root.Subject.Organization; len(got) != 1 || got[0] != "Let's Encrypt" {
		t.Errorf("subject org = %v", got)
	}
	if got := root.Subject.Country; len(got) != 1 || got[0] != "US" {
		t.Errorf("subject country = %v", got)
	}
}

func TestNewAuthorityRejectsEmptyName(t *testing.T) {
	if _, err := NewAuthority("", "US"); err == nil {
		t.Error("empty name accepted")
	}
}

func TestIssueLeafVerifiesAgainstRoot(t *testing.T) {
	ca, err := NewAuthority("DigiCert", "US")
	if err != nil {
		t.Fatal(err)
	}
	leafCert, err := ca.IssueLeaf("www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	leaf := leafCert.Leaf
	if leaf.Subject.CommonName != "www.example.com" {
		t.Errorf("CN = %q", leaf.Subject.CommonName)
	}
	if len(leaf.DNSNames) != 1 || leaf.DNSNames[0] != "www.example.com" {
		t.Errorf("SANs = %v", leaf.DNSNames)
	}

	roots := x509.NewCertPool()
	roots.AddCert(ca.Certificate())
	if _, err := leaf.Verify(x509.VerifyOptions{Roots: roots, DNSName: "www.example.com"}); err != nil {
		t.Errorf("leaf does not verify against its root: %v", err)
	}
	// Wrong hostname must fail.
	if _, err := leaf.Verify(x509.VerifyOptions{Roots: roots, DNSName: "other.com"}); err == nil {
		t.Error("leaf verified for wrong hostname")
	}
}

func TestSerialsAreUnique(t *testing.T) {
	ca, err := NewAuthority("Sectigo", "US")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		cert, err := ca.IssueLeaf("x.example")
		if err != nil {
			t.Fatal(err)
		}
		s := cert.Leaf.SerialNumber.String()
		if seen[s] {
			t.Fatalf("duplicate serial %s", s)
		}
		seen[s] = true
	}
}

func TestOwnerDB(t *testing.T) {
	ca, err := NewAuthority("GlobalSign", "BE")
	if err != nil {
		t.Fatal(err)
	}
	db := NewOwnerDB()
	db.RegisterAuthority(ca)
	db.Register("GTS CA 1C3", Owner{Name: "Google", Country: "US"})

	leafCert, err := ca.IssueLeaf("site.be")
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := db.OwnerOf(leafCert.Leaf)
	if !ok || owner.Name != "GlobalSign" || owner.Country != "BE" {
		t.Errorf("owner = %+v %v", owner, ok)
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d", db.Len())
	}
	if _, ok := db.OwnerOf(nil); ok {
		t.Error("nil leaf resolved")
	}
}

func TestOwnerDBUnknownIssuer(t *testing.T) {
	other, err := NewAuthority("Unknown CA", "ZZ")
	if err != nil {
		t.Fatal(err)
	}
	leafCert, err := other.IssueLeaf("x.test")
	if err != nil {
		t.Fatal(err)
	}
	db := NewOwnerDB()
	if _, ok := db.OwnerOf(leafCert.Leaf); ok {
		t.Error("unknown issuer resolved")
	}
}

func TestOwnerDBZeroValue(t *testing.T) {
	var db OwnerDB
	db.Register("X", Owner{Name: "X Org", Country: "US"})
	if db.Len() != 1 {
		t.Error("zero-value OwnerDB unusable")
	}
}

// TestOwnerDBConcurrentRegister: lookups racing Register see either the
// old or the new map, never a torn one, and every registration lands.
func TestOwnerDBConcurrentRegister(t *testing.T) {
	var db OwnerDB
	db.Register("Base", Owner{Name: "Base", Country: "US"})
	base := &x509.Certificate{Issuer: pkix.Name{Organization: []string{"Base"}}}
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				db.Register(fmt.Sprintf("CA %d-%d", w, i), Owner{Name: "X", Country: "DE"})
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if o, ok := db.OwnerOf(base); !ok || o.Name != "Base" {
					t.Errorf("lookup during Register = %+v %v", o, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := db.Len(), 1+writers*perWriter; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}

// TestOwnerIndexMatchesOwnerOf: an issuer's owner ID names the owner
// OwnerOf gives a leaf naming only that organization, including the
// fall-back to an owner registered under the empty common name.
func TestOwnerIndexMatchesOwnerOf(t *testing.T) {
	db := NewOwnerDB()
	db.Register("R3", Owner{Name: "Let's Encrypt", Country: "US"})
	db.Register("GTS CA 1C3", Owner{Name: "Google Trust Services", Country: "US"})
	db.Register("R3", Owner{Name: "ISRG", Country: "US"}) // re-registered: same ID, new owner
	check := func() {
		t.Helper()
		x := db.Index()
		for _, org := range []string{"R3", "GTS CA 1C3", "Unknown CA"} {
			want, ok := db.OwnerOf(&x509.Certificate{Issuer: pkix.Name{Organization: []string{org}}})
			id := x.Lookup(org)
			if ok != (id >= 0) || ok && x.Owners()[id] != want {
				t.Errorf("%q: OwnerOf = %+v %v, Lookup = %d", org, want, ok, id)
			}
		}
	}
	check()
	if n := len(db.Index().Owners()); n != 2 {
		t.Errorf("%d owner IDs for two issuers", n)
	}
	db.Register("", Owner{Name: "Anonymous", Country: "ZZ"})
	check()
}
