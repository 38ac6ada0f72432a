// Package liveworld serves a synthetic world over real network protocols:
// an authoritative DNS server answering for every site and nameserver in
// the world, and an HTTPS endpoint presenting each site's certificate
// (issued by the world's CA for that site) and a small page in the site's
// language. The live measurement pipeline crawls these endpoints exactly
// as the paper's tooling crawled the public Internet.
//
// Live serving is intended for example-scale worlds (a few countries,
// hundreds of sites); the fast in-memory pipeline covers full-scale runs.
package liveworld

import (
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"sync"

	"github.com/webdep/webdep/internal/capki"
	"github.com/webdep/webdep/internal/dnsserver"
	"github.com/webdep/webdep/internal/dnswire"
	"github.com/webdep/webdep/internal/worldgen"
)

// nsZone is the synthetic apex under which nameserver host names live.
const nsZone = "nsinfra"

// Endpoints exposes a served world's addresses.
type Endpoints struct {
	// DNSAddr is the authoritative server's "host:port" (UDP and TCP).
	DNSAddr string
	// TLSAddr is the HTTPS endpoint's "host:port"; select sites via SNI.
	TLSAddr string

	dns  *dnsserver.Server
	http *http.Server
	ln   net.Listener
	wg   sync.WaitGroup
}

// Close shuts both servers down.
func (e *Endpoints) Close() error {
	var firstErr error
	if e.dns != nil {
		if err := e.dns.Close(); err != nil {
			firstErr = err
		}
	}
	if e.ln != nil {
		if err := e.ln.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.wg.Wait()
	return firstErr
}

// Serve starts DNS and HTTPS servers for the world on loopback.
func Serve(w *worldgen.World) (*Endpoints, error) {
	ep := &Endpoints{}

	dns, err := buildDNS(w)
	if err != nil {
		return nil, err
	}
	dnsAddr, err := dns.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep.dns = dns
	ep.DNSAddr = dnsAddr.String()

	issuer, err := newIssuer(w)
	if err != nil {
		dns.Close()
		return nil, err
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{
		GetCertificate: issuer.certificateFor,
		MinVersion:     tls.VersionTLS12,
	})
	if err != nil {
		dns.Close()
		return nil, err
	}
	ep.ln = ln
	ep.TLSAddr = ln.Addr().String()
	ep.http = &http.Server{Handler: siteHandler(w)}
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		ep.http.Serve(ln) // returns when the listener closes
	}()
	return ep, nil
}

// Zones builds the authoritative zone set for a world: one zone per TLD in
// use plus the nsinfra zone for nameserver hosts, keyed by origin. Exposed
// so callers can dump the zones as master files (webdep export -zones) or load
// them into their own servers.
func Zones(w *worldgen.World) (map[string]*dnsserver.Zone, error) {
	zones := map[string]*dnsserver.Zone{}
	zoneFor := func(origin string) *dnsserver.Zone {
		z, ok := zones[origin]
		if !ok {
			z = dnsserver.NewZone(origin)
			zones[origin] = z
		}
		return z
	}

	nsNames := map[string]netip.Addr{} // ns host name → address
	for _, raw := range w.Raw {
		for _, site := range raw {
			tld := site.Domain[strings.LastIndexByte(site.Domain, '.')+1:]
			z := zoneFor(tld)
			if err := z.Add(dnswire.Record{
				Name: site.Domain, Type: dnswire.TypeA, TTL: 300, Addr: site.HostIP,
			}); err != nil {
				return nil, err
			}
			nsName := nsHostName(w, site.NSIP)
			if err := z.Add(dnswire.Record{
				Name: site.Domain, Type: dnswire.TypeNS, TTL: 300, Target: nsName,
			}); err != nil {
				return nil, err
			}
			nsNames[nsName] = site.NSIP
		}
	}
	infra := zoneFor(nsZone)
	for name, addr := range nsNames {
		if err := infra.Add(dnswire.Record{
			Name: name, Type: dnswire.TypeA, TTL: 300, Addr: addr,
		}); err != nil {
			return nil, err
		}
	}
	return zones, nil
}

// buildDNS loads the world's zones into an authoritative server.
func buildDNS(w *worldgen.World) (*dnsserver.Server, error) {
	zones, err := Zones(w)
	if err != nil {
		return nil, err
	}
	srv := dnsserver.NewServer(nil)
	for _, z := range zones {
		srv.AddZone(z)
	}
	return srv, nil
}

// nsHostName derives the nameserver host name for an NS address:
// ns1.<provider-slug>.<continent>.nsinfra, so each provider presents one
// NS host per serving continent.
func nsHostName(w *worldgen.World, nsIP netip.Addr) string {
	providerName := "unknown"
	if org, ok := w.ASTable.LookupOrg(nsIP); ok {
		providerName = org.Name
	}
	continent := "xx"
	if loc, ok := w.GeoDB.Lookup(nsIP); ok && loc.Continent != "" {
		continent = strings.ToLower(loc.Continent)
	}
	return fmt.Sprintf("ns1.%s.%s.%s", slug(providerName), continent, nsZone)
}

// slug converts a provider name to a DNS label.
func slug(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ', r == '.', r == '-', r == '_':
			b.WriteByte('-')
		}
	}
	out := strings.Trim(b.String(), "-")
	if out == "" {
		out = "provider"
	}
	return out
}

// issuer lazily instantiates one capki.Authority per CA and caches issued
// leaves per domain.
type issuer struct {
	world *worldgen.World

	mu          sync.Mutex
	authorities map[string]*capki.Authority
	cache       map[string]*tls.Certificate
	siteCA      map[string]string // domain → CA name
	fallback    *capki.Authority
}

func newIssuer(w *worldgen.World) (*issuer, error) {
	fallback, err := capki.NewAuthority("Unknown Issuer", "US")
	if err != nil {
		return nil, err
	}
	iss := &issuer{
		world:       w,
		authorities: make(map[string]*capki.Authority),
		cache:       make(map[string]*tls.Certificate),
		siteCA:      make(map[string]string),
		fallback:    fallback,
	}
	for _, raw := range w.Raw {
		for _, site := range raw {
			iss.siteCA[site.Domain] = site.IssuerOrg
		}
	}
	return iss, nil
}

func (iss *issuer) certificateFor(hello *tls.ClientHelloInfo) (*tls.Certificate, error) {
	domain := strings.ToLower(hello.ServerName)
	iss.mu.Lock()
	defer iss.mu.Unlock()
	if cert, ok := iss.cache[domain]; ok {
		return cert, nil
	}
	caName := iss.siteCA[domain]
	var auth *capki.Authority
	if caName == "" {
		auth = iss.fallback
	} else {
		var ok bool
		auth, ok = iss.authorities[caName]
		if !ok {
			country := "US"
			for _, info := range iss.world.CAs {
				if info.Name == caName {
					country = info.Country
					break
				}
			}
			created, err := capki.NewAuthority(caName, country)
			if err != nil {
				return nil, err
			}
			iss.authorities[caName] = created
			auth = created
		}
	}
	cert, err := auth.IssueLeaf(domain)
	if err != nil {
		return nil, err
	}
	iss.cache[domain] = &cert
	return &cert, nil
}

// languageSamples are short page bodies per language, chosen so the
// toolkit's language detector recovers the intended label from live pages.
var languageSamples = map[string]string{
	"en": "the news and the weather for you in the morning with that story",
	"fr": "le site des nouvelles pour vous dans la page avec une histoire",
	"de": "der die das und ist nicht mit für auf ein Nachrichtenportal",
	"es": "el sitio de las noticias es una para con por del que pagina",
	"pt": "o site das notícias é uma para com em do da não os artigos",
	"cs": "je na se že to jsou ale jako podle byl zpravodajský web",
	"sk": "je na sa že to sú ale ako podľa bol spravodajský web",
	"ru": "и в не на что это как его для по новости сайта сегодня",
	"uk": "і в не на що це як його для по є та новини сайту",
	"ar": "مرحبا بكم في موقعنا المعلومات في الصفحة من الاخبار",
	"fa": "به وبگاه ما خوش آمدید پیگیری گزارش چاپ ژورنال اخبار",
	"th": "ยินดีต้อนรับสู่เว็บไซต์ของเรา ข่าวสาร บริการ ข้อมูล",
	"el": "Καλώς ήρθατε στον ιστότοπό μας νέα και πληροφορίες",
	"he": "ברוכים הבאים לאתר שלנו חדשות ומידע",
	"ko": "우리 웹사이트에 오신 것을 환영합니다 뉴스와 정보",
	"ja": "ようこそ私たちのウェブサイトへ ニュースと情報",
	"zh": "欢迎来到我们的网站 新闻 信息 服务 内容",
	"hi": "हमारी वेबसाइट में आपका स्वागत है समाचार और जानकारी",
}

// siteHandler serves each site's page: a body in the site's language.
func siteHandler(w *worldgen.World) http.Handler {
	langs := make(map[string]string)
	for _, raw := range w.Raw {
		for _, site := range raw {
			langs[site.Domain] = site.Language
		}
	}
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		domain := r.Host
		if r.TLS != nil && r.TLS.ServerName != "" {
			domain = r.TLS.ServerName
		}
		domain = strings.ToLower(strings.TrimSuffix(domain, "."))
		lang, ok := langs[domain]
		if !ok {
			http.NotFound(rw, r)
			return
		}
		body, ok := languageSamples[lang]
		if !ok {
			body = languageSamples["en"]
		}
		rw.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(rw, "<html><body><p>"+body+"</p></body></html>")
	})
}
