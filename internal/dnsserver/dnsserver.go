// Package dnsserver is an in-process authoritative DNS server speaking the
// dnswire format over real UDP and TCP sockets. The synthetic world's zones
// are loaded into one or more servers, and the resolver crawls them exactly
// as the paper's ZDNS deployment crawled the public DNS.
package dnsserver

import (
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/webdep/webdep/internal/dnswire"
)

// maxUDPPayload is the classic RFC 1035 UDP limit; longer responses set TC
// and expect the client to retry over TCP.
const maxUDPPayload = 512

// Zone holds the authoritative records for a DNS subtree.
type Zone struct {
	// Origin is the zone apex, e.g. "example.com".
	Origin string

	mu      sync.RWMutex
	records map[recordKey][]dnswire.Record
	soa     *dnswire.Record
}

type recordKey struct {
	name string
	typ  uint16
}

// NewZone creates an empty zone rooted at origin.
func NewZone(origin string) *Zone {
	return &Zone{
		Origin:  canonical(origin),
		records: make(map[recordKey][]dnswire.Record),
	}
}

func canonical(name string) string {
	return strings.ToLower(strings.TrimSuffix(strings.TrimSpace(name), "."))
}

// Add inserts a record into the zone. The record name must fall inside the
// zone. SOA records additionally become the zone's negative-answer SOA.
func (z *Zone) Add(r dnswire.Record) error {
	r.Name = canonical(r.Name)
	if r.Class == 0 {
		r.Class = dnswire.ClassIN
	}
	if r.Name != z.Origin && !strings.HasSuffix(r.Name, "."+z.Origin) {
		return fmt.Errorf("dnsserver: %q outside zone %q", r.Name, z.Origin)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	k := recordKey{r.Name, r.Type}
	z.records[k] = append(z.records[k], r)
	if r.Type == dnswire.TypeSOA {
		soa := r
		z.soa = &soa
	}
	return nil
}

// Lookup returns the records of the given name and type, following CNAMEs
// within the zone (chain included in the result, CNAME first).
func (z *Zone) Lookup(name string, qtype uint16) (answers []dnswire.Record, found bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	name = canonical(name)
	for depth := 0; depth < 8; depth++ {
		if rs, ok := z.records[recordKey{name, qtype}]; ok {
			answers = append(answers, rs...)
			return answers, true
		}
		if qtype != dnswire.TypeCNAME {
			if cn, ok := z.records[recordKey{name, dnswire.TypeCNAME}]; ok && len(cn) > 0 {
				answers = append(answers, cn[0])
				name = canonical(cn[0].Target)
				continue
			}
		}
		break
	}
	// Name exists with other types? Then NOERROR/NODATA rather than
	// NXDOMAIN.
	for k := range z.records {
		if k.name == name {
			return answers, true
		}
	}
	return answers, false
}

// DelegationFor returns the NS record set of the closest zone cut strictly
// below the apex that covers the name, or nil when the name is not under a
// delegation. A parent zone answers queries under such cuts with a
// referral instead of authoritative data.
func (z *Zone) DelegationFor(name string) []dnswire.Record {
	z.mu.RLock()
	defer z.mu.RUnlock()
	name = canonical(name)
	// Walk from the most specific suffix toward the apex, stopping before
	// the apex itself (apex NS records are authority, not delegation).
	for cut := name; cut != z.Origin && cut != ""; {
		if rs, ok := z.records[recordKey{cut, dnswire.TypeNS}]; ok {
			// The cut's own A/AAAA glue living in this zone does not make
			// the data authoritative; the NS set is the referral.
			return rs
		}
		dot := strings.IndexByte(cut, '.')
		if dot < 0 {
			break
		}
		cut = cut[dot+1:]
	}
	return nil
}

// SOA returns the zone's SOA record, or nil.
func (z *Zone) SOA() *dnswire.Record {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.soa
}

// Size returns the number of record sets in the zone.
func (z *Zone) Size() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.records)
}

// Server is an authoritative DNS server over a set of zones.
type Server struct {
	mu    sync.RWMutex
	zones map[string]*Zone

	udp      *net.UDPConn
	tcp      net.Listener
	wg       sync.WaitGroup
	closed   chan struct{}
	logger   *log.Logger
	closeOne sync.Once

	// Stats, updated atomically under mu for simplicity.
	statsMu sync.Mutex
	queries uint64
}

// NewServer creates a server with no zones. Pass a nil logger to discard
// logs.
func NewServer(logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Server{
		zones:  make(map[string]*Zone),
		closed: make(chan struct{}),
		logger: logger,
	}
}

// AddZone attaches a zone; longest-suffix matching selects the zone for
// each query.
func (s *Server) AddZone(z *Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin] = z
}

// zoneFor finds the most specific zone containing the name.
func (s *Server) zoneFor(name string) *Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	name = canonical(name)
	var best *Zone
	bestLen := -1
	for origin, z := range s.zones {
		if (name == origin || strings.HasSuffix(name, "."+origin)) && len(origin) > bestLen {
			best, bestLen = z, len(origin)
		}
	}
	return best
}

// Start binds UDP and TCP listeners on addr (e.g. "127.0.0.1:0") and begins
// serving. It returns the bound address, which carries the chosen port.
func (s *Server) Start(addr string) (net.Addr, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	// DNS needs UDP and TCP on the same port. With an ephemeral request
	// (port 0) the kernel picks the UDP port without regard to TCP, so the
	// matching TCP bind can collide with an unrelated listener; retry the
	// pair acquisition rather than failing on a roll of the dice.
	attempts := 1
	if udpAddr.Port == 0 {
		attempts = 10
	}
	for try := 0; ; try++ {
		s.udp, err = net.ListenUDP("udp", udpAddr)
		if err != nil {
			return nil, fmt.Errorf("dnsserver: %w", err)
		}
		// Bind TCP to the same port UDP got.
		s.tcp, err = net.Listen("tcp", s.udp.LocalAddr().String())
		if err == nil {
			break
		}
		s.udp.Close()
		if try+1 >= attempts {
			return nil, fmt.Errorf("dnsserver: %w", err)
		}
	}
	s.wg.Add(2)
	go s.serveUDP()
	go s.serveTCP()
	return s.udp.LocalAddr(), nil
}

// Close stops the listeners and waits for in-flight handlers.
func (s *Server) Close() error {
	s.closeOne.Do(func() {
		close(s.closed)
		if s.udp != nil {
			s.udp.Close()
		}
		if s.tcp != nil {
			s.tcp.Close()
		}
	})
	s.wg.Wait()
	return nil
}

// Queries reports how many DNS queries the server has answered.
func (s *Server) Queries() uint64 {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.queries
}

func (s *Server) countQuery() {
	s.statsMu.Lock()
	s.queries++
	s.statsMu.Unlock()
}

func (s *Server) serveUDP() {
	defer s.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, peer, err := s.udp.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.logger.Printf("udp read: %v", err)
				continue
			}
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		s.wg.Add(1)
		go func(pkt []byte, peer *net.UDPAddr) {
			defer s.wg.Done()
			resp := s.handle(pkt, maxUDPPayload)
			if resp != nil {
				if _, err := s.udp.WriteToUDP(resp, peer); err != nil {
					s.logger.Printf("udp write: %v", err)
				}
			}
		}(pkt, peer)
	}
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.logger.Printf("tcp accept: %v", err)
				continue
			}
		}
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer s.wg.Done()
			defer conn.Close()
			s.serveTCPConn(conn)
		}(conn)
	}
}

func (s *Server) serveTCPConn(conn net.Conn) {
	for {
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			return
		}
		var lenBuf [2]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		msgLen := int(lenBuf[0])<<8 | int(lenBuf[1])
		msg := make([]byte, msgLen)
		if _, err := io.ReadFull(conn, msg); err != nil {
			return
		}
		resp := s.handle(msg, 0) // no size limit on TCP
		if resp == nil {
			return
		}
		out := make([]byte, 2+len(resp))
		out[0] = byte(len(resp) >> 8)
		out[1] = byte(len(resp))
		copy(out[2:], resp)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// handle produces a response packet for a raw query, or nil if the input is
// unparseable beyond repair.
func (s *Server) handle(pkt []byte, sizeLimit int) []byte {
	query, err := dnswire.Unpack(pkt)
	if err != nil || len(query.Questions) == 0 || query.Header.QR {
		return nil
	}
	s.countQuery()
	q := query.Questions[0]

	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID: query.Header.ID, QR: true, AA: true,
			RD: query.Header.RD, Opcode: query.Header.Opcode,
		},
		Questions: []dnswire.Question{q},
	}

	switch {
	case query.Header.Opcode != 0:
		resp.Header.RCode = dnswire.RCodeNotImp
	case q.Class != dnswire.ClassIN:
		resp.Header.RCode = dnswire.RCodeRefused
	default:
		zone := s.zoneFor(q.Name)
		if zone == nil {
			resp.Header.RCode = dnswire.RCodeRefused
			break
		}
		answers, found := zone.Lookup(q.Name, q.Type)
		resp.Answers = answers
		if !found {
			// No local data: refer the client down a zone cut when one
			// covers the name, NXDOMAIN otherwise. (Local data wins over
			// delegation here — the in-process harness co-hosts parent and
			// child data in one zone; see TestReferralBelowZoneCut.)
			if delegation := zone.DelegationFor(q.Name); len(delegation) > 0 {
				resp.Header.AA = false
				resp.Authorities = append(resp.Authorities, delegation...)
				resp.Additionals = append(resp.Additionals, s.glueFor(delegation)...)
				break
			}
			resp.Header.RCode = dnswire.RCodeNXDomain
		}
		if len(answers) == 0 && len(resp.Authorities) == 0 {
			if soa := zone.SOA(); soa != nil {
				resp.Authorities = append(resp.Authorities, *soa)
			}
		}
		// Glue: for NS answers, include the nameservers' addresses in the
		// additional section when this server is authoritative for them,
		// sparing well-behaved resolvers a follow-up query.
		if q.Type == dnswire.TypeNS {
			resp.Additionals = append(resp.Additionals, s.glueFor(answers)...)
		}
	}

	data, err := resp.Pack()
	if err != nil {
		s.logger.Printf("pack response: %v", err)
		servfail := &dnswire.Message{
			Header:    dnswire.Header{ID: query.Header.ID, QR: true, RCode: dnswire.RCodeServFail},
			Questions: []dnswire.Question{q},
		}
		data, err = servfail.Pack()
		if err != nil {
			return nil
		}
	}
	if sizeLimit > 0 && len(data) > sizeLimit {
		// Truncate: header + question only, TC set.
		tc := &dnswire.Message{
			Header:    resp.Header,
			Questions: resp.Questions,
		}
		tc.Header.TC = true
		data, err = tc.Pack()
		if err != nil {
			return nil
		}
	}
	return data
}

// glueFor collects A/AAAA records for the targets of the given NS records,
// where a local zone is authoritative for the target.
func (s *Server) glueFor(answers []dnswire.Record) []dnswire.Record {
	var glue []dnswire.Record
	seen := map[string]bool{}
	for _, r := range answers {
		if r.Type != dnswire.TypeNS || seen[r.Target] {
			continue
		}
		seen[r.Target] = true
		zone := s.zoneFor(r.Target)
		if zone == nil {
			continue
		}
		for _, typ := range []uint16{dnswire.TypeA, dnswire.TypeAAAA} {
			if rs, ok := zone.Lookup(r.Target, typ); ok {
				glue = append(glue, rs...)
			}
		}
	}
	return glue
}
