// Command authdns serves RFC 1035 master files as an authoritative DNS
// server over UDP and TCP — the standalone face of the toolkit's DNS
// substrate. Point it at the zone files webdep export -zones writes (or your
// own) and crawl it with any resolver.
//
// Usage:
//
//	authdns -listen 127.0.0.1:5353 zones/*.zone
//	webdep export -countries TH -sites 50 -zones -out data/ && authdns data/zones/*.zone
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"github.com/webdep/webdep/internal/dnsserver"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5353", "address to serve on (UDP and TCP)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: authdns [-listen addr] zonefile...")
		os.Exit(2)
	}
	srv, addr, err := serve(*listen, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "authdns:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "authdns: serving %d zones on %s\n", flag.NArg(), addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "authdns: shutting down")
	srv.Close()
}

// serve loads the zone files and starts the server, returning it and the
// bound address.
func serve(listen string, paths []string) (*dnsserver.Server, string, error) {
	srv := dnsserver.NewServer(nil)
	for _, path := range paths {
		zone, err := loadZoneFile(path)
		if err != nil {
			return nil, "", err
		}
		srv.AddZone(zone)
	}
	addr, err := srv.Start(listen)
	if err != nil {
		return nil, "", err
	}
	return srv, addr.String(), nil
}

// loadZoneFile parses one master file; when the file lacks $ORIGIN, the
// file name (minus the .zone suffix) is the origin, matching the layout
// cmd/webdep exports.
func loadZoneFile(path string) (*dnsserver.Zone, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defaultOrigin := strings.TrimSuffix(filepath.Base(path), ".zone")
	zone, err := dnsserver.ParseZone(f, defaultOrigin)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return zone, nil
}
