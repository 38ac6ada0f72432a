package fedtransport

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/fedcrawl"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
)

// sigHeader carries the hex HMAC-SHA256 of the request body, keyed with
// the vantage's key, on shard-assignment requests. A vantage refuses any
// assignment whose signature does not verify — only its coordinator can
// put it to work.
const sigHeader = "X-Webdep-Signature"

// maxAssignmentBytes bounds a shard-assignment request body.
const maxAssignmentBytes = 1 << 26

// signBody is the shared assignment-signing primitive: hex HMAC-SHA256
// over the exact request body bytes.
func signBody(key, body []byte) string {
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	return hex.EncodeToString(mac.Sum(nil))
}

// VantageConfig wires one remote vantage worker.
type VantageConfig struct {
	// Key signs every artifact this vantage ships and authenticates the
	// assignments it accepts. Required.
	Key []byte
	// NewLive builds the crawler for one assignment, which the vantage
	// runs through fedcrawl.CrawlShard, the same job fedcrawl.Local runs in
	// process. CrawlShard owns the returned Live's Checkpoint (and its Obs,
	// when nil). Required.
	NewLive func() *pipeline.Live
	// Dir is the scratch directory for in-progress shard journals. Empty
	// means a private temp directory, removed on Close.
	Dir string
	// Obs selects the metrics registry (nil means obs.Default()).
	Obs *obs.Registry
}

func (cfg *VantageConfig) reg() *obs.Registry {
	if cfg.Obs != nil {
		return cfg.Obs
	}
	return obs.Default()
}

// VantageServer is a running vantage worker: an HTTP endpoint that accepts
// signed shard assignments, crawls them through its own checkpointed
// pipeline, and answers each with a signed journal artifact. A journal
// disarm mid-crawl does not fail the exchange: the vantage ships whatever
// prefix is durable, with the disarm declared in the signed meta, so the
// coordinator can admit the partial work AND retire the worker.
type VantageServer struct {
	// Addr is the server's "host:port".
	Addr string

	cfg     VantageConfig
	srv     *http.Server
	ln      net.Listener
	done    chan struct{}
	seq     atomic.Int64
	tempDir string
	opts    func(fedcrawl.Assignment) *checkpoint.Options

	assignments   *obs.Counter
	badSignatures *obs.Counter
	artifacts     *obs.Counter
	disarms       *obs.Counter
}

// ServeVantage starts a vantage worker on addr ("host:port", with ":0"
// picking a free port).
func ServeVantage(addr string, cfg VantageConfig) (*VantageServer, error) {
	return serveVantage(addr, cfg, func(fedcrawl.Assignment) *checkpoint.Options {
		return &checkpoint.Options{Obs: cfg.reg()}
	})
}

// serveVantage is ServeVantage with the journal options chosen per
// assignment, the seam fault tests use to wrap one (worker, gen) journal's
// writer.
func serveVantage(addr string, cfg VantageConfig, opts func(fedcrawl.Assignment) *checkpoint.Options) (*VantageServer, error) {
	if len(cfg.Key) == 0 {
		return nil, fmt.Errorf("fedtransport: vantage needs a signing key")
	}
	if cfg.NewLive == nil {
		return nil, fmt.Errorf("fedtransport: vantage needs a Live factory")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fedtransport: vantage listener: %w", err)
	}
	v := &VantageServer{cfg: cfg, done: make(chan struct{}), ln: ln, Addr: ln.Addr().String(), opts: opts}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "webdep-vantage-*")
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("fedtransport: vantage scratch dir: %w", err)
		}
		v.cfg.Dir = dir
		v.tempDir = dir
	}
	reg := cfg.reg()
	v.assignments = reg.Counter("fedtransport.vantage.assignments")
	v.badSignatures = reg.Counter("fedtransport.vantage.bad_signatures")
	v.artifacts = reg.Counter("fedtransport.vantage.artifacts")
	v.disarms = reg.Counter("fedtransport.vantage.disarms")

	mux := http.NewServeMux()
	mux.HandleFunc("POST /crawl", v.handleCrawl)
	v.srv = &http.Server{Handler: mux}
	go func() {
		defer close(v.done)
		_ = v.srv.Serve(ln)
	}()
	return v, nil
}

// Close stops the vantage, severing in-flight exchanges (which cancels
// their crawls through the request context), and removes its private
// scratch directory if it created one.
func (v *VantageServer) Close() error {
	err := v.srv.Close()
	<-v.done
	if v.tempDir != "" {
		os.RemoveAll(v.tempDir)
	}
	return err
}

func (v *VantageServer) handleCrawl(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxAssignmentBytes))
	if err != nil {
		http.Error(w, "fedtransport: reading assignment: "+err.Error(), http.StatusBadRequest)
		return
	}
	sig, err := hex.DecodeString(r.Header.Get(sigHeader))
	mac := hmac.New(sha256.New, v.cfg.Key)
	mac.Write(body)
	if err != nil || !hmac.Equal(mac.Sum(nil), sig) {
		v.badSignatures.Inc()
		http.Error(w, "fedtransport: assignment signature does not verify", http.StatusForbidden)
		return
	}
	var a fedcrawl.Assignment
	if err := json.Unmarshal(body, &a); err != nil {
		http.Error(w, "fedtransport: undecodable assignment: "+err.Error(), http.StatusBadRequest)
		return
	}
	// A malformed identity is the coordinator's mistake, not the wire's:
	// refuse it before any journal exists, with a status it will not retry.
	if a.Worker == "" || a.Epoch == "" || a.Gen < 1 || a.Total < 1 ||
		a.Index < 0 || a.Index >= a.Total || len(a.Countries) == 0 {
		http.Error(w, "fedtransport: assignment has no valid shard identity", http.StatusBadRequest)
		return
	}
	v.assignments.Inc()

	// Scratch names carry a per-request sequence so a retried dispatch of
	// the same (worker, gen) never collides with a crawl still draining.
	path := filepath.Join(v.cfg.Dir, fmt.Sprintf("%s-g%d-r%d.journal", a.Worker, a.Gen, v.seq.Add(1)))
	defer os.Remove(path)
	meta := Meta{Worker: a.Worker, Gen: a.Gen, Epoch: a.Epoch, Countries: a.Countries}
	crawlErr := fedcrawl.CrawlShard(r.Context(), path, a, v.cfg.NewLive(), v.opts(a))
	switch {
	case errors.Is(crawlErr, fedcrawl.ErrWorkerDead):
		// The journal died under the crawl. Whatever prefix reached disk is
		// durable and signed; the disarm flag tells the coordinator this
		// worker is done for good.
		meta.Disarmed = true
	case r.Context().Err() != nil:
		// The coordinator hung up; there is nobody to answer.
		return
	case crawlErr != nil:
		http.Error(w, "fedtransport: crawl failed: "+crawlErr.Error(), http.StatusInternalServerError)
		return
	}

	f, err := os.Open(path)
	if err != nil {
		// The journal was never created: there is no prefix to sign.
		http.Error(w, "fedtransport: no journal to ship: "+err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		http.Error(w, "fedtransport: reading journal: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(artifactSize(meta, st.Size())))
	if err := WriteArtifact(w, v.cfg.Key, meta, st.Size(), f); err != nil {
		// Headers are out; all we can do is cut the connection short, which
		// the coordinator refuses as a truncated artifact and retries.
		return
	}
	v.artifacts.Inc()
	if meta.Disarmed {
		v.disarms.Inc()
	}
}

// artifactSize is the exact envelope size WriteArtifact will emit, so the
// response can carry an honest Content-Length and a cut-short transfer is
// detectable at the receiving end.
func artifactSize(meta Meta, journalLen int64) int64 {
	meta.Version = metaVersion
	mb, _ := json.Marshal(meta)
	return int64(len(artifactMagic)) + 8 + int64(len(mb)) + 8 + journalLen + macSize
}
