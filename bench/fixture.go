package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

// sizes fixes the two generated worlds. Everything the program under test
// sees is generated from these and the seed.
type sizes struct {
	batchCountries []string // nil means all 150
	batchSites     int
	batchDomestic  int
	liveCountries  []string
	liveSites      int
	liveDomestic   int
	// How long the layer probes run: the slice of serve-hot whose counters
	// they read, and the operation counts of the hit-path, wire and obs
	// probes, enough that each runs for tens of milliseconds and one
	// scheduler hiccup does not move it.
	probeWindow             time.Duration
	hitOps, wireOps, obsOps int
}

// benchSizes are the sizes every reported number is measured at.
// world-batch is 150 countries x 2000 sites (300,000 rows): larger than any
// in-repo benchmark corpus, and it builds in about 3 s on two cores.
// world-live is 6 x 500 (3,000 sites), about 3 s of real DNS and TLS probes.
var benchSizes = sizes{
	batchSites: 2000, batchDomestic: 20,
	liveCountries: []string{"BR", "CZ", "DE", "IN", "TH", "US"}, liveSites: 500, liveDomestic: 8,
	probeWindow: time.Second, hitOps: 200_000, wireOps: 20_000, obsOps: 2_000_000,
}

// smokeSizes keep `go test` under ten seconds; they prove the benchmark
// builds and its checks pass, not any number.
var smokeSizes = sizes{
	batchCountries: []string{"BR", "CZ", "TH", "US"}, batchSites: 100, batchDomestic: 4,
	liveCountries: []string{"CZ", "TH"}, liveSites: 20, liveDomestic: 2,
	probeWindow: 50 * time.Millisecond, hitOps: 2000, wireOps: 200, obsOps: 20_000,
}

// env is what every workload needs from the command line and the machine.
type env struct {
	seed    int64
	sz      sizes
	nproc   int
	workdir string // scratch for stores and journals, inside the checkout
}

// scratch returns a fresh directory under the work directory.
func (e *env) scratch(name string) (string, error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.workdir, name+"-")
}

// batchFixture is world-batch, its pipeline, and the in-memory reference
// the store-backed paths are checked against.
type batchFixture struct {
	world       *worldgen.World
	pipe        *pipeline.Pipeline
	ref         *dataset.Corpus
	ccs         []string
	sites       int
	scoreDigest string
	spofDigest  string
	reg         *obs.Registry
	buildWall   time.Duration // worldgen.Build alone
}

func buildBatch(e *env, reg *obs.Registry) (*batchFixture, error) {
	t0 := time.Now()
	w, err := worldgen.Build(worldgen.Config{
		Seed:               e.seed,
		SitesPerCountry:    e.sz.batchSites,
		Countries:          e.sz.batchCountries,
		DomesticPerCountry: e.sz.batchDomestic,
	})
	if err != nil {
		return nil, fmt.Errorf("building world-batch: %w", err)
	}
	fx := &batchFixture{world: w, reg: reg, buildWall: time.Since(t0)}
	fx.pipe = pipeline.FromWorld(w)
	fx.pipe.Obs = reg
	if fx.ref, err = fx.pipe.MeasureWorld(w); err != nil {
		return nil, fmt.Errorf("measuring world-batch in memory: %w", err)
	}
	fx.ccs = fx.ref.Countries()
	fx.sites = fx.ref.TotalSites()
	fx.scoreDigest = scoreDigest(fx.ref.ScoreSet())
	g := depgraph.Build(fx.ref, &depgraph.Options{Obs: reg})
	fx.spofDigest = spofDigest(g.Stats(), g.TopSPOFs(10), transitiveScores(g))
	return fx, nil
}

// ingest is the write half of an epoch: measure the world into a fresh
// store at dir with production options (fsync per shard and manifest).
func (fx *batchFixture) ingest(dir string) error {
	wr, err := corpusstore.Create(dir, fx.world.Config.Epoch, &corpusstore.Options{Obs: fx.reg})
	if err != nil {
		return err
	}
	if err := fx.pipe.MeasureWorldToStore(fx.world, wr); err != nil {
		return err
	}
	return wr.Close()
}

func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every digested value is plain maps, slices and numbers
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// scoreDigest hashes every (layer, country) score and insularity. JSON
// prints floats in their shortest exact form, so equal digests mean
// bit-equal scores.
func scoreDigest(ss *dataset.ScoreSet) string {
	type layerScores struct {
		Scores     map[string]float64
		Insularity map[string]float64
	}
	all := map[string]layerScores{}
	for _, l := range countries.Layers {
		all[l.String()] = layerScores{ss.Scores(l), ss.Insularities(l)}
	}
	return digest(all)
}

func transitiveScores(g *depgraph.Graph) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, l := range depgraph.Layers() {
		out[l.String()] = g.TransitiveScores(l)
	}
	return out
}

// spofDigest hashes what internal/pipeline's golden_spof.json freezes: the
// graph's shape, the top-10 SPOF table, and every transitive score.
func spofDigest(st depgraph.StatsSnapshot, top []depgraph.SPOF, trans map[string]map[string]float64) string {
	return digest(struct {
		Nodes, ProviderEdges int64
		Top                  []depgraph.SPOF
		Transitive           map[string]map[string]float64
	}{st.Nodes, st.ProviderEdges, top, trans})
}

// corpusDigest hashes every row and the coverage accounting of a crawled
// corpus, in sorted country order.
func corpusDigest(c *dataset.Corpus) string {
	type country struct {
		Sites    []dataset.Website
		Coverage *dataset.Coverage
	}
	all := map[string]country{}
	for _, cc := range c.Countries() {
		all[cc] = country{c.Get(cc).Sites, c.CoverageOf(cc)}
	}
	return digest(all)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// timeSetup runs one workload's set-up and times it. The clock stops after
// a collection, so set-up garbage (the generator's, mostly) is charged to
// set-up and not to the measured window.
func timeSetup[T any](build func() (T, error)) (T, time.Duration, error) {
	t0 := time.Now()
	v, err := build()
	if err != nil {
		return v, 0, err
	}
	runtime.GC()
	return v, time.Since(t0), nil
}

// procStats is the process accounting read around a measured window.
type procStats struct {
	cpu     time.Duration
	alloc   uint64
	gcPause time.Duration
	heapSys uint64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procStats{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   m.TotalAlloc,
		gcPause: time.Duration(m.PauseTotalNs),
		heapSys: m.HeapSys,
	}
}

// procMetrics fills the proc.* metrics from the stats around a window.
// peak_heap_mb is the heap the runtime has reserved from the OS so far,
// which only grows: the process's high-water mark, set-up included.
func procMetrics(values map[string]float64, before, after procStats) {
	values["proc.cpu_s"] = (after.cpu - before.cpu).Seconds()
	values["proc.alloc_mb"] = float64(after.alloc-before.alloc) / 1e6
	values["proc.gc_pause_ms"] = ms(after.gcPause - before.gcPause)
	values["proc.peak_heap_mb"] = float64(after.heapSys) / 1e6
}

// allocsDuring runs fn and returns the heap objects and bytes it
// allocated, from runtime.MemStats deltas. Only meaningful while nothing
// else in the process allocates, so layer probes run one at a time.
func allocsDuring(fn func()) (wall time.Duration, objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// histSum returns the sum of a timing histogram in the registry, in ms.
func histSum(reg *obs.Registry, name string) float64 {
	return reg.Timing(name).Snapshot().Sum
}
