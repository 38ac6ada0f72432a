package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/obs"
)

// epoch-batch: a closed loop with one caller. Each iteration ingests
// world-batch into a fresh store directory and then analyzes that store
// from disk, so a format change that speeds writes and costs reads (or the
// reverse) moves both halves of the same number.

const epochName = "epoch-batch"

// epochIter is one iteration's measurements.
type epochIter struct {
	ingest, analyze time.Duration
	storeBytes      int64
	ok              bool
	traced          bool
}

// analysis is what the analyze half computes; the digests are made from it
// after the clock stops.
type analysis struct {
	scores string
	spof   string
}

// analyze is the read half of an epoch: score the store by streaming, build
// the provider graph from it, rank SPOFs, simulate the worst one, and take
// the transitive scores of the three modeled layers.
func (fx *batchFixture) analyze(dir string, tr *tracer, iter, parent int) (analysis, error) {
	call := func(name string) func() {
		id := tr.start(epochName, iter, name, parent)
		return func() { tr.end(id) }
	}
	done := call("corpusstore.Open")
	st, err := corpusstore.Open(dir, &corpusstore.Options{Obs: fx.reg})
	done()
	if err != nil {
		return analysis{}, err
	}
	done = call("corpusstore.Store.Score")
	ss, err := st.Score()
	done()
	if err != nil {
		return analysis{}, err
	}
	done = call("depgraph.FromStore")
	g, err := depgraph.FromStore(st, &depgraph.Options{Obs: fx.reg})
	done()
	if err != nil {
		return analysis{}, err
	}
	done = call("depgraph.Graph.TopSPOFs")
	top := g.TopSPOFs(10)
	done()
	if len(top) == 0 {
		return analysis{}, fmt.Errorf("analyze: the graph ranks no provider")
	}
	done = call("depgraph.Graph.Simulate")
	_, err = g.Simulate(top[0].Provider)
	done()
	if err != nil {
		return analysis{}, err
	}
	done = call("depgraph.Graph.TransitiveScores")
	trans := transitiveScores(g)
	done()
	return analysis{scores: scoreDigest(ss), spof: spofDigest(g.Stats(), top, trans)}, nil
}

// ingestTraced is ingest decomposed into the public calls
// MeasureWorldToStore makes, on the same number of goroutines, with a span
// around each.
func (fx *batchFixture) ingestTraced(dir string, workers int, tr *tracer, iter, parent int) error {
	id := tr.start(epochName, iter, "corpusstore.Create", parent)
	wr, err := corpusstore.Create(dir, fx.world.Config.Epoch, &corpusstore.Options{Obs: fx.reg})
	tr.end(id)
	if err != nil {
		return err
	}
	ccs := fx.world.Config.Countries
	var next atomic.Int64
	var firstErr error
	var once sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ccs) {
					return
				}
				cc := ccs[i]
				id := tr.start(epochName, iter, "pipeline.EnrichCountry", parent)
				list := fx.pipe.EnrichCountry(cc, fx.world.Config.Epoch, fx.world.Raw[cc])
				tr.end(id)
				id = tr.start(epochName, iter, "corpusstore.Writer.AppendList", parent)
				err := wr.AppendList(list)
				tr.end(id)
				if err != nil {
					once.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	id = tr.start(epochName, iter, "corpusstore.Writer.Close", parent)
	err = wr.Close()
	tr.end(id)
	return err
}

// epochIteration runs one ingest + analyze into dir and removes it. With a
// tracer the ingest is decomposed; the analyze half is the same calls
// either way.
func (fx *batchFixture) epochIteration(e *env, dir string, tr *tracer, iter int) (epochIter, error) {
	it := epochIter{traced: tr != nil}
	root := tr.start(epochName, iter, "iteration", 0)
	defer tr.end(root)

	id := tr.start(epochName, iter, "ingest", root)
	t0 := time.Now()
	var err error
	if tr == nil {
		err = fx.ingest(dir)
	} else {
		err = fx.ingestTraced(dir, e.nproc, tr, iter, id)
	}
	it.ingest = time.Since(t0)
	tr.end(id)
	if err != nil {
		return it, err
	}
	if it.storeBytes, err = dirBytes(dir); err != nil {
		return it, err
	}

	id = tr.start(epochName, iter, "analyze", root)
	t0 = time.Now()
	got, err := fx.analyze(dir, tr, iter, id)
	it.analyze = time.Since(t0)
	tr.end(id)
	if err != nil {
		return it, err
	}
	it.ok = got.scores == fx.scoreDigest && got.spof == fx.spofDigest
	return it, os.RemoveAll(dir)
}

// epochLoop runs warm-up iterations and then measured ones until the
// window is spent (at least minIters), every second one traced if there is
// a tracer. An iteration that errors or reproduces the wrong digests counts
// as failed.
func (fx *batchFixture) epochLoop(e *env, window time.Duration, warmup, minIters int, tr *tracer) (iters []epochIter, failed int, err error) {
	dir, err := e.scratch("epoch")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	store := dir + "/store"
	for i := 0; i < warmup; i++ {
		// A warm-up that fails is not reported: the measured iterations
		// fail the same way and are counted.
		if _, err := fx.epochIteration(e, store, nil, -1-i); err != nil {
			os.RemoveAll(store)
		}
	}
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < window; i++ {
		it, err := fx.epochIteration(e, store, tr.alternate(i), i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "epoch-batch: iteration %d: %v\n", i, err)
			os.RemoveAll(store)
		}
		if err != nil || !it.ok {
			failed++
		}
		iters = append(iters, it)
	}
	return iters, failed, nil
}

// epochSetup builds the fixture, set-up timed.
func epochSetup(e *env) (*batchFixture, time.Duration, error) {
	return timeSetup(func() (*batchFixture, error) { return buildBatch(e, obs.NewRegistry()) })
}

// runEpoch is the untraced workload.
func runEpoch(e *env, window time.Duration) (*outcome, error) {
	fx, setup, err := epochSetup(e)
	if err != nil {
		return nil, err
	}
	iters, failed, err := fx.epochLoop(e, window, 2, 3, nil)
	if err != nil {
		return nil, err
	}
	return epochOutcome(fx, iters, failed, setup), nil
}

func epochOutcome(fx *batchFixture, iters []epochIter, failed int, setup time.Duration) *outcome {
	var ingests, analyzes, whole []time.Duration
	var storeBytes int64
	for _, it := range iters {
		ingests = append(ingests, it.ingest)
		analyzes = append(analyzes, it.analyze)
		whole = append(whole, it.ingest+it.analyze)
		if it.storeBytes > storeBytes {
			storeBytes = it.storeBytes
		}
	}
	sites := float64(fx.sites)
	o := &outcome{workload: epochName, attempted: len(iters), failed: failed, samples: len(iters)}
	o.values = map[string]float64{
		"p50_ms":               ms(median(whole)),
		"store_bytes_per_site": float64(storeBytes) / sites,
		"setup_s":              setup.Seconds(),
	}
	o.details = []detail{
		{"epoch_sites_per_s", "1/s", sites / median(whole).Seconds(), len(iters), "sites / median iteration wall"},
		{"ingest_sites_per_s", "1/s", sites / median(ingests).Seconds(), len(iters), "sites / median ingest wall"},
		{"analyze_sites_per_s", "1/s", sites / median(analyzes).Seconds(), len(iters), "sites / median analyze wall"},
	}
	return o
}
