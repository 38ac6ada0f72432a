package depgraph

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/framing"
	"github.com/webdep/webdep/internal/obs"
)

// hostileCorpus draws a corpus that makes symbol IDs collide with the
// tally's skip rules: unmeasured providers, measured providers with no
// country, self-pairs, and providers named exactly like a country code, so
// that a shard's own country symbol turns up in provider columns.
func hostileCorpus(t *testing.T, seed int64) *dataset.Corpus {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := []string{"", "", "US", "DE", "JP", "Cloudflare", "Hetzner"}
	pick := func() string { return names[rng.Intn(len(names))] }
	rows := map[string][]dataset.Website{}
	for _, cc := range []string{"DE", "JP", "US"} {
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			w := site(pick(), pick(), pick(), pick(), pick(), pick())
			w.Domain = fmt.Sprintf("s%d.test", i)
			w.TLD = pick()
			rows[cc] = append(rows[cc], w)
		}
	}
	return handCorpus(t, rows)
}

// TestFromStoreMatchesBuildOnHostileCorpora holds the two representations
// of the graph tally's skip rules equal end to end: FromStore counts the
// store's symbol IDs, Build reads Website strings, and the graphs must be
// the same structure and give the same answers, compared as JSON. Blocks of
// one row make every symbol arrive in a different block from the last. The
// combined scan is held to the same graph, and its scores to the corpus's.
func TestFromStoreMatchesBuildOnHostileCorpora(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		corpus := hostileCorpus(t, seed)
		dir := filepath.Join(t.TempDir(), "corpus.store")
		opts := &corpusstore.Options{Obs: obs.NewRegistry(), BlockRows: []int{1, 6, 4096}[seed%3]}
		if err := corpusstore.Save(dir, corpus, opts); err != nil {
			t.Fatal(err)
		}
		st, err := corpusstore.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromStore(st, &Options{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		want := Build(corpus, &Options{Obs: obs.NewRegistry()})
		equalGraphs(t, got, want)
		scores, scanned, err := Scan(st, &Options{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		equalGraphs(t, scanned, want)
		equalScores(t, scores, corpus.ScoreSet())

		answers := func(g *Graph) string {
			type answer struct {
				Stats   StatsSnapshot
				SPOFs   []SPOF
				Scores  map[string]map[string]float64
				Impacts []*Impact
			}
			a := answer{Stats: g.Stats(), SPOFs: g.TopSPOFs(g.Nodes()), Scores: map[string]map[string]float64{}}
			for _, l := range Layers() {
				a.Scores[l.String()] = g.TransitiveScores(l)
			}
			for p := 0; p < g.Nodes(); p++ {
				imp, err := g.Simulate(g.NameOf(uint32(p)))
				if err != nil {
					t.Fatal(err)
				}
				a.Impacts = append(a.Impacts, imp)
			}
			out, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			return string(out)
		}
		if g, w := answers(got), answers(want); g != w {
			t.Fatalf("seed %d: FromStore answers\n %s\nBuild answers\n %s", seed, g, w)
		}
	}
}

// TestObserveBlockMatchesObserve is the same property at the tally, where
// a country of "" — which the store cannot hold — can be covered too: rows
// observed as Websites (interned into the tally's own table) and as blocks
// of symbol IDs over one growing stream table must merge to the same graph.
func TestObserveBlockMatchesObserve(t *testing.T) {
	for _, cc := range []string{"US", ""} {
		for seed := int64(1); seed <= 12; seed++ {
			corpus := hostileCorpus(t, seed)
			byRow, byBlock := NewTally(cc), NewTally(cc)
			ids, names := map[string]uint32{}, []string(nil)
			// One block per source list: three blocks over one growing table.
			for _, list := range corpus.Lists {
				for i := range list.Sites {
					byRow.Observe(&list.Sites[i])
				}
				byBlock.ObserveBlock(blockOf(ids, &names, list.Sites))
			}
			fromRows, err := FromTallies([]*Tally{byRow}, &Options{Obs: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			fromBlocks, err := FromTallies([]*Tally{byBlock}, &Options{Obs: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			equalGraphs(t, fromBlocks, fromRows)
			if g, w := fromBlocks.Stats(), fromRows.Stats(); g != w {
				t.Fatalf("country %q seed %d: block stats %+v, row stats %+v", cc, seed, g, w)
			}
		}
	}
}

// blockOf interns rows into a SymbolBlock over a stream's growing table,
// the way a store shard does: IDs in first-seen order, column by column.
func blockOf(ids map[string]uint32, names *[]string, rows []dataset.Website) *dataset.SymbolBlock {
	var b dataset.SymbolBlock
	for i := range rows {
		w := &rows[i]
		for c, s := range [dataset.NumSymbolColumns]string{
			dataset.SymHostProvider: w.HostProvider, dataset.SymHostProviderCountry: w.HostProviderCountry,
			dataset.SymDNSProvider: w.DNSProvider, dataset.SymDNSProviderCountry: w.DNSProviderCountry,
			dataset.SymCAOwner: w.CAOwner, dataset.SymCAOwnerCountry: w.CAOwnerCountry,
			dataset.SymTLD: w.TLD,
		} {
			id, ok := ids[s]
			if !ok {
				id = uint32(len(*names))
				ids[s] = id
				*names = append(*names, s)
			}
			b.Cols[c] = append(b.Cols[c], id)
		}
	}
	b.Names = *names
	return &b
}

// TestTallyRefusesMixedTables: a tally's IDs index one table, so feeding
// it rows and blocks, or blocks from two streams, must fail loudly rather
// than count one table's IDs under another's names. A block whose table
// extends the last one is the same stream and is taken.
func TestTallyRefusesMixedTables(t *testing.T) {
	rows := []dataset.Website{site("HostA", "US", "DNSX", "DE", "CAZ", "US")}
	other := []dataset.Website{site("DNSX", "DE", "HostA", "US", "CAZ", "US")}
	stream := func(rows []dataset.Website) *dataset.SymbolBlock {
		var names []string
		return blockOf(map[string]uint32{}, &names, rows)
	}
	for name, feed := range map[string]func(*Tally){
		"rows then a block": func(tl *Tally) { tl.Observe(&rows[0]); tl.ObserveBlock(stream(rows)) },
		"a block then rows": func(tl *Tally) { tl.ObserveBlock(stream(rows)); tl.Observe(&rows[0]) },
		"two streams":       func(tl *Tally) { tl.ObserveBlock(stream(rows)); tl.ObserveBlock(stream(other)) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `tally for "US"`) {
					t.Errorf("%s: recovered %q, want a panic naming the tally", name, msg)
				}
			}()
			feed(NewTally("US"))
		}()
	}

	ids, names := map[string]uint32{}, []string(nil)
	tl := NewTally("US")
	tl.ObserveBlock(blockOf(ids, &names, rows))
	tl.ObserveBlock(blockOf(ids, &names, other))
	if tl.rows != 2 {
		t.Fatalf("one stream in two blocks counted %d rows, want 2", tl.rows)
	}
}

// TestMergeRefusesDuplicateNames: a stream's table names each symbol once
// — a store writer makes it so and the store's decoder refuses a shard that
// does not — but a tally cannot tell. The merge must refuse a tally whose
// table names one provider under two IDs rather than put the provider in
// one column twice.
func TestMergeRefusesDuplicateNames(t *testing.T) {
	tl := NewTally("US")
	tl.ObserveBlock(&dataset.SymbolBlock{
		Names: []string{"", "HostA", "HostA"},
		Cols: [dataset.NumSymbolColumns][]uint32{
			dataset.SymHostProvider: {1, 2}, dataset.SymHostProviderCountry: {0, 0},
			dataset.SymDNSProvider: {0, 0}, dataset.SymDNSProviderCountry: {0, 0},
			dataset.SymCAOwner: {0, 0}, dataset.SymCAOwnerCountry: {0, 0}, dataset.SymTLD: {0, 0},
		},
	})
	_, err := FromTallies([]*Tally{tl}, &Options{Obs: obs.NewRegistry()})
	if err == nil || !strings.Contains(err.Error(), `"HostA" under two IDs`) {
		t.Fatalf("FromTallies = %v, want the duplicate name refused", err)
	}
}

// TestDuplicateNameShardRefusedOnEveryRoute: a checksum-clean shard whose
// symbol table names one provider under two IDs gets one answer from every
// reader — Store.Score, Store.Load, FromStore and Scan all return the
// decoder's *CorruptError, at the block's offset — never a score from one
// route and a refusal from another.
func TestDuplicateNameShardRefusedOnEveryRoute(t *testing.T) {
	corpus := handCorpus(t, map[string][]dataset.Website{"US": {
		site("HostA", "US", "HostB", "US", "", ""),
		site("HostB", "US", "HostA", "US", "", ""),
	}})
	dir := filepath.Join(t.TempDir(), "corpus.store")
	if err := corpusstore.Save(dir, corpus, nil); err != nil {
		t.Fatal(err)
	}
	// Re-frame the one block with "HostB" renamed "HostA" in its table.
	path := filepath.Join(dir, "US.shard")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 8 // the magic
	for whole[off+8] != 'B' {
		off += 8 + int(binary.LittleEndian.Uint32(whole[off:]))
	}
	end := off + 8 + int(binary.LittleEndian.Uint32(whole[off:]))
	var shard bytes.Buffer
	shard.Write(whole[:off])
	if _, err := framing.Write(&shard, len(whole), bytes.Replace(whole[off+8:end], []byte("HostB"), []byte("HostA"), 1)); err != nil {
		t.Fatal(err)
	}
	shard.Write(whole[end:])
	if err := os.WriteFile(path, shard.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := corpusstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Obs: obs.NewRegistry()}
	var first *corpusstore.CorruptError
	for name, route := range map[string]func() error{
		"Store.Score": func() error { _, err := st.Score(); return err },
		"Store.Load":  func() error { _, err := st.Load(); return err },
		"FromStore":   func() error { _, err := FromStore(st, opts); return err },
		"Scan":        func() error { _, _, err := Scan(st, opts); return err },
	} {
		var ce *corpusstore.CorruptError
		if err := route(); !errors.As(err, &ce) {
			t.Fatalf("%s = %v, want a *CorruptError", name, err)
		}
		if ce.Offset != int64(off) || !strings.Contains(ce.Reason, `symbol "HostA" is already in the shard's table`) {
			t.Errorf("%s refused at %d with %q, want the duplicate named at the block, %d", name, ce.Offset, ce.Reason, off)
		}
		if first == nil {
			first = ce
		} else if *ce != *first {
			t.Errorf("%s refused with %v, another route with %v", name, ce, first)
		}
	}
}

// TestFromStoreAllocsPerRow is the allocation gate on the streamed graph
// build: evidence is counted per symbol and per distinct pair, never
// allocated per row. A return to a string or a Website per row costs three
// allocations a row and fails here, not in a later benchmark read.
func TestFromStoreAllocsPerRow(t *testing.T) {
	corpus := benchCorpus(t)
	dir := filepath.Join(t.TempDir(), "bench.store")
	if err := corpusstore.Save(dir, corpus, nil); err != nil {
		t.Fatal(err)
	}
	st, err := corpusstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Obs: obs.NewRegistry()}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := FromStore(st, opts); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / float64(corpus.TotalSites()); perRow > 0.5 {
		t.Errorf("FromStore allocates %.2f times per row (%.0f for %d rows), want at most 0.5",
			perRow, allocs, corpus.TotalSites())
	}
}

// TestFromStoreBytesPerRow gates the streamed graph build in bytes as well
// as objects, at one worker: the tallies count into dense slices and
// ID-keyed maps, the merge never builds a string-keyed map of a tally, and
// the scan reuses its read buffers, for about 123 bytes a row on this
// corpus. Folding the tallies to names again, or a fresh read buffer per
// shard, fails here.
func TestFromStoreBytesPerRow(t *testing.T) {
	corpus := benchCorpus(t)
	dir := filepath.Join(t.TempDir(), "bench.store")
	if err := corpusstore.Save(dir, corpus, nil); err != nil {
		t.Fatal(err)
	}
	st, err := corpusstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Workers: 1, Obs: obs.NewRegistry()}
	perRow := bytesPerRun(3, func() {
		if _, err := FromStore(st, opts); err != nil {
			t.Fatal(err)
		}
	}) / float64(corpus.TotalSites())
	if perRow > 180 {
		t.Errorf("FromStore allocates %.1f bytes per row, want at most 180", perRow)
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes: the heap bytes one call of
// f allocates, averaged over runs after a warm-up call, on one core.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
