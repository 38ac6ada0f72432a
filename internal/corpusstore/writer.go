package corpusstore

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/parallel"
)

// Writer streams one corpus into a store directory: shards are written
// country by country (concurrently if the caller wants — each ShardWriter
// is independent), encoding one block of rows at a time, and
// the manifest is written last, atomically, by Close. A store is readable
// only once Close succeeds; a crash mid-ingestion leaves temp files and no
// manifest, never a half-store that Open would trust.
type Writer struct {
	dir       string
	epoch     string
	blockRows int
	m         *storeMetrics

	mu       sync.Mutex
	open     map[string]*ShardWriter
	done     map[string]manifestShard
	coverage map[string]*dataset.Coverage
	closed   bool
}

// Create starts a fresh store at dir (created if absent). It refuses to
// overwrite an existing store: a directory that already has a manifest must
// be removed by the operator first, mirroring the checkpoint journal's
// refusal to clobber.
func Create(dir, epoch string, opts *Options) (*Writer, error) {
	if epoch == "" {
		return nil, fmt.Errorf("corpusstore: store needs a non-empty epoch")
	}
	opts = opts.orDefault()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("corpusstore: %s already holds a store; remove it first", dir)
	}
	blockRows := opts.BlockRows
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	if blockRows > maxBlockRows {
		blockRows = maxBlockRows
	}
	return &Writer{
		dir:       dir,
		epoch:     epoch,
		blockRows: blockRows,
		m:         newStoreMetrics(opts.Obs),
		open:      map[string]*ShardWriter{},
		done:      map[string]manifestShard{},
		coverage:  map[string]*dataset.Coverage{},
	}, nil
}

// Epoch returns the epoch the store is being written for.
func (w *Writer) Epoch() string { return w.epoch }

// Shard opens the writer for one country's shard. Each country may be
// opened once; distinct shards may be written concurrently, but a single
// ShardWriter is not safe for concurrent use.
func (w *Writer) Shard(country string) (*ShardWriter, error) {
	name, err := shardFileName(country)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("corpusstore: writer already closed")
	}
	if _, ok := w.open[country]; ok {
		return nil, fmt.Errorf("corpusstore: shard %s is already open", country)
	}
	if _, ok := w.done[country]; ok {
		return nil, fmt.Errorf("corpusstore: shard %s was already written", country)
	}
	sw, err := newShardWriter(w, country, filepath.Join(w.dir, name), name)
	if err != nil {
		return nil, err
	}
	w.open[country] = sw
	return sw, nil
}

// AppendList writes one country's list as a complete shard, encoding the
// blocks straight from list.Sites: no row is copied on the way to disk.
func (w *Writer) AppendList(list *dataset.CountryList) error {
	sw, err := w.Shard(list.Country)
	if err != nil {
		return err
	}
	for i := range list.Sites {
		if err := sw.check(&list.Sites[i]); err != nil {
			return err
		}
	}
	for rest := list.Sites; len(rest) > 0; {
		n := min(len(rest), w.blockRows)
		if err := sw.writeBlock(rest[:n]); err != nil {
			return err
		}
		rest = rest[n:]
	}
	return sw.Close()
}

// SetCoverage records one country's crawl coverage in the manifest.
func (w *Writer) SetCoverage(cov *dataset.Coverage) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.coverage[cov.Country] = cov
}

// finish registers a closed shard's manifest entry.
func (w *Writer) finish(country string, ms manifestShard) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.open, country)
	w.done[country] = ms
}

// Close finalizes any still-open shards and writes the manifest atomically.
// Only after Close returns nil is the directory a store.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("corpusstore: writer already closed")
	}
	stillOpen := make([]*ShardWriter, 0, len(w.open))
	for _, sw := range w.open {
		stillOpen = append(stillOpen, sw)
	}
	w.mu.Unlock()
	sort.Slice(stillOpen, func(i, j int) bool { return stillOpen[i].country < stillOpen[j].country })
	for _, sw := range stillOpen {
		if err := sw.Close(); err != nil {
			return err
		}
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	man := manifest{Version: Version, Epoch: w.epoch}
	for _, cc := range sortedKeys(w.done) {
		man.Shards = append(man.Shards, w.done[cc])
	}
	if len(w.coverage) > 0 {
		man.Coverage = w.coverage
	}
	hdr, err := json.Marshal(man)
	if err != nil {
		return err
	}
	end, err := json.Marshal(manifestEnd{Shards: len(man.Shards)})
	if err != nil {
		return err
	}
	err = checkpoint.WriteFileAtomic(filepath.Join(w.dir, ManifestName), func(out io.Writer) error {
		if _, err := out.Write(manifestMagic); err != nil {
			return err
		}
		if _, err := writeSection(out, secHeader, hdr, nil); err != nil {
			return fmt.Errorf("corpusstore: manifest: %w", err)
		}
		_, err := writeSection(out, secEnd, end, nil)
		return err
	})
	if err != nil {
		return err
	}
	w.m.manifestWrites.Inc()
	return nil
}

func sortedKeys(m map[string]manifestShard) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ShardWriter encodes one country's rows into a shard file, one block
// (BlockRows sites) at a time straight from the caller's rows, so the
// writer's own memory is bounded by the block size, not the country's
// toplist length. Not safe for concurrent use.
type ShardWriter struct {
	w       *Writer
	country string
	path    string // final path
	tmpPath string
	file    string // manifest file name
	f       *os.File
	bw      *bufio.Writer
	sp      obs.Span

	syms    map[string]uint32
	nsyms   uint32
	newSyms []string // symbols first seen in the block being encoded

	total   int64
	written int64  // bytes written through the framer
	head    []byte // reused: a block's new-symbol list
	cols    []byte // reused: a block's encoded columns
	err     error
	closed  bool
}

func newShardWriter(w *Writer, country, path, file string) (*ShardWriter, error) {
	f, err := os.OpenFile(path+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	sw := &ShardWriter{
		w: w, country: country, path: path, tmpPath: path + ".tmp", file: file,
		f: f, bw: bufio.NewWriter(f),
		sp:   obs.StartSpan(w.m.shardWriteMS),
		syms: map[string]uint32{},
	}
	if err := sw.writeRaw(shardMagic); err != nil {
		sw.abort()
		return nil, err
	}
	hdr, err := json.Marshal(shardHeader{Version: Version, Epoch: w.epoch, Country: country, BlockRows: w.blockRows})
	if err != nil {
		sw.abort()
		return nil, err
	}
	if err := sw.writeSection(secHeader, hdr, nil); err != nil {
		sw.abort()
		return nil, err
	}
	return sw, nil
}

// check refuses a row the shard cannot take, failing the shard.
func (sw *ShardWriter) check(site *dataset.Website) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return fmt.Errorf("corpusstore: shard %s already closed", sw.country)
	}
	if site.Country != sw.country {
		return sw.fail(fmt.Errorf("corpusstore: row for %q appended to shard %s", site.Country, sw.country))
	}
	if site.Domain == "" {
		return sw.fail(fmt.Errorf("corpusstore: shard %s: row with empty domain", sw.country))
	}
	return nil
}

// Close writes the end marker, fsyncs, and atomically renames the temp
// file into place, registering the shard with the store's manifest.
func (sw *ShardWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return fmt.Errorf("corpusstore: shard %s already closed", sw.country)
	}
	end, err := json.Marshal(shardEnd{Rows: sw.total, Symbols: int64(sw.nsyms)})
	if err != nil {
		return sw.fail(err)
	}
	if err := sw.writeSection(secEnd, end, nil); err != nil {
		return err
	}
	if err := sw.bw.Flush(); err != nil {
		return sw.fail(err)
	}
	if err := sw.f.Sync(); err != nil {
		return sw.fail(err)
	}
	if err := sw.f.Close(); err != nil {
		sw.f = nil
		return sw.fail(err)
	}
	sw.f = nil
	if err := os.Rename(sw.tmpPath, sw.path); err != nil {
		return sw.fail(err)
	}
	if d, err := os.Open(filepath.Dir(sw.path)); err == nil {
		d.Sync()
		d.Close()
	}
	sw.closed = true
	sw.sp.End()
	sw.w.m.shardsWritten.Inc()
	sw.w.m.rowsWritten.Add(sw.total)
	sw.w.m.bytesWritten.Add(sw.written)
	sw.w.finish(sw.country, manifestShard{
		Country: sw.country, File: sw.file, Rows: sw.total, Bytes: sw.written,
	})
	return nil
}

// fail latches the first error and removes the temp file; the shard is
// unusable afterwards and never reaches the manifest.
func (sw *ShardWriter) fail(err error) error {
	if sw.err == nil {
		sw.err = err
		sw.abort()
	}
	return sw.err
}

func (sw *ShardWriter) abort() {
	if sw.f != nil {
		sw.f.Close()
		sw.f = nil
	}
	os.Remove(sw.tmpPath)
	sw.w.finishAbort(sw.country)
}

// finishAbort drops an aborted shard from the open set without adding a
// manifest entry.
func (w *Writer) finishAbort(country string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.open, country)
}

func (sw *ShardWriter) writeRaw(b []byte) error {
	n, err := sw.bw.Write(b)
	sw.written += int64(n)
	if err != nil {
		return sw.fail(err)
	}
	return nil
}

// writeSection frames one section into the buffered shard file.
func (sw *ShardWriter) writeSection(typ byte, head, body []byte) error {
	n, err := writeSection(sw.bw, typ, head, body)
	sw.written += int64(n)
	if err != nil {
		return sw.fail(fmt.Errorf("corpusstore: shard %s: %w", sw.country, err))
	}
	return nil
}

// intern returns the symbol for s, scheduling it for emission in the
// current block's new-symbol list on first use.
func (sw *ShardWriter) intern(s string) uint32 {
	if id, ok := sw.syms[s]; ok {
		return id
	}
	id := sw.nsyms
	sw.nsyms++
	sw.syms[s] = id
	sw.newSyms = append(sw.newSyms, s)
	return id
}

// encodedRowHint sizes a shard's column buffer before its first block: a
// measured row encodes to about 68 bytes, and a low guess only costs the
// append growth the hint is there to avoid.
const encodedRowHint = 80

// writeBlock encodes rows as one columnar 'B' section: the symbols first
// seen in the block, the row count, then the columns of shardColumns in
// order. Symbols are interned in that same scan order, so equal inputs
// always produce equal bytes. The rows are only read.
func (sw *ShardWriter) writeBlock(rows []dataset.Website) error {
	// Symbols are assigned while the columns are encoded but are written
	// before them, so the two halves are built apart and framed together.
	sw.newSyms = sw.newSyms[:0]
	if sw.cols == nil {
		sw.cols = make([]byte, 0, len(rows)*encodedRowHint)
	}
	cols := binary.AppendUvarint(sw.cols[:0], uint64(len(rows)))
	for c := range shardColumns {
		col := &shardColumns[c]
		switch col.kind {
		case kindRank:
			for i := range rows {
				cols = binary.AppendUvarint(cols, uint64(rows[i].Rank))
			}
		case kindStr:
			for i := range rows {
				s := *col.str(&rows[i])
				cols = binary.AppendUvarint(cols, uint64(len(s)))
				cols = append(cols, s...)
			}
		case kindSym:
			for i := range rows {
				cols = binary.AppendUvarint(cols, uint64(sw.intern(*col.str(&rows[i]))))
			}
		case kindBool:
			start := len(cols)
			cols = append(cols, make([]byte, (len(rows)+7)/8)...)
			for i := range rows {
				if *col.flag(&rows[i]) {
					cols[start+i/8] |= 1 << (i % 8)
				}
			}
		}
	}
	sw.cols = cols

	head := binary.AppendUvarint(sw.head[:0], uint64(len(sw.newSyms)))
	for _, s := range sw.newSyms {
		head = binary.AppendUvarint(head, uint64(len(s)))
		head = append(head, s...)
	}
	sw.head = head

	if err := sw.writeSection(secBlock, head, cols); err != nil {
		return err
	}
	sw.total += int64(len(rows))
	return nil
}

// Save writes an in-memory corpus as a store at dir: one shard per country
// in the corpus's (sorted) country order, coverage carried into the
// manifest, countries written concurrently under the corpus's Workers
// bound. The store round-trips the corpus exactly: Load returns lists
// deep-equal to the originals and Score returns bit-identical scores.
func Save(dir string, c *dataset.Corpus, opts *Options) error {
	w, err := Create(dir, c.Epoch, opts)
	if err != nil {
		return err
	}
	ccs := c.Countries()
	err = parallel.ForEachIndexed(context.Background(), opts.orDefault().Workers, len(ccs),
		func(_ context.Context, i int) error {
			return w.AppendList(c.Get(ccs[i]))
		})
	if err != nil {
		return err
	}
	for _, cov := range c.CoverageByCountry {
		w.SetCoverage(cov)
	}
	return w.Close()
}
