package corpusstore

import (
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

// Writer streams one corpus into a store directory: each AppendList writes
// one country's shard (concurrently if the caller wants — shards are
// independent), encoding one block of rows at a time, and Close commits
// them all and writes the manifest last. The shards are one
// checkpoint.Batch: AppendList returns once its shard's bytes are written,
// and the fsyncs and renames run in the background until Close waits for
// them and fsyncs the directory once. Only then is the manifest written
// with checkpoint.WriteFileAtomic, so a store is readable only once Close
// succeeds; a crash mid-ingestion leaves shards and temp files but no
// manifest, never a half-store that Open would trust.
type Writer struct {
	dir       string
	epoch     string
	blockRows int
	m         *storeMetrics
	shards    *checkpoint.Batch

	mu       sync.Mutex
	writing  map[string]bool // shards reserved by an AppendList in flight
	done     map[string]manifestShard
	coverage map[string]*dataset.Coverage
	free     []*shardEncoder // encoders idle between AppendList calls
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
		shards:    checkpoint.NewBatch(dir),
		writing:   map[string]bool{},
		done:      map[string]manifestShard{},
		coverage:  map[string]*dataset.Coverage{},
	}, nil
}

// Epoch returns the epoch the store is being written for.
func (w *Writer) Epoch() string { return w.epoch }

// AppendList writes one country's list as a complete shard, encoding the
// blocks straight from list.Sites: no row is copied on the way to disk.
// It returns once the shard's bytes are written, so the caller may reuse
// list; the shard is durable only after Close. Each country may be
// appended once; a refused row refuses the whole list before anything is
// written.
func (w *Writer) AppendList(list *dataset.CountryList) error {
	cc := list.Country
	name, err := shardFileName(cc)
	if err != nil {
		return err
	}
	for i := range list.Sites {
		switch site := &list.Sites[i]; {
		case site.Country != cc:
			return fmt.Errorf("corpusstore: row for %q appended to shard %s", site.Country, cc)
		case site.Domain == "":
			return fmt.Errorf("corpusstore: shard %s: row with empty domain", cc)
		}
	}

	var enc *shardEncoder
	w.mu.Lock()
	_, written := w.done[cc]
	switch {
	case w.closed:
		err = fmt.Errorf("corpusstore: writer already closed")
	case written || w.writing[cc]:
		err = fmt.Errorf("corpusstore: shard %s was already appended", cc)
	default:
		w.writing[cc] = true
		if n := len(w.free); n > 0 {
			enc, w.free = w.free[n-1], w.free[:n-1]
		} else {
			enc = new(shardEncoder)
		}
	}
	w.mu.Unlock()
	if err != nil {
		return err
	}

	sp := obs.StartSpan(w.m.shardWriteMS)
	hdr := shardHeader{Version: Version, Epoch: w.epoch, Country: cc, BlockRows: w.blockRows}
	err = w.shards.WriteFile(name, func(out io.Writer) error {
		return enc.encode(out, hdr, list.Sites)
	})
	rows, size := enc.rows, enc.bytes
	w.mu.Lock()
	delete(w.writing, cc)
	w.free = append(w.free, enc)
	if err == nil {
		w.done[cc] = manifestShard{Country: cc, File: name, Rows: rows, Bytes: size}
	}
	w.mu.Unlock()
	if err != nil {
		return fmt.Errorf("corpusstore: shard %s: %w", cc, err)
	}
	sp.End()
	w.m.shardsWritten.Inc()
	w.m.rowsWritten.Add(rows)
	w.m.bytesWritten.Add(size)
	return nil
}

// SetCoverage records one country's crawl coverage in the manifest.
func (w *Writer) SetCoverage(cov *dataset.Coverage) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.coverage[cov.Country] = cov
}

// Close commits the store: it waits until every appended shard is fsynced
// and renamed, fsyncs the directory once, and only then writes the
// manifest atomically, listing every appended shard. It refuses while an
// AppendList is still writing, and writes no manifest if any shard failed.
// Only after Close returns nil is the directory a store.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("corpusstore: writer already closed")
	}
	if len(w.writing) > 0 {
		return fmt.Errorf("corpusstore: %d shards are still being written", len(w.writing))
	}
	w.closed = true
	w.free = nil
	if err := w.shards.Commit(); err != nil {
		return fmt.Errorf("corpusstore: committing shards: %w", err)
	}
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

// shardEncoder encodes one shard file, one block (BlockRows sites) at a
// time straight from the caller's rows, so its own memory is bounded by
// the block size, not the country's toplist length. A Writer reuses it
// across shards: encode resets its symbols and totals and keeps its
// buffers.
type shardEncoder struct {
	syms    map[string]uint32
	newSyms []string // symbols first seen in the block being encoded
	head    []byte   // reused: a block's new-symbol list
	cols    []byte   // reused: a block's encoded columns

	rows  int64
	bytes int64 // written to out, magic included
}

// encode writes a whole shard to out: magic, header, rows in blocks of
// hdr.BlockRows, end marker. It does not look at what the rows hold.
func (e *shardEncoder) encode(out io.Writer, hdr shardHeader, rows []dataset.Website) error {
	if e.syms == nil {
		e.syms = map[string]uint32{}
	} else {
		clear(e.syms)
	}
	e.rows, e.bytes = 0, 0
	n, err := out.Write(shardMagic)
	e.bytes += int64(n)
	if err != nil {
		return err
	}
	h, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	if err := e.section(out, secHeader, h, nil); err != nil {
		return err
	}
	for rest := rows; len(rest) > 0; {
		n := min(len(rest), hdr.BlockRows)
		if err := e.block(out, rest[:n]); err != nil {
			return err
		}
		rest = rest[n:]
	}
	end, err := json.Marshal(shardEnd{Rows: e.rows, Symbols: int64(len(e.syms))})
	if err != nil {
		return err
	}
	return e.section(out, secEnd, end, nil)
}

// section frames one section to out, counting its bytes.
func (e *shardEncoder) section(out io.Writer, typ byte, head, body []byte) error {
	n, err := writeSection(out, typ, head, body)
	e.bytes += int64(n)
	return err
}

// intern returns the symbol for s, scheduling it for emission in the
// current block's new-symbol list on first use.
func (e *shardEncoder) intern(s string) uint32 {
	if id, ok := e.syms[s]; ok {
		return id
	}
	id := uint32(len(e.syms))
	e.syms[s] = id
	e.newSyms = append(e.newSyms, s)
	return id
}

// encodedRowHint sizes a shard's column buffer before its first block: a
// measured row encodes to about 68 bytes, and a low guess only costs the
// append growth the hint is there to avoid.
const encodedRowHint = 80

// block encodes rows as one columnar 'B' section: the symbols first seen
// in the block, the row count, then the columns of shardColumns in order.
// Symbols are interned in that same scan order, so equal inputs always
// produce equal bytes. The rows are only read.
func (e *shardEncoder) block(out io.Writer, rows []dataset.Website) error {
	// Symbols are assigned while the columns are encoded but are written
	// before them, so the two halves are built apart and framed together.
	e.newSyms = e.newSyms[:0]
	if e.cols == nil {
		e.cols = make([]byte, 0, len(rows)*encodedRowHint)
	}
	cols := binary.AppendUvarint(e.cols[:0], uint64(len(rows)))
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
				cols = binary.AppendUvarint(cols, uint64(e.intern(*col.str(&rows[i]))))
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
	e.cols = cols

	head := binary.AppendUvarint(e.head[:0], uint64(len(e.newSyms)))
	for _, s := range e.newSyms {
		head = binary.AppendUvarint(head, uint64(len(s)))
		head = append(head, s...)
	}
	e.head = head

	if err := e.section(out, secBlock, head, cols); err != nil {
		return err
	}
	e.rows += int64(len(rows))
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
