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

// Writer streams one corpus into a store directory: each AppendRows or
// AppendList writes one country's shard (concurrently if the caller wants
// — shards are independent), encoding one block of rows at a time, and
// Close commits them all and writes the manifest last. The shards are one
// checkpoint.Batch: an append returns once its shard's bytes are written,
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
	writing  map[string]bool // shards reserved by an append in flight
	done     map[string]manifestShard
	coverage map[string]*dataset.Coverage
	free     []*shardEncoder // encoders idle between appends
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

// AppendList writes one country's list as a complete shard. Its rows are
// interned into the encoder's Rows (see Rows) and encoded from there, so
// the bytes are what AppendRows writes for the same rows. It returns once
// the shard's bytes are written, so the caller may reuse list; the shard
// is durable only after Close. Each country may be appended once; a
// refused row refuses the whole list before anything is written.
func (w *Writer) AppendList(list *dataset.CountryList) error {
	return w.append(list.Country, func(enc *shardEncoder) (*Rows, error) {
		return enc.listRows(list.Country, list.Sites)
	})
}

// AppendRows writes country cc's rows as a complete shard, encoding the
// blocks straight from rows: no row is copied on the way to disk. It
// returns once the shard's bytes are written, so the caller may reuse rows
// (and grow its dictionary); the shard is durable only after Close. Each
// country may be appended once; rows the decoder would refuse refuse the
// whole shard before anything is written.
func (w *Writer) AppendRows(cc string, rows *Rows) error {
	return w.append(cc, func(*shardEncoder) (*Rows, error) { return rows, nil })
}

// append writes cc's shard from the rows rowsOf returns, given the
// encoder reserved for it.
func (w *Writer) append(cc string, rowsOf func(*shardEncoder) (*Rows, error)) error {
	name, err := shardFileName(cc)
	if err != nil {
		return err
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
			enc = encoders.Get().(*shardEncoder)
		}
	}
	w.mu.Unlock()
	if err != nil {
		return err
	}

	rows, err := rowsOf(enc)
	if err == nil {
		err = rows.check(cc)
	}
	if err == nil {
		sp := obs.StartSpan(w.m.shardWriteMS)
		hdr := shardHeader{Version: Version, Epoch: w.epoch, Country: cc, BlockRows: w.blockRows}
		err = w.shards.WriteFile(name, func(out io.Writer) error {
			return enc.encode(out, hdr, rows)
		})
		if err != nil {
			err = fmt.Errorf("corpusstore: shard %s: %w", cc, err)
		} else {
			sp.End()
		}
	}
	rowCount, size := enc.rows, enc.bytes
	w.mu.Lock()
	delete(w.writing, cc)
	w.free = append(w.free, enc)
	if err == nil {
		w.done[cc] = manifestShard{Country: cc, File: name, Rows: rowCount, Bytes: size}
	}
	w.mu.Unlock()
	if err != nil {
		return err
	}
	w.m.shardsWritten.Inc()
	w.m.rowsWritten.Add(rowCount)
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
// append is still writing, and writes no manifest if any shard failed.
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
	for _, enc := range w.free {
		enc.release()
		encoders.Put(enc)
	}
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

// shardEncoder encodes one shard file, one block (BlockRows rows) at a
// time straight from the caller's Rows, so its own memory is bounded by
// the block size, not the country's toplist length. A Writer reuses it
// across shards: encode resets its symbols and totals and keeps its
// buffers.
type shardEncoder struct {
	// local maps a dictionary ID to its shard symbol ID plus one; 0 is a
	// name the shard has not used yet. encode resets it per shard.
	local   []uint32
	nsyms   uint32   // symbols the shard has used so far
	newSyms []string // symbols first used in the block being encoded
	head    []byte   // reused: a block's new-symbol list
	cols    []byte   // reused: a block's encoded columns

	rows  int64
	bytes int64 // written to out, magic included

	// AppendList's rows and their dictionary (see listRows).
	list Rows
	dict map[string]uint32
}

// encoders keeps idle shard encoders, buffers and all, between writers: a
// process that writes store after store (an epoch loop, a crawl's Save per
// campaign) reuses them instead of growing new ones for every store.
var encoders = sync.Pool{New: func() any { return new(shardEncoder) }}

// release drops what the encoder still holds of the rows it last encoded,
// so a pooled encoder keeps buffers, not a caller's strings.
func (e *shardEncoder) release() {
	clear(e.list.Domain[:cap(e.list.Domain)])
	clear(e.list.Names[:cap(e.list.Names)])
	clear(e.newSyms[:cap(e.newSyms)])
	clear(e.dict)
}

// encode writes a whole shard to out: magic, header, rows in blocks of
// hdr.BlockRows, end marker. It does not look at what the rows hold.
func (e *shardEncoder) encode(out io.Writer, hdr shardHeader, rows *Rows) error {
	resize(&e.local, len(rows.Names))
	clear(e.local)
	e.nsyms, e.rows, e.bytes = 0, 0, 0
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
	for lo := 0; lo < rows.Len(); lo += hdr.BlockRows {
		if err := e.block(out, rows, lo, min(lo+hdr.BlockRows, rows.Len())); err != nil {
			return err
		}
	}
	end, err := json.Marshal(shardEnd{Rows: e.rows, Symbols: int64(e.nsyms)})
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

// symbol returns the shard symbol for dictionary ID id, scheduling its
// name for the current block's new-symbol list on first use.
func (e *shardEncoder) symbol(id uint32, names []string) uint32 {
	if s := e.local[id]; s != 0 {
		return s - 1
	}
	s := e.nsyms
	e.nsyms++
	e.local[id] = s + 1
	e.newSyms = append(e.newSyms, names[id])
	return s
}

// encodedRowHint sizes a shard's column buffer before its first block: a
// measured row encodes to about 68 bytes, and a low guess only costs the
// append growth the hint is there to avoid.
const encodedRowHint = 80

// block encodes rows [lo, hi) as one columnar 'B' section: the symbols
// first used in the block, the row count, then the columns of shardColumns
// in order. Symbols are numbered in that same scan order, so equal rows
// always produce equal bytes, whatever their dictionary IDs. The rows are
// only read.
func (e *shardEncoder) block(out io.Writer, rows *Rows, lo, hi int) error {
	// Symbols are assigned while the columns are encoded but are written
	// before them, so the two halves are built apart and framed together.
	e.newSyms = e.newSyms[:0]
	if e.cols == nil {
		e.cols = make([]byte, 0, (hi-lo)*encodedRowHint)
	}
	cols := binary.AppendUvarint(e.cols[:0], uint64(hi-lo))
	for c := range shardColumns {
		col := &shardColumns[c]
		switch {
		case col.kind == kindRank:
			for _, rank := range rows.Rank[lo:hi] {
				cols = binary.AppendUvarint(cols, uint64(rank))
			}
		case col.text != nil:
			for _, s := range col.text(rows)[lo:hi] {
				cols = binary.AppendUvarint(cols, uint64(len(s)))
				cols = append(cols, s...)
			}
		case col.addr != nil:
			addrs := col.addr(rows)
			for i := lo; i < hi; i++ {
				text := addrs.at(i)
				cols = binary.AppendUvarint(cols, uint64(len(text)))
				cols = append(cols, text...)
			}
		case col.ids != nil:
			for _, id := range col.ids(rows)[lo:hi] {
				cols = binary.AppendUvarint(cols, uint64(e.symbol(id, rows.Names)))
			}
		case col.bits != nil:
			start := len(cols)
			cols = append(cols, make([]byte, (hi-lo+7)/8)...)
			for i, set := range col.bits(rows)[lo:hi] {
				if set {
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
	e.rows += int64(hi - lo)
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
