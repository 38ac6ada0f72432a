// Package corpusstore persists a measured corpus as a sharded, binary
// columnar on-disk store, so worlds far beyond what fits in Go maps of
// Website rows — millions of sites — can be ingested, stored, and scored
// within a fixed memory budget. It is the scale substrate ROADMAP's epoch
// engine, webdepd, and federated crawling build on.
//
// # Layout
//
// A store is a directory: one shard file per country plus a manifest.
//
//	<dir>/corpus.manifest   magic "WDEPMAN1" + framed sections
//	<dir>/<CC>.shard        magic "WDEPSHD1" + framed sections
//
// Every file is a magic followed by frames of internal/framing (u32le
// payload length, u32le CRC32, payload), the same frame the checkpoint
// journal is built from. A frame here is a section: by this package's own
// convention the first payload byte is the section type — 'H' (versioned JSON
// header), 'B' (columnar row block, shards only), 'E' (JSON end marker
// carrying totals). Files are written temp → fsync → rename, so a store
// never contains a torn shard: unlike the journal's append-tolerant tail,
// ANY truncation or checksum failure here is hard corruption and is
// reported as a *CorruptError naming the byte offset.
//
// # Shard blocks
//
// Rows are encoded in blocks of BlockRows sites, columnar within each
// block: low-cardinality string columns (providers, countries, continents,
// TLDs, languages) are interned into an append-only per-shard symbol table
// (extending the uint32 interning of internal/dataset's scoring index to
// disk), ranks and symbols are uvarints, anycast flags are bitsets, and
// domains/IPs are raw length-prefixed strings. Each block carries the
// symbols first seen in it, so both writing and reading stream: the writer
// holds at most one block of rows, the reader at most one decoded block.
//
// # Streaming
//
// Ingestion (Writer) and scoring (Store.Score) never materialize a corpus:
// worldgen can emit shards country by country (AppendList encodes a list's
// blocks in place), and scoring streams each shard into the tallies the
// in-memory scoring index merges, producing bit-identical scores
// (dataset.CountryTally / dataset.BuildScoreSet).
//
// # Views
//
// One parser reads a block (columns.go declares the layout it walks), and
// a view decides what it keeps. The row view materialises every column as
// dataset.Website rows (StreamShard, ReadList, Load). The symbol view hands
// out only the provider columns, as shard-local symbol IDs next to the
// shard's name table (Scan): the shard's symbol table already is
// the interning a tally would otherwise redo, so Score and
// depgraph.FromStore count IDs and resolve names once per shard, and build
// no string per row. Both views validate every column of every block.
package corpusstore

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/framing"
	"github.com/webdep/webdep/internal/obs"
)

// Version is the store format version this package writes and accepts.
const Version = 1

// ManifestName is the manifest's file name inside a store directory.
const ManifestName = "corpus.manifest"

var (
	shardMagic    = []byte("WDEPSHD1")
	manifestMagic = []byte("WDEPMAN1")
)

// Section types: every framed payload starts with one of these bytes.
const (
	secHeader = 'H'
	secBlock  = 'B'
	secEnd    = 'E'
)

// maxSectionBytes bounds one framed section's payload: large enough for any
// legitimate block (the default 4096-row blocks encode to a few hundred
// KB), small enough that a garbage length prefix is rejected before any
// allocation.
const maxSectionBytes = 1 << 26

// DefaultBlockRows is the rows-per-block default; one block is the unit of
// writer buffering and reader decoding.
const DefaultBlockRows = 4096

// maxBlockRows caps the rows a single block may declare, bounding reader
// allocation against hostile input.
const maxBlockRows = 1 << 20

// CorruptError reports a store file that cannot be trusted: bad magic, a
// truncated or checksum-corrupt section, an undecodable header, or totals
// that do not match the end marker. Stores are written atomically, so —
// unlike a checkpoint journal's torn tail — corruption is never expected
// residue and is always a hard error with the byte offset of the damage.
type CorruptError = framing.CorruptError

// Options tunes a store writer or reader; nil (or the zero value) is
// production defaults.
type Options struct {
	// Obs selects the metrics registry for the store.* instruments; nil
	// means obs.Default().
	Obs *obs.Registry
	// BlockRows is the writer's rows-per-block; <= 0 means
	// DefaultBlockRows. Readers take the block size from the data.
	BlockRows int
	// Workers bounds per-country concurrency in Load and Score; 0 means
	// one worker per CPU.
	Workers int
}

func (o *Options) orDefault() *Options {
	if o == nil {
		return &Options{}
	}
	return o
}

// storeMetrics are the hoisted obs instruments for the store paths.
type storeMetrics struct {
	shardsWritten  *obs.Counter
	rowsWritten    *obs.Counter
	bytesWritten   *obs.Counter
	shardWriteMS   *obs.Histogram
	manifestWrites *obs.Counter
	shardsStreamed *obs.Counter
	rowsStreamed   *obs.Counter
	bytesStreamed  *obs.Counter
	shardStreamMS  *obs.Histogram
	scoreMS        *obs.Histogram
	corruptions    *obs.Counter
}

func newStoreMetrics(r *obs.Registry) *storeMetrics {
	if r == nil {
		r = obs.Default()
	}
	return &storeMetrics{
		shardsWritten:  r.Counter("store.shards_written"),
		rowsWritten:    r.Counter("store.rows_written"),
		bytesWritten:   r.Counter("store.bytes_written"),
		shardWriteMS:   r.Timing("store.shard_write_ms"),
		manifestWrites: r.Counter("store.manifest_writes"),
		shardsStreamed: r.Counter("store.shards_streamed"),
		rowsStreamed:   r.Counter("store.rows_streamed"),
		bytesStreamed:  r.Counter("store.bytes_streamed"),
		shardStreamMS:  r.Timing("store.shard_stream_ms"),
		scoreMS:        r.Timing("store.score_ms"),
		corruptions:    r.Counter("store.corruptions"),
	}
}

// shardHeader is a shard file's 'H' payload.
type shardHeader struct {
	Version   int    `json:"version"`
	Epoch     string `json:"epoch"`
	Country   string `json:"country"`
	BlockRows int    `json:"block_rows"`
}

// shardEnd is a shard file's 'E' payload: totals cross-checked on read.
type shardEnd struct {
	Rows    int64 `json:"rows"`
	Symbols int64 `json:"symbols"`
}

// manifestShard is one shard's entry in the manifest.
type manifestShard struct {
	Country string `json:"country"`
	File    string `json:"file"`
	Rows    int64  `json:"rows"`
	Bytes   int64  `json:"bytes"`
}

// manifest is the manifest file's 'H' payload: the store's table of
// contents, written last so a crashed ingestion never looks complete.
type manifest struct {
	Version int             `json:"version"`
	Epoch   string          `json:"epoch"`
	Shards  []manifestShard `json:"shards"`
	// Coverage carries the crawl's measurement-loss accounting when the
	// stored corpus came from a live crawl; nil otherwise.
	Coverage map[string]*dataset.Coverage `json:"coverage,omitempty"`
}

// manifestEnd is the manifest's 'E' payload.
type manifestEnd struct {
	Shards int `json:"shards"`
}

// writeSection frames one section to w and returns the bytes written. The
// type byte goes to the framer as the payload's first part, so it is inside
// the length and the checksum; body may be nil.
func writeSection(w io.Writer, typ byte, head, body []byte) (int, error) {
	return framing.Write(w, maxSectionBytes, []byte{typ}, head, body)
}

// nextSection reads the next section off a store file's strict reader and
// splits the type byte from the payload, which is valid only until the next
// read. what names the section the format requires here: the file ending
// instead is corruption, like every other irregularity.
func nextSection(fr *framing.Reader, what string) (typ byte, payload []byte, off int64, err error) {
	payload, off, err = fr.Next()
	switch {
	case err == io.EOF:
		err = fr.Corrupt(off, "missing %s", what)
	case err == nil && len(payload) == 0:
		err = fr.Corrupt(off, "empty section")
	}
	if err != nil {
		return 0, nil, off, err
	}
	return payload[0], payload[1:], off, nil
}

// endOfSections requires the file to stop here, after the section named what.
func endOfSections(fr *framing.Reader, what string) error {
	_, off, err := fr.Next()
	switch err {
	case io.EOF:
		return nil
	case nil:
		return fr.Corrupt(off, "data after %s", what)
	}
	return err
}

// byteReader is a bounds-checked cursor over one section payload; every
// decode failure is reported by the caller as corruption.
type byteReader struct {
	b []byte
	i int
}

var errShortPayload = fmt.Errorf("corpusstore: payload exhausted")

func (r *byteReader) uvarint() (uint64, error) {
	// Most symbol IDs and lengths fit one byte.
	if r.i < len(r.b) && r.b[r.i] < 0x80 {
		r.i++
		return uint64(r.b[r.i-1]), nil
	}
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		return 0, errShortPayload
	}
	r.i += n
	return v, nil
}

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || len(r.b)-r.i < n {
		return nil, errShortPayload
	}
	out := r.b[r.i : r.i+n]
	r.i += n
	return out, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)-r.i) {
		return "", errShortPayload
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// skipStr steps over one length-prefixed string, with str's bounds checks
// and without its allocation, and returns the string's length.
func (r *byteReader) skipStr() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)-r.i) {
		return 0, errShortPayload
	}
	r.i += int(n)
	return int(n), nil
}

func (r *byteReader) remaining() int { return len(r.b) - r.i }

// shardFileName maps a country code to its shard file, refusing codes that
// could escape the store directory.
func shardFileName(cc string) (string, error) {
	if cc == "" {
		return "", fmt.Errorf("corpusstore: empty country code")
	}
	for i := 0; i < len(cc); i++ {
		c := cc[i]
		ok := c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '_'
		if !ok {
			return "", fmt.Errorf("corpusstore: country code %q is not a valid shard name", cc)
		}
	}
	return cc + ".shard", nil
}
