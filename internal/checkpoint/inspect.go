package checkpoint

import (
	"bytes"

	"github.com/webdep/webdep/internal/framing"
)

// InspectBytes runs the journal walker over an in-memory byte slice — the
// verification hook for journals that arrive over a transport rather than
// from disk. A remote vantage ships its finished shard journal home inside
// a signed artifact; the coordinator must validate the framing (magic,
// length prefixes, CRC32 checksums, decodable header and records) BEFORE
// admitting the bytes to the merge directory, without writing a temp file
// just to scan it.
//
// Recovery semantics are the journal's (see walk): a torn FINAL record is
// tolerated and flagged Truncated, damage before it is a *CorruptError.
// name appears as the Path of any *CorruptError, since the bytes have no
// path of their own yet.
func InspectBytes(data []byte, name string) (*JournalInfo, error) {
	fr := framing.NewReader(bytes.NewReader(data), int64(len(data)), name, maxRecordBytes, framing.TolerateTornTail)
	return walk(fr, nil, nil)
}
