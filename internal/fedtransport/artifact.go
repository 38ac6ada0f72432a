// Package fedtransport moves a federated crawl across machine boundaries:
// shard assignments travel from the coordinator to remote vantage workers
// over HTTP, and each vantage's finished checkpoint journal travels back
// as an HMAC-signed artifact. The journals were already the wire protocol
// (shard-descriptor headers, CRC-framed records, typed refusal of foreign
// or corrupt files); this package adds the two things a real network
// demands on top: authenticity — a vantage cannot forge another's results,
// nor replay last generation's journal as this one's — and delivery
// tolerance, with every transport call retried, circuit-broken, and
// per-attempt-bounded through internal/resilience, and artifacts admitted
// to the merge directory whenever they arrive, even after the wave that
// requested them moved on.
//
// # Artifact format
//
//	"WDEPART1" (8 bytes)
//	meta JSON as one frame of internal/framing (u32le length, u32le CRC32)
//	u64le journal length | journal bytes (a complete checkpoint journal)
//	32-byte HMAC-SHA256 trailer
//
// The MAC is keyed per vantage and covers every byte before it — the
// magic, the framed meta (worker, generation, epoch, disarm flag), and the
// embedded journal in full, shard-descriptor header and every CRC frame
// included. Verification therefore rejects any bit flip anywhere in the
// envelope or the journal before a single frame is parsed.
package fedtransport

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/framing"
)

// artifactMagic identifies a journal artifact; the trailing digit is the
// envelope format generation.
var artifactMagic = []byte("WDEPART1")

const (
	// macSize is the HMAC-SHA256 trailer length.
	macSize = sha256.Size
	// maxMetaBytes bounds the framed meta record; real metas are a few
	// hundred bytes.
	maxMetaBytes = 1 << 20
	// MaxArtifactBytes bounds a whole artifact (and therefore the journal a
	// coordinator will buffer to verify). Far above any real shard journal,
	// low enough that a hostile length prefix cannot balloon memory.
	MaxArtifactBytes = 1 << 30
)

// Meta is the artifact's signed envelope header: which vantage produced
// the journal, for which dispatch generation of which campaign, and
// whether the vantage's journal disarmed mid-crawl (in which case the
// artifact carries the durable prefix, and the worker must be treated as
// dead).
type Meta struct {
	Version   int      `json:"version"`
	Worker    string   `json:"worker"`
	Gen       int      `json:"gen"`
	Epoch     string   `json:"epoch"`
	Countries []string `json:"countries"`
	Disarmed  bool     `json:"disarmed,omitempty"`
}

// metaVersion is the envelope version this build writes and accepts.
const metaVersion = 1

// RefusalKind names why a coordinator refused an artifact. Each kind is
// dual-recorded as a fedtransport.refusals.<kind> counter by the Client.
type RefusalKind string

const (
	// RefusedForged: the HMAC trailer does not verify under the vantage's
	// key — a forgery, a bit flip, or a signature by the wrong key.
	RefusedForged RefusalKind = "forged"
	// RefusedTruncated: the artifact ends before its own structure says it
	// should — a cut-short transfer.
	RefusedTruncated RefusalKind = "truncated"
	// RefusedReplayed: the signature verifies but the signed meta names a
	// different worker or generation than this dispatch — a stale or
	// cross-worker replay of a genuine artifact.
	RefusedReplayed RefusalKind = "replayed"
	// RefusedForeign: the signed meta belongs to another campaign (epoch,
	// country set) or another envelope version.
	RefusedForeign RefusalKind = "foreign"
	// RefusedCorrupt: the structure is intact and, where checkable, the
	// signature verifies, yet the content does not parse — bad magic,
	// trailing garbage, an undecodable meta, or an embedded journal that
	// checkpoint's journal walker (over a framing.Reader) refuses. A
	// signed-but-corrupt artifact means the vantage itself shipped damage.
	RefusedCorrupt RefusalKind = "corrupt"
)

// RefusalError is the typed refusal of one artifact. Admission code must
// refuse with one of these — never silently skip — so a partial corpus can
// always be traced to named, counted refusals.
type RefusalError struct {
	Kind   RefusalKind
	Worker string // the worker the artifact was expected from
	Reason string
}

func (e *RefusalError) Error() string {
	return fmt.Sprintf("fedtransport: artifact from %q refused (%s): %s", e.Worker, e.Kind, e.Reason)
}

// Expect pins what a verified artifact must prove it is: signed with this
// key, produced by this worker for this generation of this campaign.
type Expect struct {
	Key       []byte
	Worker    string
	Gen       int
	Epoch     string
	Countries []string
}

// Artifact is a verified artifact: the decoded meta, the embedded journal
// bytes (ready for atomic admission to the merge directory), and what
// checkpoint's journal walker found in them.
type Artifact struct {
	Meta    Meta
	Journal []byte
	Info    *checkpoint.JournalInfo
}

// WriteArtifact streams a signed artifact: the journal is read exactly
// once and the HMAC is computed incrementally, so a vantage can ship a
// large journal without holding the envelope in memory. journalLen must be
// the journal's exact byte length; a mismatch aborts with an error rather
// than emitting an artifact whose structure lies about itself.
func WriteArtifact(w io.Writer, key []byte, meta Meta, journalLen int64, journal io.Reader) error {
	if len(key) == 0 {
		return fmt.Errorf("fedtransport: artifact signing needs a non-empty key")
	}
	if journalLen < 0 {
		return fmt.Errorf("fedtransport: negative journal length %d", journalLen)
	}
	meta.Version = metaVersion
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	mac := hmac.New(sha256.New, key)
	out := io.MultiWriter(w, mac)
	if _, err := out.Write(artifactMagic); err != nil {
		return err
	}
	if _, err := framing.Write(out, maxMetaBytes, mb); err != nil {
		return err
	}
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(journalLen))
	if _, err := out.Write(lenBuf[:]); err != nil {
		return err
	}
	n, err := io.Copy(out, journal)
	if err != nil {
		return err
	}
	if n != journalLen {
		return fmt.Errorf("fedtransport: journal is %d bytes, caller declared %d", n, journalLen)
	}
	_, err = w.Write(mac.Sum(nil))
	return err
}

// VerifyArtifact checks an artifact's structure, signature, and identity
// against what the coordinator dispatched, in that order: structural
// truncation is detected first (a cut-short transfer is transient and
// worth re-fetching), then the HMAC over every preceding byte (constant
// time; any mismatch is a forgery), then the signed identity (campaign,
// worker, generation), and finally the embedded journal through
// checkpoint's journal walker (checkpoint.InspectBytes, the same walk over
// a framing.Reader that Resume and StreamSites use) — including that the
// journal's own shard descriptor agrees with the signed meta, so a vantage
// cannot sign one identity around a journal claiming another.
//
// Every failure is a *RefusalError naming its kind.
func VerifyArtifact(data []byte, exp Expect) (*Artifact, error) {
	refuse := func(kind RefusalKind, format string, args ...any) (*Artifact, error) {
		return nil, &RefusalError{Kind: kind, Worker: exp.Worker, Reason: fmt.Sprintf(format, args...)}
	}
	// Structure first: magic, framed meta, journal length, MAC trailer.
	if len(data) < len(artifactMagic) && bytes.HasPrefix(artifactMagic, data) {
		return refuse(RefusedTruncated, "%d bytes is shorter than the artifact magic", len(data))
	}
	if !bytes.HasPrefix(data, artifactMagic) {
		return refuse(RefusedCorrupt, "not a journal artifact (bad magic)")
	}
	off := len(artifactMagic)
	if len(data)-off < framing.HeaderSize {
		return refuse(RefusedTruncated, "artifact ends inside the meta frame header")
	}
	// The header words only locate the meta record here; its checksum is
	// believed after the signature is.
	metaLen, metaSum := framing.ParseHeader(data[off:])
	if metaLen > maxMetaBytes {
		return refuse(RefusedCorrupt, "meta length %d exceeds maximum %d", metaLen, maxMetaBytes)
	}
	metaStart := off + framing.HeaderSize
	metaEnd := metaStart + int(metaLen)
	if len(data) < metaEnd+8 {
		return refuse(RefusedTruncated, "artifact ends inside the meta record")
	}
	journalLen64 := binary.LittleEndian.Uint64(data[metaEnd:])
	if journalLen64 > MaxArtifactBytes {
		return refuse(RefusedCorrupt, "journal length %d exceeds maximum %d", journalLen64, int64(MaxArtifactBytes))
	}
	journalStart := metaEnd + 8
	journalEnd := journalStart + int(journalLen64)
	total := journalEnd + macSize

	// The MAC trailer is checked against the last 32 bytes before anything
	// signed is trusted; hmac.Equal compares in constant time. When the MAC
	// fails, the structural lengths distinguish a cut-short transfer (worth
	// re-fetching) from genuine tampering (authoritative, never retried);
	// when the structural lengths themselves were flipped in flight, the
	// artifact simply looks truncated or garbled — refused either way.
	macOK := len(data) >= macSize && func() bool {
		mac := hmac.New(sha256.New, exp.Key)
		mac.Write(data[:len(data)-macSize])
		return hmac.Equal(mac.Sum(nil), data[len(data)-macSize:])
	}()
	switch {
	case !macOK && len(data) < total:
		return refuse(RefusedTruncated, "artifact is %d bytes, its structure says %d", len(data), total)
	case !macOK && len(data) > total:
		return refuse(RefusedCorrupt, "%d trailing bytes after the signature", len(data)-total)
	case !macOK:
		return refuse(RefusedForged, "HMAC-SHA256 signature does not verify under this vantage's key")
	case len(data) != total:
		// A genuine signature around a structure that misdescribes itself:
		// the vantage signed garbage.
		return refuse(RefusedCorrupt, "artifact is %d bytes but its signed structure says %d", len(data), total)
	}

	// The signature is genuine; now the signed content must make sense and
	// match this dispatch.
	metaPayload := data[metaStart:metaEnd]
	if framing.Checksum(metaPayload) != metaSum {
		return refuse(RefusedCorrupt, "signed meta record fails its checksum")
	}
	var meta Meta
	if err := json.Unmarshal(metaPayload, &meta); err != nil {
		return refuse(RefusedCorrupt, "undecodable signed meta: %v", err)
	}
	if meta.Version != metaVersion {
		return refuse(RefusedForeign, "artifact version %d, this build reads version %d", meta.Version, metaVersion)
	}
	if meta.Epoch != exp.Epoch {
		return refuse(RefusedForeign, "artifact epoch %q, campaign epoch %q", meta.Epoch, exp.Epoch)
	}
	if !sortedEqual(meta.Countries, exp.Countries) {
		return refuse(RefusedForeign, "artifact countries %v, campaign countries %v", meta.Countries, exp.Countries)
	}
	if meta.Worker != exp.Worker || meta.Gen != exp.Gen {
		return refuse(RefusedReplayed, "artifact signed for worker %q gen %d, this dispatch is worker %q gen %d",
			meta.Worker, meta.Gen, exp.Worker, exp.Gen)
	}

	journal := data[journalStart:journalEnd]
	info, err := checkpoint.InspectBytes(journal, "artifact:"+exp.Worker)
	if err != nil {
		var ce *checkpoint.CorruptError
		if errors.As(err, &ce) {
			return refuse(RefusedCorrupt, "embedded journal: %s at offset %d", ce.Reason, ce.Offset)
		}
		return refuse(RefusedCorrupt, "embedded journal: %v", err)
	}
	if info.Epoch == "" && info.Shard == nil {
		// No header survived. Only a disarmed vantage — killed before its
		// header made it to disk — legitimately ships a headerless journal.
		if !meta.Disarmed {
			return refuse(RefusedCorrupt, "embedded journal carries no header and the vantage did not report a disarm")
		}
	} else {
		if info.Epoch != meta.Epoch || !sortedEqual(info.Countries, meta.Countries) {
			return refuse(RefusedCorrupt, "embedded journal header (epoch %q, %v) contradicts the signed meta (epoch %q, %v)",
				info.Epoch, info.Countries, meta.Epoch, meta.Countries)
		}
		if info.Shard == nil {
			return refuse(RefusedCorrupt, "embedded journal is not a shard journal")
		}
		if info.Shard.Worker != meta.Worker || info.Shard.Gen != meta.Gen {
			return refuse(RefusedReplayed, "embedded journal descriptor %s contradicts the signed meta (worker %q gen %d)",
				info.Shard, meta.Worker, meta.Gen)
		}
	}
	return &Artifact{Meta: meta, Journal: journal, Info: info}, nil
}

func sortedEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
