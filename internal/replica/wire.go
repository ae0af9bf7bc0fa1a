// Package replica is WAL-shipping replication for the durable corpus:
// a primary-side shipper streams committed, CRC-framed WAL records over
// HTTP to N warm standbys, each of which commits every shipped batch as
// one corpus commit (one fsync) before its ack, so a standby is at all
// times a query-serving replica whose logical state — and therefore
// whose join results — match the primary's acknowledged history.
//
// # Offset space and gap detection
//
// Replication runs on the corpus's logical sequence numbers (LSN =
// total committed mutations; see corpus.LSN): the primary ships batches
// tagged with the LSN they start at, and the standby applies a batch
// only where it meets the standby's own LSN. A batch starting beyond it
// is a gap and is rejected; a batch starting at or below it has its
// already-applied prefix skipped (the retry-after-lost-ack case: the
// primary re-sends records the standby applied but whose ack was
// dropped by the network — skipping the overlap is what makes "no
// duplicated records" a property of the protocol rather than of lucky
// timing). Either way the standby answers with its authoritative LSN
// and the primary simply resumes from there.
//
// # Bootstrap
//
// A follower the ship ring cannot serve (fresh, far behind, or diverged
// — e.g. an old primary rejoining) is re-seeded: the standby wipes its
// engine and the primary streams corpus.BootstrapPayloads in chunks,
// which replays to the identical logical state and LSN. While the
// bootstrap is in flight the standby reports "syncing" (it serves
// whatever it has, but is not promotable and not ready).
//
// # Failure handling
//
// Every request carries a per-frame CRC (recomputed end to end, not
// trusted from disk), connect and per-request timeouts, and per-
// follower retry with exponential backoff and jitter (internal/
// backoff). The standby re-registers with the primary whenever
// heartbeats stop, so either side can die and the pair re-converges;
// the replication torture sweep in this package fails every round trip
// of a reference run in turn to prove it.
//
// Promote seals a caught-up standby: the applier rejects further
// replication traffic, the corpus is fsynced, and the caller flips the
// node's role to writable primary.
package replica

import (
	"hash/crc32"
	"time"
)

// Source is the primary-side replication feed, satisfied by the durable
// corpus (and by tsjoin.Corpus, which embeds it).
type Source interface {
	// LSN is the committed logical sequence number.
	LSN() uint64
	// ShipFrom reads committed payloads starting at an LSN; empty means
	// caught up, corpus.ErrShipBehind/ErrShipAhead mean "bootstrap me".
	ShipFrom(from uint64, maxRecords, maxBytes int) ([][]byte, error)
	// ShipNotify returns a channel closed at the next commit.
	ShipNotify() <-chan struct{}
	// BootstrapPayloads synthesizes the full-state stream and its LSN.
	BootstrapPayloads() ([][]byte, uint64)
}

// Applier is the standby-side engine: the corpus-backed matcher that
// installs replicated records and can be sealed at promotion.
type Applier interface {
	// LSN is the engine's committed logical sequence number.
	LSN() uint64
	// Apply installs a batch of replicated payloads durably, as one
	// commit, up to its first invalid payload, whose error it returns.
	Apply(payloads [][]byte) error
	// Seal flushes the engine to stable storage; called by Promote.
	Seal() error
}

// castagnoli frames every shipped payload; same polynomial as the WAL,
// but recomputed here — the wire does not trust what disk framing the
// record once had.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// wireFrame is one shipped record: payload plus its CRC32-C.
// encoding/json base64s the payload.
type wireFrame struct {
	Payload []byte `json:"p"`
	CRC     uint32 `json:"c"`
}

func makeFrames(payloads [][]byte) []wireFrame {
	out := make([]wireFrame, len(payloads))
	for i, p := range payloads {
		out[i] = wireFrame{Payload: p, CRC: crc32.Checksum(p, castagnoli)}
	}
	return out
}

// registerRequest is the standby's "start shipping to me" handshake:
// POST {primary}/replication/register.
type registerRequest struct {
	// Advertise is the base URL the primary ships to.
	Advertise string `json:"advertise"`
	// LSN is where the standby wants the stream to start.
	LSN uint64 `json:"lsn"`
	// Syncing reports that LSN is an offset into a partial bootstrap
	// (the standby restarted mid-resync), NOT into the primary's real
	// history: the primary must re-seed from scratch, whatever the
	// number says. The two offset spaces coincide only when a bootstrap
	// completes.
	Syncing bool `json:"syncing,omitempty"`
}

type registerResponse struct {
	OK  bool   `json:"ok"`
	LSN uint64 `json:"lsn"` // primary's LSN, for lag display
}

// applyRequest is one shipped batch: POST {standby}/replication/apply.
// Empty Frames is a heartbeat. Resync tells the standby to wipe and
// treat the batch as the start of a bootstrap whose end is SyncTo.
type applyRequest struct {
	From   uint64      `json:"from"`
	Resync bool        `json:"resync,omitempty"`
	SyncTo uint64      `json:"sync_to,omitempty"`
	Frames []wireFrame `json:"frames,omitempty"`
}

// applyResponse always carries the standby's authoritative LSN — after
// a gap rejection, a partial apply, or a clean batch alike, the primary
// resumes from exactly this offset. Syncing qualifies which offset
// space that LSN lives in: while true it indexes the bootstrap stream,
// not real history, and the primary must keep (re-)seeding rather than
// serve ring records at it. Sealed tells an old primary to stop
// shipping: the standby was promoted.
type applyResponse struct {
	LSN     uint64 `json:"lsn"`
	Syncing bool   `json:"syncing,omitempty"`
	Sealed  bool   `json:"sealed,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Defaults shared by both ends, and the fixed limits: batchBytes bounds
// one apply request's payload bytes, and connectTimeout bounds dialing
// on the built-in client (a caller-supplied Client brings its own).
const (
	defaultBatchRecords   = 256
	defaultHeartbeat      = 2 * time.Second
	defaultRequestTimeout = 10 * time.Second
	batchBytes            = 1 << 20
	connectTimeout        = 5 * time.Second
	// maxApplyBody bounds a decoded apply request on the standby; a
	// batch is at most BatchRecords × maxWALPayload-ish, but in practice
	// far below this.
	maxApplyBody = 64 << 20
)
