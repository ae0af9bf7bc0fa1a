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
// # Install
//
// A follower the ship ring cannot serve (fresh, far behind, or diverged
// — e.g. an old primary rejoining) is seeded with the primary's
// snapshot: one raw-body POST /replication/install carrying
// corpus.SnapshotBytes, the same CRC-checked encoding every restart
// loads. The standby receives and checks the body without its lock,
// then swaps in an engine opened from it (corpus.Install, then the
// restart path) and answers the installed LSN — an offset into the
// primary's real history, at which the primary resumes streaming from
// the ring. A crash at any point of an install leaves the standby's
// directory as it was or as exactly the installed state, so there is
// one offset space and nothing to persist about an install in flight.
// While one is in flight the standby reports "syncing" (it serves
// whatever it has, but is not promotable and not ready).
//
// # Shipping cadence
//
// The shipper paces a steady trickle of commits into batches. Before it
// ships a backlog (the primary's LSN minus the follower's cursor) under
// BatchRecords/8 records, it waits until shipInterval (1 ms) after the
// previous apply began, or until the backlog reaches that bound, and
// then ships everything committed since, up to BatchRecords records and
// batchBytes bytes. So one apply carries a millisecond of commits, not
// one, and both ends pay the per-request HTTP and JSON cost once per
// batch. A backlog at or over the bound ships at once, batch after
// batch, and so do heartbeats and installs.
//
// The price is lag: under steady load a standby trails the primary's
// acknowledged history by at most shipInterval plus one round trip,
// where an unpaced shipper trails by one round trip. Replication is
// asynchronous, so a standby promoted at that instant lacks up to that
// much acknowledged history.
//
// # Failure handling
//
// Every shipped frame carries a CRC (recomputed end to end, not trusted
// from disk) and every snapshot its own; every request has connect and
// per-request timeouts and per-follower retry with exponential backoff
// and jitter (internal/backoff). The standby re-registers with the primary whenever
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
	// caught up, corpus.ErrShipBehind/ErrShipAhead mean "install me".
	ShipFrom(from uint64, maxRecords, maxBytes int) ([][]byte, error)
	// ShipNotify returns a channel closed at the next commit.
	ShipNotify() <-chan struct{}
	// SnapshotBytes encodes the current state as a snapshot, with its LSN.
	SnapshotBytes() ([]byte, uint64)
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
}

type registerResponse struct {
	OK  bool   `json:"ok"`
	LSN uint64 `json:"lsn"` // primary's LSN, for lag display
}

// applyRequest is one shipped batch: POST {standby}/replication/apply.
// Empty Frames is a heartbeat.
type applyRequest struct {
	From   uint64      `json:"from"`
	Frames []wireFrame `json:"frames,omitempty"`
}

// applyResponse answers an apply and an install alike. It always
// carries the standby's authoritative LSN — after a gap rejection, a
// partial apply, a clean batch or an install, the primary resumes from
// exactly this offset. Sealed tells an old primary to stop shipping: the
// standby was promoted.
type applyResponse struct {
	LSN    uint64 `json:"lsn"`
	Sealed bool   `json:"sealed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Defaults shared by both ends, and the fixed limits: batchBytes bounds
// one apply request's payload bytes (and an install's deadline grows by
// one RequestTimeout per batchBytes of snapshot), and connectTimeout
// bounds dialing on the built-in client (a caller-supplied Client brings
// its own).
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
	// maxInstallBody bounds a snapshot the standby reads into memory, as
	// a restart reads its snapshot file.
	maxInstallBody = 4 << 30
)
