// Package distrib is the scale-out layer of tsjserve: a coordinator
// that owns an epoch-stamped token-hash partition map over a fleet of
// worker nodes (each one a corpus-backed tsjserve, optionally with its
// own PR 8 standby chain), routes writes to the owning worker,
// scatter-gathers queries across all workers, and drives the
// distributed join phases through the internal/mapreduce seam with
// workers as the executors.
//
// The coordinator answers the same /add, /query, /join and /delete wire
// contract a single tsjserve node does — clients do not care whether
// they talk to one node or a cluster — plus /cluster (membership and
// partition map), /cluster/selfjoin (the distributed corpus-wide join)
// and an aggregated cluster-wide /stats. It does so as plain methods
// (Add, Query, Join, Delete, SelfJoin, Stats, CheckEpoch, Ready) that
// return these wire types, or an *httpx.StatusError carrying the status
// a failure answers with; HTTP is only its RPC client. internal/serve
// owns every handler: it serves a Coordinator through the same handlers,
// error mapping and request lifecycle (load shedding at -max-inflight,
// panic recovery, latency and endpoint counters on /stats) as a node.
// The request and response types below ARE that contract: the node
// encodes exactly these, so Match is the single-node type rather than a
// copy of it.
//
// Identity: the coordinator assigns global ids in arrival order —
// exactly the sequence numbers a single node would have assigned — and
// keeps the global↔(shard, local id) translation. Equivalence with a
// single node is therefore byte-level on the result sets, which is what
// the cluster equivalence tests assert.
package distrib

import (
	"time"

	"repro/internal/stream"
)

// EpochHeader is the request header a routing-aware client stamps with
// the partition-map epoch it last saw. The coordinator answers 409 with
// the current map when the epoch is stale, so a client that cached the
// map (or a secondary router) detects repartitioning instead of acting
// on dead routing state.
const EpochHeader = "X-TSJ-Cluster-Epoch"

// Match is the wire form of one match.
type Match struct {
	ID   int     `json:"id"`
	SLD  int     `json:"sld"`
	NSLD float64 `json:"nsld"`
}

// Matches converts engine matches to the wire form. The result is never
// nil, so an empty list encodes as [] rather than null.
func Matches(ms []stream.Match) []Match {
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{ID: m.ID, SLD: m.SLD, NSLD: m.NSLD}
	}
	return out
}

// AddRequest / AddResponse are POST /add.
type AddRequest struct {
	Name string `json:"name"`
}
type AddResponse struct {
	ID      int     `json:"id"`
	Matches []Match `json:"matches"`
}

// QueryRequest / QueryResponse are POST /query. MissingShards is only
// present on a coordinator answering a ?partial=true query that lost
// shards: it lists the partition indices whose workers did not answer
// within the deadline, so the caller knows exactly how incomplete the
// result set may be.
type QueryRequest struct {
	Name string `json:"name"`
}
type QueryResponse struct {
	Matches       []Match `json:"matches"`
	MissingShards []int   `json:"missing_shards,omitempty"`
}

// JoinRequest / JoinResponse are POST /join (atomic batch add).
type JoinRequest struct {
	Names []string `json:"names"`
}
type JoinResult struct {
	ID      int     `json:"id"`
	Matches []Match `json:"matches"`
}
type JoinResponse struct {
	First   int          `json:"first"`
	Results []JoinResult `json:"results"`
}

// DeleteRequest / DeleteResponse are POST /delete. ID is a pointer so a
// missing field is distinguishable from id 0.
type DeleteRequest struct {
	ID *int `json:"id"`
}
type DeleteResponse struct {
	Deleted int `json:"deleted"`
}

// JoinConfig carries the join pipeline configuration on the distributed
// self-join and probe-join wire: every worker must run the phases under
// the same knobs or the merged result set is not the single-node one.
type JoinConfig struct {
	Threshold    float64 `json:"threshold"`
	MaxTokenFreq int     `json:"max_token_freq,omitempty"`
	ExactTokens  bool    `json:"exact_tokens,omitempty"`
	Greedy       bool    `json:"greedy,omitempty"`
}

// SelfJoinRequest is POST /cluster/selfjoin on the coordinator and
// /cluster/selfjoin on a worker (local shard self-join).
type SelfJoinRequest struct {
	JoinConfig
}

// ProbeJoinRequest is POST /cluster/probe on a worker: a bipartite join
// of the posted probe token multisets against the worker's live corpus
// (tsj.JoinCorpus — the corpus side reads its stored frequencies). Tokens
// travel the wire already tokenized so no per-node tokenizer drift can
// split the cluster's notion of a string.
type ProbeJoinRequest struct {
	JoinConfig
	Probes [][]string `json:"probes"`
}

// Pair is one joined pair on the wire. For a worker /cluster/selfjoin
// both ids are worker-local; for /cluster/probe A is worker-local and B
// indexes the posted probes; for the coordinator /cluster/selfjoin both
// are global ids with A < B.
type Pair struct {
	A    int     `json:"a"`
	B    int     `json:"b"`
	SLD  int     `json:"sld"`
	NSLD float64 `json:"nsld"`
}

// PairsResponse carries a pair set.
type PairsResponse struct {
	Pairs []Pair `json:"pairs"`
}

// StringsResponse is GET /cluster/strings on a worker: the live corpus
// as (local id, sorted token multiset) rows, the probe-side feed of the
// distributed join's cross-shard phase.
type StringsResponse struct {
	IDs    []int      `json:"ids"`
	Tokens [][]string `json:"tokens"`
}

// WorkerStats is the funnel-counter subset of a worker's /stats body —
// the fields the coordinator folds into the cluster-wide aggregate. Its
// json tags are the single source of truth for those field names:
// tsjserve embeds it in its /stats response, so the producer and the
// aggregating consumer cannot drift.
type WorkerStats struct {
	Strings      int   `json:"strings"`
	Shards       int   `json:"shards"`
	Adds         int64 `json:"adds"`
	Queries      int64 `json:"queries"`
	Verified     int64 `json:"verified"`
	BudgetPruned int64 `json:"budget_pruned"`
	PrefixPruned int64 `json:"prefix_pruned"`
	// Segment-probe funnel: probe tokens skipped by the segment prefix
	// filter, window fingerprint lookups, tokens reaching the token-NLD
	// check, and tokens within the token threshold.
	SegPrefixPruned  int64 `json:"seg_prefix_pruned"`
	SegKeysProbed    int64 `json:"seg_keys_probed"`
	SegTokensChecked int64 `json:"seg_tokens_checked"`
	SegTokensSimilar int64 `json:"seg_tokens_similar"`
	// SigPruned counts verifications the signature pre-pass rejected
	// before any DP cell.
	SigPruned int64 `json:"sig_pruned"`
	// Wall times in milliseconds so dashboards need no duration parsing.
	CandGenWallMs  float64 `json:"cand_gen_wall_ms"`
	VerifyWallMs   float64 `json:"verify_wall_ms"`
	TokensPerShard []int   `json:"tokens_per_shard"`
}

// FromShardedStats converts a matcher snapshot to the wire form.
func FromShardedStats(st stream.ShardedStats) WorkerStats {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return WorkerStats{
		Strings: st.Strings, Shards: st.Shards,
		Adds: st.Adds, Queries: st.Queries, Verified: st.Verified,
		BudgetPruned: st.BudgetPruned, PrefixPruned: st.PrefixPruned,
		SegPrefixPruned: st.SegPrefixPruned, SegKeysProbed: st.SegKeysProbed,
		SegTokensChecked: st.SegTokensChecked, SegTokensSimilar: st.SegTokensSimilar,
		SigPruned:     st.SigPruned,
		CandGenWallMs: ms(st.CandGenWall), VerifyWallMs: ms(st.VerifyWall),
		TokensPerShard: st.TokensPerShard,
	}
}

// Sharded converts the wire form back to a matcher-stats value so
// remote snapshots can fold through stream.ShardedStats.Merge.
func (ws WorkerStats) Sharded() stream.ShardedStats {
	dur := func(msf float64) time.Duration { return time.Duration(msf * float64(time.Millisecond)) }
	return stream.ShardedStats{
		Strings: ws.Strings, Shards: ws.Shards,
		Adds: ws.Adds, Queries: ws.Queries, Verified: ws.Verified,
		BudgetPruned: ws.BudgetPruned, PrefixPruned: ws.PrefixPruned,
		SegPrefixPruned: ws.SegPrefixPruned, SegKeysProbed: ws.SegKeysProbed,
		SegTokensChecked: ws.SegTokensChecked, SegTokensSimilar: ws.SegTokensSimilar,
		SigPruned:   ws.SigPruned,
		CandGenWall: dur(ws.CandGenWallMs), VerifyWall: dur(ws.VerifyWallMs),
		TokensPerShard: ws.TokensPerShard,
	}
}

// ShardStatus is one partition's row in GET /cluster.
type ShardStatus struct {
	// Worker is the active (writable) node; Standbys its failover chain
	// in promotion order.
	Worker   string   `json:"worker"`
	Standbys []string `json:"standbys,omitempty"`
	// Alive reflects the heartbeat: false after FailAfter consecutive
	// missed heartbeats (the shard is then a promotion candidate).
	Alive bool `json:"alive"`
	// Strings is the number of global ids routed to this shard.
	Strings int `json:"strings"`
	// Failovers counts standby promotions the coordinator performed.
	Failovers int `json:"failovers"`
}

// ClusterStatus is GET /cluster: the epoch-stamped membership view.
type ClusterStatus struct {
	Epoch   uint64        `json:"epoch"`
	Strings int           `json:"strings"`
	Live    int           `json:"live"`
	Shards  []ShardStatus `json:"shards"`
}

// StaleEpochResponse is the 409 body for a stale EpochHeader: the error
// plus the current map so the client refreshes in one round trip.
type StaleEpochResponse struct {
	Error   string        `json:"error"`
	Cluster ClusterStatus `json:"cluster"`
}

// ClusterStats is the coordinator's aggregated GET /stats body.
type ClusterStats struct {
	Epoch   uint64 `json:"epoch"`
	Strings int    `json:"strings"`
	Live    int    `json:"live"`
	// Cluster is the fold of every reachable worker's funnel counters
	// (stream.ShardedStats.Merge over the wire snapshots).
	Cluster WorkerStats          `json:"cluster"`
	Workers []ClusterWorkerStats `json:"workers"`
}

// ClusterWorkerStats is one worker's row in the aggregated /stats.
type ClusterWorkerStats struct {
	Worker string       `json:"worker"`
	Alive  bool         `json:"alive"`
	Stats  *WorkerStats `json:"stats,omitempty"`
	Error  string       `json:"error,omitempty"`
}
