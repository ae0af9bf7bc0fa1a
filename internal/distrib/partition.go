package distrib

import (
	"errors"
	"hash/fnv"
	"strings"

	"repro/internal/token"
)

// Shard is one partition of the cluster: an active worker URL plus its
// ordered standby chain.
type Shard struct {
	Worker   string
	Standbys []string
}

// Map is the epoch-stamped partition map. The epoch advances on every
// membership change — a standby promotion repointing a shard — exactly
// like the corpus's token-order epoch: any cached copy is verifiable
// against the current one, so stale routing is detectable (EpochHeader)
// instead of silently wrong.
//
// Maps are value types; the coordinator hands out copies under its lock
// and never mutates a copy a reader might hold.
type Map struct {
	Epoch  uint64
	Shards []Shard
}

// ParseWorkers builds the initial map from the -workers flag syntax:
// comma-separated shard specs, each "primary|standby1|standby2...".
func ParseWorkers(spec string) (Map, error) {
	var m Map
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			if spec == "" {
				break
			}
			return Map{}, errors.New("distrib: empty shard spec in -workers (stray comma?)")
		}
		chain := strings.Split(part, "|")
		for i := range chain {
			chain[i] = strings.TrimRight(strings.TrimSpace(chain[i]), "/")
			if chain[i] == "" {
				return Map{}, errors.New("distrib: empty worker URL in " + part)
			}
		}
		m.Shards = append(m.Shards, Shard{Worker: chain[0], Standbys: chain[1:]})
	}
	if len(m.Shards) == 0 {
		return Map{}, errors.New("distrib: no workers configured")
	}
	return m, nil
}

// clone deep-copies the map so callers outside the coordinator lock can
// hold it.
func (m Map) clone() Map {
	out := Map{Epoch: m.Epoch, Shards: make([]Shard, len(m.Shards))}
	for i, sh := range m.Shards {
		out.Shards[i] = Shard{Worker: sh.Worker, Standbys: append([]string(nil), sh.Standbys...)}
	}
	return out
}

// OwnerOf routes a name to its owning shard by token hash: the name's
// sorted token multiset is hashed (FNV-1a over NUL-joined tokens), so
// the route is a pure function of the string's tokenized identity —
// token-order-insensitive, tokenizer-stable, and independent of the
// map epoch, because the shard count is fixed (nothing moves data
// between shards). Token-less names hash their raw bytes so they still
// spread.
func (m Map) OwnerOf(name string, tok token.Tokenizer) int {
	ts := tok(name)
	h := fnv.New32a()
	if len(ts.Tokens) == 0 {
		h.Write([]byte(name))
	} else {
		for _, t := range ts.Tokens {
			h.Write([]byte(t))
			h.Write([]byte{0})
		}
	}
	return int(h.Sum32() % uint32(len(m.Shards)))
}
