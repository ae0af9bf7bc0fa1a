package stream

import (
	"reflect"
	"testing"
	"time"
)

// TestShardedStatsMerge pins the aggregation used by the cluster
// coordinator: every live counter sums, wall times sum, and the per-shard
// token balance concatenates.
func TestShardedStatsMerge(t *testing.T) {
	a := ShardedStats{
		Strings: 3, Shards: 2, Adds: 3, Queries: 7, Verified: 11,
		BudgetPruned: 2, PrefixPruned: 4, SegPrefixPruned: 1,
		SegKeysProbed: 9, SegTokensChecked: 8, SegTokensSimilar: 5,
		SigPruned:   4,
		CandGenWall: 2 * time.Millisecond, VerifyWall: 3 * time.Millisecond,
		TokensPerShard: []int{4, 2}, Sweeps: 1, SweptEntries: 10,
	}
	b := ShardedStats{
		Strings: 2, Shards: 2, Adds: 2, Queries: 1, Verified: 4,
		BudgetPruned: 1, PrefixPruned: 1, SegPrefixPruned: 2,
		SegKeysProbed: 3, SegTokensChecked: 2, SegTokensSimilar: 1,
		SigPruned:   1,
		CandGenWall: time.Millisecond, VerifyWall: time.Millisecond,
		TokensPerShard: []int{1, 5}, Sweeps: 2, SweptEntries: 4,
	}
	want := ShardedStats{
		Strings: 5, Shards: 4, Adds: 5, Queries: 8, Verified: 15,
		BudgetPruned: 3, PrefixPruned: 5, SegPrefixPruned: 3,
		SegKeysProbed: 12, SegTokensChecked: 10, SegTokensSimilar: 6,
		SigPruned:   5,
		CandGenWall: 3 * time.Millisecond, VerifyWall: 4 * time.Millisecond,
		TokensPerShard: []int{4, 2, 1, 5}, Sweeps: 3, SweptEntries: 14,
	}
	got := a
	got.Merge(b)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge:\n got %+v\nwant %+v", got, want)
	}
	// Merging a zero snapshot is the identity.
	id := a
	id.Merge(ShardedStats{})
	if !reflect.DeepEqual(id, a) {
		t.Fatalf("Merge(zero) changed the snapshot:\n got %+v\nwant %+v", id, a)
	}
}
