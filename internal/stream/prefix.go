package stream

import (
	"slices"

	"repro/internal/prefilter"
	"repro/internal/token"
)

// markPrefix implements the streaming half of the threshold-aware prefix
// filters: it calls flag(i) for every distinct token i of ts outside the
// string's threshold-derived prefix, so the shared-token inverted-index
// lookup (prefix filter) and the segment-index probe (segment prefix
// filter) can skip it, and segment storage may (tokenIndex.insert).
// freqs[i] must hold the current document frequency of ts's i-th
// distinct token (0 for never-seen tokens) in the matcher's token space;
// the order is the global rarest-first one, with the same deterministic
// tie-break as the batch engine (frequency ascending, then token
// ascending — distinct tokens are listed in token order, so the index
// breaks frequency ties). keys is a caller-owned scratch buffer, reused
// so steady-state selection allocates nothing.
//
// Why one-sided probing is lossless for the shared-token path:
// index-side strings keep all their tokens in the inverted index, and
// the probe keeps its p = min(distinct, MaxErrors(T, L)+1) rarest
// tokens. For an indexed x with NSLD(q, x) <= T, every distinct token of
// q absent from x costs at least one edit, so
// |distinct(q) \ distinct(x)| <= SLD <= MaxErrors. If no prefix token of
// q occurred in x, the whole prefix would sit inside that difference —
// impossible for a full-length prefix (p = MaxErrors+1), and for a
// truncated one (p = distinct) the strings share no token at all, which
// the unfiltered shared-token probe would also miss. Under a finite
// max-frequency cutoff M the same argument applies to the kept tokens: a
// shared token with freq <= M outside the prefix forces every prefix
// token's frequency at most M, so the M-gate never hides the witnessing
// prefix token — provided the gate judges the same frequencies the
// ordering used, which the matcher guarantees by marking and probing
// under one read lock (genCandidates). Unlike the batch (two-sided)
// filter, no cross-insert order stability is needed: the argument holds
// for the frequencies at probe time, whatever earlier inserts saw.
//
// The same marks bound the similar-token (segment) probe: a qualifying
// pair that shares no token has an untruncated prefix, so every
// similar-witness carrier is a prefix token (prefilter.PrefixLen). The
// one M-shaped corner — a pair whose every shared token sits beyond the
// cutoff, with its witness carrier outside the prefix and so above the
// cutoff too — is why the segment probe carves out tokens beyond the
// cutoff (see tokenIndex.candidates).
func markPrefix(freqs []int32, t float64, ts *token.TokenizedString, keys *[]int64, flag func(i int)) {
	p := prefilter.PrefixLen(t, ts.AggregateLen(), len(freqs))
	if p >= len(freqs) {
		return // the prefix is the whole probe; nothing to skip
	}
	// Pack (freq, probe index) into one ordered key; sorting realizes the
	// global order with its tie-break, and the low half recovers the
	// index. slices.Sort keeps the hot path allocation-free.
	ks := (*keys)[:0]
	for i, f := range freqs {
		ks = append(ks, int64(f)<<32|int64(i))
	}
	*keys = ks
	slices.Sort(ks)
	for _, k := range ks[p:] {
		flag(int(k & 0xffffffff))
	}
}
