package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fuzzyset"
	"repro/internal/hmj"
	"repro/internal/namegen"
	"repro/internal/roc"
	"repro/internal/stream"
	"repro/internal/token"
	"repro/internal/tsj"
)

// Fig1 reproduces Fig. 1: TSJ runtime while varying the number of
// MapReduce machines and the de-duplication strategy (grouping-on-one-
// string vs grouping-on-both-strings). Paper shape: both scale out with a
// ~3.8x speedup over 10x machines; one-string is 13–32% faster.
func Fig1(w Workload) *Table {
	c := w.Corpus()
	opts := tsj.DefaultOptions()
	opts.MapTasks = simMapTasks

	opts.Dedup = tsj.GroupOnOneString
	_, stOne, err := tsj.SelfJoin(c, opts)
	if err != nil {
		panic(err)
	}
	opts.Dedup = tsj.GroupOnBothStrings
	_, stBoth, err := tsj.SelfJoin(c, opts)
	if err != nil {
		panic(err)
	}

	cluster := calibrate(&stOne.Pipeline)
	t := &Table{
		ID:     "fig1",
		Title:  "TSJ runtime vs machines and deduping strategy (simulated seconds)",
		Header: []string{"machines", "grouping-on-one-string", "grouping-on-both-strings"},
	}
	var first, last [2]float64
	for _, m := range Machines {
		cl := cluster(m)
		one := cl.PipelineSeconds(&stOne.Pipeline)
		both := cl.PipelineSeconds(&stBoth.Pipeline)
		t.AddRow(m, fmtSecs(one), fmtSecs(both))
		if m == Machines[0] {
			first = [2]float64{one, both}
		}
		if m == Machines[len(Machines)-1] {
			last = [2]float64{one, both}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("speedup 100->1000 machines: one-string %.2fx, both-strings %.2fx (paper: ~3.8x)",
			first[0]/last[0], first[1]/last[1]),
		fmt.Sprintf("one-string faster by %.0f%%..%.0f%% (paper: 13%%..32%%)",
			100*(1-minf(first[0]/first[1], last[0]/last[1])),
			100*(1-maxf(first[0]/first[1], last[0]/last[1]))),
	)
	return t
}

// sweepT runs the three matching/aligning algorithms over the T sweep,
// returning per-threshold simulated runtimes and the discovered pairs,
// each mapped to its reported SLD. Shared by Fig2 (runtime) and Fig4
// (accuracy).
func sweepT(w Workload) (runtimes [][3]float64, found [][3]map[[2]int]int) {
	c := w.Corpus()
	runtimes = make([][3]float64, len(Thresholds))
	found = make([][3]map[[2]int]int, len(Thresholds))
	var calOnce func(machines int) func(*tsj.Stats) float64
	for ti, T := range Thresholds {
		for ai, cfg := range []struct {
			matching tsj.Matching
			aligning tsj.Aligning
		}{
			{tsj.FuzzyTokenMatching, tsj.HungarianAligning}, // fuzzy-token-matching
			{tsj.FuzzyTokenMatching, tsj.GreedyAligning},    // greedy-token-aligning
			{tsj.ExactTokenMatching, tsj.HungarianAligning}, // exact-token-matching
		} {
			opts := tsj.DefaultOptions()
			opts.MapTasks = simMapTasks
			opts.Threshold = T
			opts.Matching = cfg.matching
			opts.Aligning = cfg.aligning
			res, st, err := tsj.SelfJoin(c, opts)
			if err != nil {
				panic(err)
			}
			if calOnce == nil {
				cal := calibrate(&st.Pipeline)
				calOnce = func(machines int) func(*tsj.Stats) float64 {
					cl := cal(machines)
					return func(s *tsj.Stats) float64 { return cl.PipelineSeconds(&s.Pipeline) }
				}
			}
			runtimes[ti][ai] = calOnce(1000)(st)
			pairs := make(map[[2]int]int, len(res))
			for _, r := range res {
				pairs[[2]int{int(r.A), int(r.B)}] = r.SLD
			}
			found[ti][ai] = pairs
		}
	}
	return runtimes, found
}

// Fig2 reproduces Fig. 2: runtime while varying the NSLD threshold T for
// fuzzy-token-matching, greedy-token-aligning and exact-token-matching.
// Paper shape: greedy saves ~13% on average (more at large T); exact
// saves ~60% and stays nearly flat in T.
func Fig2(w Workload) *Table {
	runtimes, _ := sweepT(w)
	return tableFromSweepT(runtimes)
}

func tableFromSweepT(runtimes [][3]float64) *Table {
	t := &Table{
		ID:     "fig2",
		Title:  "TSJ runtime vs NSLD threshold T and matching/aligning algorithm (simulated seconds, 1000 machines)",
		Header: []string{"T", "fuzzy-token-matching", "greedy-token-aligning", "exact-token-matching"},
	}
	var gSave, eSave float64
	for ti, T := range Thresholds {
		r := runtimes[ti]
		t.AddRow(T, fmtSecs(r[0]), fmtSecs(r[1]), fmtSecs(r[2]))
		gSave += 1 - r[1]/r[0]
		eSave += 1 - r[2]/r[0]
	}
	n := float64(len(Thresholds))
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean runtime saving over fuzzy: greedy %.0f%% (paper: 13%%), exact %.0f%% (paper: 60%%)",
			100*gSave/n, 100*eSave/n))
	return t
}

// Fig4 reproduces Fig. 4: the number of discovered pairs (and hence the
// recall of the approximations) while varying T. Paper shape: greedy
// recall 1.0 -> 0.99993; exact recall 1.0 -> 0.86655 as T grows to 0.225.
func Fig4(w Workload) *Table {
	_, found := sweepT(w)
	return tableFromFound(found)
}

// tableFromFound renders Fig. 4 from sweepT's discovered pairs.
func tableFromFound(found [][3]map[[2]int]int) *Table {
	t := &Table{
		ID:     "fig4",
		Title:  "Discovered pairs vs NSLD threshold T (recall relative to fuzzy-token-matching)",
		Header: []string{"T", "fuzzy pairs", "greedy pairs", "exact pairs", "recall(greedy)", "recall(exact)"},
	}
	for ti, T := range Thresholds {
		var cnt [3]int64
		for ai, pairs := range found[ti] {
			cnt[ai] = int64(len(pairs))
		}
		t.AddRow(T, cnt[0], cnt[1], cnt[2],
			fmtRecall(ratio(cnt[1], cnt[0])), fmtRecall(ratio(cnt[2], cnt[0])))
	}
	t.Notes = append(t.Notes,
		"paper: recall(greedy) 1.0 -> 0.99993, recall(exact) 1.0 -> 0.86655 as T -> 0.225")
	return t
}

// sweepM is the M counterpart of sweepT (Figs. 3 and 5), at T = 0.1.
func sweepM(w Workload) (runtimes [][3]float64, counts [][3]int64) {
	c := w.Corpus()
	runtimes = make([][3]float64, len(MaxFreqs))
	counts = make([][3]int64, len(MaxFreqs))
	var calOnce func(*tsj.Stats) float64
	for mi, M := range MaxFreqs {
		for ai, cfg := range []struct {
			matching tsj.Matching
			aligning tsj.Aligning
		}{
			{tsj.FuzzyTokenMatching, tsj.HungarianAligning},
			{tsj.FuzzyTokenMatching, tsj.GreedyAligning},
			{tsj.ExactTokenMatching, tsj.HungarianAligning},
		} {
			opts := tsj.DefaultOptions()
			opts.MapTasks = simMapTasks
			opts.MaxTokenFreq = M
			opts.Matching = cfg.matching
			opts.Aligning = cfg.aligning
			res, st, err := tsj.SelfJoin(c, opts)
			if err != nil {
				panic(err)
			}
			if calOnce == nil {
				cal := calibrate(&st.Pipeline)
				cl := cal(1000)
				calOnce = func(s *tsj.Stats) float64 { return cl.PipelineSeconds(&s.Pipeline) }
			}
			runtimes[mi][ai] = calOnce(st)
			counts[mi][ai] = int64(len(res))
		}
	}
	return runtimes, counts
}

// Fig3 reproduces Fig. 3: runtime while varying the max token frequency M.
// Paper shape: greedy saves ~9%, exact ~33%, both fairly stable across M.
func Fig3(w Workload) *Table {
	runtimes, _ := sweepM(w)
	t := &Table{
		ID:     "fig3",
		Title:  "TSJ runtime vs max-frequency M and matching/aligning algorithm (simulated seconds, 1000 machines, T=0.1)",
		Header: []string{"M", "fuzzy-token-matching", "greedy-token-aligning", "exact-token-matching"},
	}
	var gSave, eSave float64
	for mi, M := range MaxFreqs {
		r := runtimes[mi]
		t.AddRow(M, fmtSecs(r[0]), fmtSecs(r[1]), fmtSecs(r[2]))
		gSave += 1 - r[1]/r[0]
		eSave += 1 - r[2]/r[0]
	}
	n := float64(len(MaxFreqs))
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean runtime saving over fuzzy: greedy %.0f%% (paper: 9%%), exact %.0f%% (paper: 33%%)",
			100*gSave/n, 100*eSave/n))
	return t
}

// Fig5 reproduces Fig. 5: discovered pairs (recall) while varying M.
// Paper shape: recall(greedy) ~0.999999 flat; recall(exact) 0.974–0.985.
func Fig5(w Workload) *Table {
	_, counts := sweepM(w)
	t := &Table{
		ID:     "fig5",
		Title:  "Discovered pairs vs max-frequency M (recall relative to fuzzy-token-matching, T=0.1)",
		Header: []string{"M", "fuzzy pairs", "greedy pairs", "exact pairs", "recall(greedy)", "recall(exact)"},
	}
	for mi, M := range MaxFreqs {
		cnt := counts[mi]
		t.AddRow(M, cnt[0], cnt[1], cnt[2],
			fmtRecall(ratio(cnt[1], cnt[0])), fmtRecall(ratio(cnt[2], cnt[0])))
	}
	t.Notes = append(t.Notes,
		"paper: recall(greedy) ~0.999999 across M; recall(exact) between 0.974 and 0.985")
	return t
}

// Fig6 reproduces Fig. 6: ROC curves of NSLD vs the weighted set-based
// fuzzy measures when predicting fraudulent accounts from the distance
// between the old and new names on an account. Paper shape: NSLD
// dominates FJaccard/FCosine/FDice.
func Fig6(w Workload) *Table {
	nc := w.NumChanges
	if nc <= 0 {
		nc = 10000 // the paper's sample size
	}
	pairs := namegen.NameChanges(namegen.ChangeConfig{
		Seed:     w.Seed,
		NumLegit: nc / 2,
		NumFraud: nc - nc/2,
	})
	// Weigh tokens by IDF over the old names, mirroring the "weighted
	// versions" of the set-based measures.
	oldNames := make([]string, len(pairs))
	for i, p := range pairs {
		oldNames[i] = p.Old
	}
	idf := fuzzyset.IDFWeights(token.BuildCorpus(oldNames, token.WhitespaceAndPunct))
	fopt := fuzzyset.Options{TokenThreshold: 0.75, Weights: idf}

	labels := make([]bool, len(pairs))
	nsldScores := make([]float64, len(pairs))
	fjac := make([]float64, len(pairs))
	fcos := make([]float64, len(pairs))
	fdice := make([]float64, len(pairs))
	for i, p := range pairs {
		a := token.WhitespaceAndPunct(p.Old)
		b := token.WhitespaceAndPunct(p.New)
		labels[i] = p.Fraud
		nsldScores[i] = core.NSLD(a, b)
		fjac[i] = fuzzyset.Distance(fuzzyset.FJaccard, a, b, fopt)
		fcos[i] = fuzzyset.Distance(fuzzyset.FCosine, a, b, fopt)
		fdice[i] = fuzzyset.Distance(fuzzyset.FDice, a, b, fopt)
	}

	t := &Table{
		ID:     "fig6",
		Title:  "ROC of NSLD vs weighted set-based fuzzy measures for fraud prediction",
		Header: []string{"measure", "AUC", "TPR@FPR=0.01", "TPR@FPR=0.05", "TPR@FPR=0.10"},
	}
	add := func(name string, scores []float64) {
		t.AddRow(name,
			fmtRecall(roc.AUC(scores, labels)),
			fmtRecall(roc.AtFPR(scores, labels, 0.01)),
			fmtRecall(roc.AtFPR(scores, labels, 0.05)),
			fmtRecall(roc.AtFPR(scores, labels, 0.10)))
	}
	add("NSLD", nsldScores)
	add("weighted FJaccard", fjac)
	add("weighted FCosine", fcos)
	add("weighted FDice", fdice)
	t.Notes = append(t.Notes, "paper: NSLD is superior to all set-based fuzzy measures")
	return t
}

// Fig7 reproduces Fig. 7: TSJ vs the Hybrid Metric Joiner while varying
// machines. Paper shape: TSJ is 12–15x faster; HMJ does not finish on 100
// machines in reasonable time.
func Fig7(w Workload) *Table {
	n := w.HMJNames
	if n <= 0 {
		n = w.NumNames
	}
	sub := w
	sub.NumNames = n
	c := sub.Corpus()

	opts := tsj.DefaultOptions()
	opts.MapTasks = simMapTasks
	_, st, err := tsj.SelfJoin(c, opts)
	if err != nil {
		panic(err)
	}

	metric := func(a, b token.TokenizedString) float64 { return core.NSLD(a, b) }
	distCost := avgVerifyCost(c)
	_, hmjPipe := hmj.SelfJoin(c.Strings, metric, opts.Threshold, hmj.Config{
		Seed:     w.Seed,
		DistCost: distCost,
		MapTasks: simMapTasks,
	})

	cluster := calibrate(&st.Pipeline)
	t := &Table{
		ID:     "fig7",
		Title:  "TSJ vs Hybrid Metric Joiner runtime vs machines (simulated seconds)",
		Header: []string{"machines", "TSJ", "HMJ", "HMJ/TSJ"},
	}
	for _, m := range Machines {
		cl := cluster(m)
		tsjSec := cl.PipelineSeconds(&st.Pipeline)
		hmjSec := cl.PipelineSeconds(hmjPipe)
		t.AddRow(m, fmtSecs(tsjSec), fmtSecs(hmjSec), fmtSecs(hmjSec/tsjSec))
	}
	t.Notes = append(t.Notes,
		"paper: TSJ 12-15x faster than HMJ; HMJ did not finish on 100 machines in reasonable time")
	return t
}

// Funnel renders the candidate-filter funnel across the T sweep: raw
// candidates generated, then each pruning stage — prefix
// (positional/length at probe time), the Sec. III-E filters, the
// verify-stage SLD budget — down to verified pairs and results. It is the
// end-to-end view of where candidate work dies.
func Funnel(w Workload) *Table {
	c := w.Corpus()
	t := &Table{
		ID:    "funnel",
		Title: "Candidate filter funnel vs NSLD threshold T (default join configuration)",
		Header: []string{"T", "generated(prefix)", "prefix-pruned",
			"seg-pruned", "deduped", "len-pruned", "lb-pruned", "verified", "budget-pruned", "sig-pruned", "results"},
	}
	for _, T := range Thresholds {
		opts := tsj.DefaultOptions()
		opts.MapTasks = simMapTasks
		opts.Threshold = T
		_, st, err := tsj.SelfJoin(c, opts)
		if err != nil {
			panic(err)
		}
		t.AddRow(T,
			st.SharedTokenCandidates+st.SimilarTokenCandidates,
			st.PrefixPruned, st.SegPrefixPruned, st.DedupedCandidates, st.LengthPruned, st.LBPruned,
			st.Verified, st.BudgetPruned, st.SigPruned, st.Results)
	}
	t.Notes = append(t.Notes,
		"generated counts raw shared+similar candidate records before dedup",
		"prefix-pruned counts pairs rejected by the positional/length filters at their first common prefix token",
		"seg-pruned counts posting entries the segment prefix filter excluded from the similar-token expansion",
		"sig-pruned is the part of budget-pruned the verifier's character-signature pre-pass decided before any DP cell",
	)
	return t
}

// SegmentFunnel renders the streaming similar-token probe funnel across a
// T sweep: every workload name is streamed through a one-shard matcher,
// and the per-stage counters — probe tokens pruned, window fingerprints
// probed, tokens reaching the token-NLD check, tokens similar — show
// where segment-probe work dies, next to the candidate-generation wall
// clock.
func SegmentFunnel(w Workload) *Table {
	names := namegen.Generate(namegen.Config{Seed: w.Seed, NumNames: w.NumNames})
	t := &Table{
		ID:    "segfunnel",
		Title: "Streaming segment-probe funnel vs NSLD threshold T (one-shard matcher)",
		Header: []string{"T", "seg-pruned", "keys-probed", "tokens-checked",
			"tokens-similar", "candgen-ms"},
	}
	for _, T := range []float64{0.05, 0.1, 0.2} {
		m, err := stream.NewShardedMatcher(stream.Options{Threshold: T}, 1)
		if err != nil {
			panic(err)
		}
		for _, n := range names {
			m.Add(n)
		}
		st := m.Stats()
		m.Close()
		t.AddRow(T, st.SegPrefixPruned, st.SegKeysProbed,
			st.SegTokensChecked, st.SegTokensSimilar,
			fmt.Sprintf("%.2f", float64(st.CandGenWall.Microseconds())/1000))
	}
	t.Notes = append(t.Notes,
		"seg-pruned counts probe tokens whose segment probe was skipped (storage-side pruning additionally shrinks the index)",
	)
	return t
}

// avgVerifyCost estimates the work units of one NSLD evaluation on this
// corpus (bigraph construction + Hungarian), so HMJ's distance calls are
// charged comparably to TSJ's verifications.
func avgVerifyCost(c *token.Corpus) float64 {
	var lenSum, tokSum float64
	for _, s := range c.Strings {
		lenSum += float64(s.AggregateLen())
		tokSum += float64(s.Count())
	}
	n := float64(len(c.Strings))
	if n == 0 {
		return 1
	}
	avgLen := lenSum / n
	avgTok := tokSum / n
	return avgLen*avgLen + avgTok*avgTok*avgTok
}

// All runs every figure in order.
func All(w Workload) []*Table {
	r2, c2 := sweepT(w)
	fig2 := tableFromSweepT(r2)
	fig4 := tableFromFound(c2)
	r3, c3 := sweepM(w)
	_ = r3
	fig3 := &Table{
		ID:     "fig3",
		Title:  "TSJ runtime vs max-frequency M and matching/aligning algorithm (simulated seconds, 1000 machines, T=0.1)",
		Header: []string{"M", "fuzzy-token-matching", "greedy-token-aligning", "exact-token-matching"},
	}
	for mi, M := range MaxFreqs {
		r := r3[mi]
		fig3.AddRow(M, fmtSecs(r[0]), fmtSecs(r[1]), fmtSecs(r[2]))
	}
	fig5 := &Table{
		ID:     "fig5",
		Title:  "Discovered pairs vs max-frequency M (recall relative to fuzzy-token-matching, T=0.1)",
		Header: []string{"M", "fuzzy pairs", "greedy pairs", "exact pairs", "recall(greedy)", "recall(exact)"},
	}
	for mi, M := range MaxFreqs {
		cnt := c3[mi]
		fig5.AddRow(M, cnt[0], cnt[1], cnt[2],
			fmtRecall(ratio(cnt[1], cnt[0])), fmtRecall(ratio(cnt[2], cnt[0])))
	}
	return []*Table{Fig1(w), fig2, fig3, fig4, fig5, Fig6(w), Fig7(w), Funnel(w), SegmentFunnel(w)}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
