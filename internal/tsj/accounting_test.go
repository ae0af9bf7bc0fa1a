package tsj

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mapreduce"
	"repro/internal/namegen"
	"repro/internal/token"
)

// jobAccounting is what one MapReduce job hands the simulated cluster
// (mapreduce.Cluster, the tsjexp scalability figures): record counts, the
// number of reduce tasks, the straggler and the two work totals.
type jobAccounting struct {
	name                         string
	in, shuffled, keys, out      int64
	tasks                        int
	maxTask, mapWork, reduceWork float64
}

func accountingOf(p *mapreduce.Pipeline) []jobAccounting {
	var out []jobAccounting
	for _, j := range p.Jobs {
		out = append(out, jobAccounting{j.Name, j.MapRecordsIn, j.ShuffleRecords, j.ReduceKeys, j.OutRecords,
			len(j.ReduceTaskCosts), j.MaxReduceTask(), j.MapWork, j.ReduceWork})
	}
	return out
}

// longCorpus builds n strings of 8-12 tokens drawn from a 300-word
// vocabulary, every third one an edited copy of its predecessor: the
// regime where prefixes are whole strings and the similar-token path and
// verification carry the join.
func longCorpus(seed int64, n int) *token.Corpus {
	rng := rand.New(rand.NewSource(seed))
	words := make([]string, 300)
	for i := range words {
		b := make([]byte, 3+rng.Intn(8))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		words[i] = string(b)
	}
	raw := make([]string, 0, n)
	for len(raw) < n {
		toks := make([]string, 8+rng.Intn(5))
		for j := range toks {
			toks[j] = words[rng.Intn(len(words))]
		}
		raw = append(raw, strings.Join(toks, " "))
		if len(raw) < n && len(raw)%3 == 2 {
			for e := 1 + rng.Intn(3); e > 0; e-- {
				j := rng.Intn(len(toks))
				toks[j] = perturbName(rng, toks[j])
			}
			raw = append(raw, strings.Join(toks, " "))
		}
	}
	return token.BuildCorpus(raw, token.WhitespaceAndPunct)
}

// TestPipelineAccountingGolden pins the per-job accounting of a self-join
// to the values recorded at commit c547589 (the map[K][]V shuffle), on a
// names corpus and a long-string corpus. The engine may change how it
// groups records; what it charges may not move, or every simulated-cluster
// figure moves with it. The Join, SelfJoinCorpus and JoinCorpus rows were
// recorded at commit c4cc012, when each entry point still had its own
// pipeline; only their job-name prefixes (tsj-join-, tsj-corpus-,
// tsj-joincorpus-) were rewritten to the one set of names the single
// pipeline uses. The dedup-verify rows' maxTask was re-based when results
// moved from an after-job drain back into the reducers: each key's task
// now carries the per-output unit of the results it emits, which the
// job's totals always carried. Every job's ReduceWork is the sum of its
// ReduceTaskCosts. The SelfJoinCorpus and JoinCorpus rows were re-based
// when corpus joins stopped slicing the corpus's stored, epoch-stamped
// order and began deriving their prefix order per join, as SelfJoin and
// Join do. In the four jobs they ran (reading stored frequencies, they
// skipped the token-frequency job) they now charge what the from-scratch
// joins charge: the joincorpus row equals the join row (it was shared-token 1208 keys /
// 58103 out, similar-token 1395 in / 224 out, dedup 59358 in / 2013
// keys), and the selfjoincorpus row equals the names row (it was
// shared-token 1257 keys / 117742 out, similar-token 1257 in, dedup
// 119992 in / 2188 keys) except that its dedup job has 2174 keys where
// names has 2173 — the corpus's token ids follow insertion order, not
// lexicographic order, so frequency ties break differently and a few
// prefixes, and with them a few of the equally many candidate pairs,
// differ. The names, long and join rows lost their first job,
// tsj-token-freq, when the pipeline stopped running it: every source's
// Corpus.Freq already holds the document frequencies the job recounted,
// so the cutoff reads them; every other row stayed as it was. Work totals
// are compared to 1e-9 relative: per-task costs are not all integers
// (greedy's k^2 log k, the 0.05 n^2 pair charge), so a total is only as
// exact as its summation order. The rows were recorded when ReduceWork
// summed the per-key costs sorted ascending; it now sums them in key
// order, which moves a total by rounding alone.
func TestPipelineAccountingGolden(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 17, NumNames: 2500})
	namesCorpus := token.BuildCorpus(names, token.WhitespaceAndPunct)
	selfJoin := func(c *token.Corpus) func(Options) ([]Result, *Stats, error) {
		return func(o Options) ([]Result, *Stats, error) { return SelfJoin(c, o) }
	}
	stored := openSeeded(t, names, corpus.Options{})
	storedHalf := openSeeded(t, names[:1250], corpus.Options{})
	probes := namesCorpus.Strings[1250:]
	cases := []struct {
		name      string
		join      func(Options) ([]Result, *Stats, error)
		threshold float64
		want      []jobAccounting
	}{
		{
			name:      "names",
			join:      selfJoin(namesCorpus),
			threshold: 0.1,
			want: []jobAccounting{
				{"tsj-shared-token", 2500, 5100, 1286, 117190, 1286, 58383.2, 7600, 156603},
				{"tsj-similar-token-candidates", 1286, 3222, 1766, 100, 1766, 25.6, 4508, 3471.9},
				{"tsj-similar-token-verify", 100, 100, 99, 31, 99, 25, 200, 2271},
				{"tsj-dedup-verify-onestring", 119425, 119425, 2173, 15724, 2173, 36845, 238850, 1.8572238e+07},
			},
		},
		{
			name:      "long",
			join:      selfJoin(longCorpus(23, 200)),
			threshold: 0.3,
			want: []jobAccounting{
				{"tsj-shared-token", 200, 1947, 378, 4343, 378, 154.05, 2147, 7037.15},
				{"tsj-similar-token-candidates", 378, 7842, 5798, 659, 5798, 44, 8220, 8686},
				{"tsj-similar-token-verify", 659, 659, 559, 94, 559, 49, 1318, 11879},
				{"tsj-dedup-verify-onestring", 5081, 5081, 200, 66, 200, 317302, 10162, 2.8825933e+07},
			},
		},
		{
			name:      "join",
			join:      func(o Options) ([]Result, *Stats, error) { return Join(namesCorpus, 1250, o) },
			threshold: 0.1,
			want: []jobAccounting{
				{"tsj-shared-token", 2500, 5100, 1286, 57180, 1286, 25840.85, 7600, 70548.95},
				{"tsj-similar-token-candidates", 1472, 2099, 1822, 223, 1822, 11.5, 3571, 2344.3},
				{"tsj-similar-token-verify", 223, 223, 212, 207, 212, 25, 446, 2263},
				{"tsj-dedup-verify-onestring", 58423, 58423, 1959, 7373, 1959, 23864, 116846, 9.039942e+06},
			},
		},
		{
			name:      "selfjoincorpus",
			join:      func(o Options) ([]Result, *Stats, error) { return SelfJoinCorpus(stored, o) },
			threshold: 0.1,
			want: []jobAccounting{
				{"tsj-shared-token", 2500, 5100, 1286, 117190, 1286, 58383.2, 7600, 156603},
				{"tsj-similar-token-candidates", 1286, 3222, 1766, 100, 1766, 25.6, 4508, 3471.9},
				{"tsj-similar-token-verify", 100, 100, 99, 31, 99, 25, 200, 2271},
				{"tsj-dedup-verify-onestring", 119425, 119425, 2174, 15724, 2174, 36845, 238850, 1.8572633e+07},
			},
		},
		{
			name:      "joincorpus",
			join:      func(o Options) ([]Result, *Stats, error) { return JoinCorpus(storedHalf, probes, o) },
			threshold: 0.1,
			want: []jobAccounting{
				{"tsj-shared-token", 2500, 5100, 1286, 57180, 1286, 25840.85, 7600, 70548.95},
				{"tsj-similar-token-candidates", 1472, 2099, 1822, 223, 1822, 11.5, 3571, 2344.3},
				{"tsj-similar-token-verify", 223, 223, 212, 207, 212, 25, 446, 2263},
				{"tsj-dedup-verify-onestring", 58423, 58423, 1959, 7373, 1959, 23864, 116846, 9.039942e+06},
			},
		},
	}
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	for _, tc := range cases {
		opts := DefaultOptions()
		opts.Threshold, opts.MaxTokenFreq = tc.threshold, 0
		opts.MapTasks, opts.Parallelism = 8, 2
		_, st, err := tc.join(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range st.Pipeline.Jobs {
			var sum float64
			for _, c := range j.ReduceTaskCosts {
				sum += c
			}
			if !close(sum, j.ReduceWork) {
				t.Errorf("%s: job %s: ReduceTaskCosts sum to %v, ReduceWork is %v", tc.name, j.Name, sum, j.ReduceWork)
			}
		}
		got := accountingOf(&st.Pipeline)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d jobs, want %d; got:\n%s", tc.name, len(got), len(tc.want), formatAccounting(got))
			continue
		}
		for i, g := range got {
			w := tc.want[i]
			if g.name != w.name || g.in != w.in || g.shuffled != w.shuffled || g.keys != w.keys ||
				g.out != w.out || g.tasks != w.tasks || !close(g.maxTask, w.maxTask) ||
				!close(g.mapWork, w.mapWork) || !close(g.reduceWork, w.reduceWork) {
				t.Errorf("%s: job %d accounting moved:\n got  %+v\n want %+v\nall jobs:\n%s", tc.name, i, g, w, formatAccounting(got))
			}
		}
	}
}

// formatAccounting renders got as the Go literal of a want table, so a
// deliberate re-base is a copy and paste.
func formatAccounting(js []jobAccounting) string {
	var b strings.Builder
	for _, j := range js {
		fmt.Fprintf(&b, "{%q, %d, %d, %d, %d, %d, %v, %v, %v},\n",
			j.name, j.in, j.shuffled, j.keys, j.out, j.tasks, j.maxTask, j.mapWork, j.reduceWork)
	}
	return b.String()
}
