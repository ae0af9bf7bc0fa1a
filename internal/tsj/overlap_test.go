package tsj

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/namegen"
	"repro/internal/token"
)

// TestPipelineDeterministicUnderOverlap: the similar-token stage runs
// beside the shared-token job, yet results, exact counters, per-job
// accounting and the job order must not depend on how the two interleave
// — at one or four Ps, with one or eight workers per job.
func TestPipelineDeterministicUnderOverlap(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 17, NumNames: 1500})
	namesCorpus := token.BuildCorpus(names, token.WhitespaceAndPunct)
	long := longCorpus(23, 200)
	type join struct {
		name      string
		threshold float64
		run       func(Options) ([]Result, *Stats, error)
	}
	// The long corpus pairs string 3k+1 with its edited copy 3k+2, so a
	// boundary at 101 splits one such pair across the sides.
	joins := []join{
		{"names/self", 0.1, func(o Options) ([]Result, *Stats, error) { return SelfJoin(namesCorpus, o) }},
		{"names/join", 0.1, func(o Options) ([]Result, *Stats, error) { return Join(namesCorpus, 750, o) }},
		{"long/self", 0.3, func(o Options) ([]Result, *Stats, error) { return SelfJoin(long, o) }},
		{"long/join", 0.3, func(o Options) ([]Result, *Stats, error) { return Join(long, 101, o) }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, j := range joins {
		for _, m := range []Matching{FuzzyTokenMatching, ExactTokenMatching} {
			wantJobs := []string{"tsj-shared-token", "tsj-similar-token-candidates", "tsj-similar-token-verify", "tsj-dedup-verify-onestring"}
			if m == ExactTokenMatching {
				wantJobs = []string{wantJobs[0], wantJobs[3]}
			}
			var (
				refResults []Result
				refStats   Stats
				refRows    []jobAccounting
			)
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for _, par := range []int{1, 8} {
					opts := DefaultOptions()
					opts.Threshold, opts.MaxTokenFreq, opts.Matching = j.threshold, 0, m
					opts.MapTasks, opts.Parallelism = 8, par
					results, st, err := j.run(opts)
					if err != nil {
						t.Fatal(err)
					}
					label := j.name + "/" + m.String()
					var jobs []string
					for _, js := range st.Pipeline.Jobs {
						jobs = append(jobs, js.Name)
					}
					if !slices.Equal(jobs, wantJobs) {
						t.Fatalf("%s: GOMAXPROCS=%d Parallelism=%d: jobs %v, want %v", label, procs, par, jobs, wantJobs)
					}
					rows := accountingOf(&st.Pipeline)
					counters := *st
					counters.Pipeline.Jobs = nil
					if refRows == nil {
						refResults, refStats, refRows = results, counters, rows
						if st.Results == 0 || (m == FuzzyTokenMatching && st.SimilarTokenCandidates == 0) {
							t.Fatalf("%s: %d results, %d similar-token candidates; the check is vacuous",
								label, st.Results, st.SimilarTokenCandidates)
						}
						continue
					}
					if !slices.Equal(results, refResults) {
						t.Errorf("%s: GOMAXPROCS=%d Parallelism=%d: %d results differ from the first run's %d",
							label, procs, par, len(results), len(refResults))
					}
					if !reflect.DeepEqual(counters, refStats) {
						t.Errorf("%s: GOMAXPROCS=%d Parallelism=%d: counters\n got  %+v\n want %+v", label, procs, par, counters, refStats)
					}
					if !reflect.DeepEqual(rows, refRows) {
						t.Errorf("%s: GOMAXPROCS=%d Parallelism=%d: accounting\n got\n%s want\n%s",
							label, procs, par, formatAccounting(rows), formatAccounting(refRows))
					}
				}
			}
		}
	}
}
