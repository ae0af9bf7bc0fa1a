package mapreduce

import (
	"fmt"
	"strings"
	"time"
)

// Stats captures the per-task work measurements of one MapReduce job.
// Work is measured in abstract units (≈ records touched, plus any
// AddCost charges); the Cluster model converts units into simulated
// seconds.
type Stats struct {
	Name string

	MapRecordsIn   int64
	MapRecordsOut  int64
	ShuffleRecords int64
	ReduceKeys     int64
	OutRecords     int64

	// MapTaskCosts has one entry per input split.
	MapTaskCosts []float64
	// ReduceTaskCosts has one entry per reduce key, in ascending key order.
	// Keys are the paper's scheduling granularity: "the grouping-on-one-
	// string mechanism instantiates a worker for each string".
	ReduceTaskCosts []float64

	// MapWork sums MapTaskCosts in split order and ReduceWork sums
	// ReduceTaskCosts in key order, so equal jobs have == totals.
	MapWork    float64
	ReduceWork float64

	// WallTime is the real in-process duration of the job (not the
	// simulated-cluster time), measured by Run. MapWall covers the map
	// phase plus the shuffle's sort and gather (the record-stream
	// handling); ReduceWall is the remainder — the reduce-function compute.
	WallTime   time.Duration
	MapWall    time.Duration
	ReduceWall time.Duration
}

// TotalWork returns all work units charged to the job. When the aggregate
// fields were not populated (hand-built Stats), it falls back to summing
// the task-cost arrays.
func (s *Stats) TotalWork() float64 {
	if s.MapWork != 0 || s.ReduceWork != 0 {
		return s.MapWork + s.ReduceWork
	}
	var w float64
	for _, c := range s.MapTaskCosts {
		w += c
	}
	for _, c := range s.ReduceTaskCosts {
		w += c
	}
	return w
}

// MaxReduceTask returns the largest single reduce-key cost — the straggler
// lower bound for the reduce phase.
func (s *Stats) MaxReduceTask() float64 {
	m := 0.0
	for _, c := range s.ReduceTaskCosts {
		m = max(m, c)
	}
	return m
}

// String formats a one-line summary.
func (s *Stats) String() string {
	return fmt.Sprintf("%s: in=%d shuffled=%d keys=%d out=%d work=%.0f(map %.0f/reduce %.0f) maxkey=%.0f",
		s.Name, s.MapRecordsIn, s.ShuffleRecords, s.ReduceKeys, s.OutRecords,
		s.TotalWork(), s.MapWork, s.ReduceWork, s.MaxReduceTask())
}

// Pipeline accumulates the Stats of a multi-job pipeline, in job order.
type Pipeline struct {
	Jobs []*Stats
}

// Add appends a job's stats.
func (p *Pipeline) Add(s *Stats) { p.Jobs = append(p.Jobs, s) }

// Merge appends all jobs of another pipeline.
func (p *Pipeline) Merge(o *Pipeline) { p.Jobs = append(p.Jobs, o.Jobs...) }

// TotalWork sums work units across all jobs.
func (p *Pipeline) TotalWork() float64 {
	var w float64
	for _, j := range p.Jobs {
		w += j.TotalWork()
	}
	return w
}

// WallTimeOf sums the wall time of the jobs whose name contains substr
// (e.g. "dedup-verify" isolates the TSJ dedup+verify job).
func (p *Pipeline) WallTimeOf(substr string) time.Duration {
	var d time.Duration
	for _, j := range p.Jobs {
		if strings.Contains(j.Name, substr) {
			d += j.WallTime
		}
	}
	return d
}

// MapWallOf / ReduceWallOf are WallTimeOf restricted to one phase: the
// TSJ verify stage, for example, is ReduceWallOf("dedup-verify") — the
// reduce compute of the fused dedup+filter+verify job — while the
// candidate stream's cost is the generation jobs plus
// MapWallOf("dedup-verify"), the dedup shuffle.
func (p *Pipeline) MapWallOf(substr string) time.Duration {
	var d time.Duration
	for _, j := range p.Jobs {
		if strings.Contains(j.Name, substr) {
			d += j.MapWall
		}
	}
	return d
}

func (p *Pipeline) ReduceWallOf(substr string) time.Duration {
	var d time.Duration
	for _, j := range p.Jobs {
		if strings.Contains(j.Name, substr) {
			d += j.ReduceWall
		}
	}
	return d
}

// TotalShuffled sums shuffled records across all jobs.
func (p *Pipeline) TotalShuffled() int64 {
	var n int64
	for _, j := range p.Jobs {
		n += j.ShuffleRecords
	}
	return n
}
