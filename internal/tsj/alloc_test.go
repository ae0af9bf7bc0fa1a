package tsj

import (
	"testing"

	"repro/internal/namegen"
	"repro/internal/token"
)

// TestSelfJoinAllocations: once the engine's recycled slabs have grown to
// size, a self-join allocates a bounded number of objects — per-job and
// per-stage tables, never one per string, per posting or per verified
// pair — so one fixed limit holds at any threshold and corpus size.
func TestSelfJoinAllocations(t *testing.T) {
	const limit = 1000
	names := namegen.Generate(namegen.Config{Seed: 3, NumNames: 2000})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	for _, th := range []float64{0.1, 0.3} {
		opts := DefaultOptions()
		opts.Threshold = th
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := SelfJoin(c, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("T=%.1f: %.0f allocations per join", th, allocs)
		if allocs > limit {
			t.Errorf("SelfJoin of %d names at T=%.1f allocates %.0f objects, want at most %d",
				len(names), th, allocs, limit)
		}
	}
}
