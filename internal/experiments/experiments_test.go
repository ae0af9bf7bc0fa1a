package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/nsldtest"
)

// tinyWorkload keeps the figure runners fast in unit tests; the shapes
// still hold at this scale.
func tinyWorkload() Workload {
	return Workload{Seed: 7, NumNames: 800, HMJNames: 400}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig1Shape(t *testing.T) {
	// Fig1 runs only two joins, so it affords a larger corpus; the dedup
	// strategy contrast needs enough candidate pairs to be visible.
	tbl := Fig1(Workload{Seed: 7, NumNames: 3000, HMJNames: 400})
	if len(tbl.Rows) != len(Machines) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(Machines))
	}
	// Runtime decreases monotonically with machines for both strategies.
	for col := 1; col <= 2; col++ {
		prev := parseF(t, tbl.Rows[0][col])
		for i := 1; i < len(tbl.Rows); i++ {
			cur := parseF(t, tbl.Rows[i][col])
			if cur > prev+1e-9 {
				t.Fatalf("col %d not monotone at row %d: %v -> %v", col, i, prev, cur)
			}
			prev = cur
		}
	}
	// Speedup is sublinear: 10x machines gives < 10x speedup. At this
	// tiny test scale the hot-key skew caps the speedup well below the
	// calibration target of 3.8, which the default workload reaches.
	first := parseF(t, tbl.Rows[0][1])
	last := parseF(t, tbl.Rows[len(tbl.Rows)-1][1])
	if sp := first / last; sp >= 10 || sp < 1.2 {
		t.Fatalf("one-string speedup %v outside plausible (1.2, 10)", sp)
	}
	// One-string is faster than both-strings where task startup dominates
	// (low machine counts; paper: 13-32% faster everywhere at 44M-name
	// scale). At this tiny test scale the two converge at high machine
	// counts, so only require a clear win at 100 machines and near-parity
	// (within 10%) elsewhere.
	if one, both := parseF(t, tbl.Rows[0][1]), parseF(t, tbl.Rows[0][2]); one >= both {
		t.Fatalf("at 100 machines one-string must win: %v vs %v", one, both)
	}
	for i, r := range tbl.Rows {
		if one, both := parseF(t, r[1]), parseF(t, r[2]); one > both*1.10 {
			t.Fatalf("row %d: one-string much slower than both-strings: %v vs %v", i, one, both)
		}
	}
}

func TestFig2And4Shapes(t *testing.T) {
	w := tinyWorkload()
	runtimes, found := sweepT(w)
	for ti := range Thresholds {
		r := runtimes[ti]
		// Exact skips the similar-token jobs entirely: strictly cheaper.
		if r[2] > r[0] {
			t.Fatalf("T=%v: exact-token-matching slower than fuzzy: %v vs %v",
				Thresholds[ti], r[2], r[0])
		}
		// The approximations only lose pairs: each finds a subset of the
		// fuzzy join's pairs, at an SLD no lower.
		for ai, name := range []string{"greedy", "exact"} {
			if err := nsldtest.Subset(found[ti][0], found[ti][ai+1]); err != nil {
				t.Fatalf("T=%v: %s-token approximation: %v", Thresholds[ti], name, err)
			}
		}
		// Greedy only loses pairs to misalignment; exact loses pairs to
		// missing candidates as well, so exact <= greedy is the expected
		// dominance on name data.
		if g, e := len(found[ti][1]), len(found[ti][2]); e > g {
			t.Logf("T=%v: exact found more than greedy (%d > %d) — possible but rare", Thresholds[ti], e, g)
		}
		// A lower threshold's fuzzy join is a subset of a higher one's.
		if ti > 0 {
			if err := nsldtest.Subset(found[ti][0], found[ti-1][0]); err != nil {
				t.Fatalf("T=%v vs %v: %v", Thresholds[ti-1], Thresholds[ti], err)
			}
		}
	}
	// Table rendering round-trips.
	tbl := tableFromSweepT(runtimes)
	var buf bytes.Buffer
	tbl.Render(&buf)
	if !strings.Contains(buf.String(), "fuzzy-token-matching") {
		t.Fatal("render lost the header")
	}
}

func TestFig6NSLDWins(t *testing.T) {
	tbl := Fig6(tinyWorkload())
	if len(tbl.Rows) != 4 {
		t.Fatalf("fig6 rows = %d, want 4", len(tbl.Rows))
	}
	aucs := make(map[string]float64)
	for _, r := range tbl.Rows {
		aucs[r[0]] = parseF(t, r[1])
	}
	nsld := aucs["NSLD"]
	if nsld < 0.8 {
		t.Fatalf("NSLD AUC %v suspiciously low", nsld)
	}
	for name, auc := range aucs {
		if name == "NSLD" {
			continue
		}
		if auc > nsld {
			t.Fatalf("%s AUC %v beats NSLD %v — the paper's Fig. 6 shape is violated", name, auc, nsld)
		}
	}
}

func TestFig7TSJWins(t *testing.T) {
	tbl := Fig7(tinyWorkload())
	if len(tbl.Rows) != len(Machines) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		tsjSec := parseF(t, r[1])
		hmjSec := parseF(t, r[2])
		if hmjSec <= tsjSec {
			t.Fatalf("machines=%s: HMJ (%v) not slower than TSJ (%v)", r[0], hmjSec, tsjSec)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "b"},
		Notes:  []string{"hello"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("s", int64(7))
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a", "b", "2.5", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a := tinyWorkload().Corpus()
	b := tinyWorkload().Corpus()
	if a.NumStrings() != b.NumStrings() || a.NumTokens() != b.NumTokens() {
		t.Fatal("workload corpus not deterministic")
	}
}
