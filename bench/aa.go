package main

// The A/A check: the same code measured twice must agree within the
// bounds BENCHMARK.json sets, or the bounds (or the workloads) are wrong.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// contract is the part of BENCHMARK.json the check reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// lastLine is what every run prints last.
type lastLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runChild runs this binary once for one workload and seed and returns its
// last line and the report it wrote.
func runChild(c *config, workload string, seed int64, seconds int) (*lastLine, *report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-out", c.outDir, "-tsjserve", c.tsjserve,
		"-scale", strconv.FormatFloat(c.scale, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		last = sc.Text()
	}
	var ll lastLine
	if err := json.Unmarshal([]byte(last), &ll); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: last line %q: %w", workload, seed, last, err)
	}
	b, err := os.ReadFile(c.outDir + "/result_" + workload + ".json")
	if err != nil {
		return nil, nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, nil, err
	}
	return &ll, &rep, nil
}

// runAA measures every workload in two sets of aaRuns runs each,
// alternating A B A B …, every run with another seed, and compares the
// sets' medians against the contract's bounds. It prints a Markdown
// report (bench/AA.md is one of them) and fails if any difference is
// above its bound, if any run failed an op, or if the two sets were not
// measured in comparable environments.
func runAA(c *config, contractPath string, aaRuns int) error {
	ct, err := readContract(contractPath)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	var envs [2]*envRecord
	failedOps := 0
	for _, wl := range ct.Workloads {
		for i := 0; i < 2*aaRuns; i++ {
			set := i % 2
			ll, rep, err := runChild(c, wl.Name, c.seed+int64(i), ct.RunSeconds)
			if err != nil {
				return err
			}
			env := &rep.Env
			if envs[set] == nil {
				envs[set] = env
			}
			if err := envs[0].comparable(*env); err != nil {
				return fmt.Errorf("refusing to compare: %w", err)
			}
			failedOps += ll.Failed
			for name, m := range ll.Metrics {
				sets[set][key{wl.Name, name}] = append(sets[set][key{wl.Name, name}], m.Value)
			}
			fmt.Fprintf(os.Stderr, "aa: %s run %d/%d (set %c, seed %d): failed %d of %d;",
				wl.Name, i+1, 2*aaRuns, 'A'+rune(set), c.seed+int64(i), ll.Failed, ll.Attempted)
			for _, m := range ct.EndToEnd {
				fmt.Fprintf(os.Stderr, " %s %.5g", m.Name, ll.Metrics[m.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "; speed %.3f raw op_p50_ms %.5g canary spread %.0f%%\n",
				rep.Speed, rep.Raw["op_p50_ms"], rep.Noise["canary_spread_pct"])
		}
	}

	env := envs[0]
	fmt.Printf("# A/A: two sets of %d runs of the same code\n\n", aaRuns)
	fmt.Printf("Commit `%s`, %s, nproc %d, GOMAXPROCS %d, %s, SIMD %v, seeds %d–%d, %d s windows.\n",
		env.GitCommit, env.CPUModel, env.NProc, env.GOMAXPROCS, env.GoVersion, env.SIMD, c.seed, c.seed+int64(2*aaRuns)-1, ct.RunSeconds)
	fmt.Printf("`worse` is how much worse set B's median is than set A's, in the metric's bad direction; `spread` is the wider of the two sets' interquartile ranges over its median. Both are shares of the bound's unit (1 = 100%%).\n\n")
	fmt.Printf("| workload | metric | median A | median B | worse | spread | bound | verdict |\n|---|---|---|---|---|---|---|---|\n")
	var over []string
	for _, wl := range ct.Workloads {
		for _, m := range ct.EndToEnd {
			a, b := sets[0][key{wl.Name, m.Name}], sets[1][key{wl.Name, m.Name}]
			if len(a) != aaRuns || len(b) != aaRuns {
				return fmt.Errorf("%s %s: %d and %d values from %d runs a set", wl.Name, m.Name, len(a), len(b), aaRuns)
			}
			ma, mb := median(a), median(b)
			worse := mb/ma - 1
			if m.Better == "higher" {
				worse = ma/mb - 1
			}
			spread := iqrShare(a)
			if s := iqrShare(b); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "**difference above bound**"
				over = append(over, fmt.Sprintf("%s %s: B is %.1f%% worse than A, bound %.0f%%", wl.Name, m.Name, worse*100, m.Bound*100))
			case m.Name != "setup_s" && spread > m.Bound:
				verdict = "**spread above bound**"
				over = append(over, fmt.Sprintf("%s %s: spread %.1f%%, bound %.0f%%", wl.Name, m.Name, spread*100, m.Bound*100))
			case worse > m.Bound/2 || (m.Name != "setup_s" && spread > m.Bound/3):
				verdict = "ok, little margin"
			}
			fmt.Printf("| %s | %s (%s) | %.6g | %.6g | %+.3f | %.3f | %.2f | %s |\n",
				wl.Name, m.Name, m.Unit, ma, mb, worse, spread, m.Bound, verdict)
		}
	}
	fmt.Printf("\nFailed ops over all runs: %d.\n", failedOps)
	if failedOps > 0 {
		over = append(over, fmt.Sprintf("%d ops failed", failedOps))
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A check failed:\n  %s", strings.Join(over, "\n  "))
	}
	return nil
}
