package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json: the one place the metric names, units,
// directions and bounds are written down.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec() (*benchSpec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("%w (run from the root of the repository)", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// child runs this program again for one workload, as the driver does,
// so that every workload gets a process (and a peak memory figure) of
// its own, and returns the result line.
func child(ctx context.Context, name string, seed int64, seconds float64, trace int) (result, error) {
	var res result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--trace", fmt.Sprint(trace)}
	if seconds > 0 {
		args = append(args, "--seconds", fmt.Sprint(seconds))
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: result line: %w", name, err)
	}
	return res, nil
}

func printMetrics(res result, names []specMetric) {
	for _, m := range names {
		v, ok := res.Metrics[m.Name]
		if !ok {
			fmt.Printf("  %-36s missing\n", m.Name)
			continue
		}
		fmt.Printf("  %-36s %14.6g %s\n", m.Name, v.Value, v.Unit)
	}
}

// runAll runs every workload untraced and then traced, and prints every
// metric by name with its unit. It fails if any operation failed.
func runAll(ctx context.Context, seed int64, seconds float64) error {
	spec, err := readSpec()
	if err != nil {
		return err
	}
	failed := 0
	for trace, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		for _, w := range spec.Workloads {
			res, err := child(ctx, w.Name, seed, seconds, trace)
			if err != nil {
				return err
			}
			fmt.Printf("%s (trace %d): %d operations attempted, %d failed\n", w.Name, trace, res.Attempted, res.Failed)
			printMetrics(res, list)
			failed += res.Failed
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// exactOnRepeat are the metrics that are counted, not timed: two runs of
// one tree on one seed must agree on them to the last digit.
var exactOnRepeat = map[string]bool{"sim_cost_s": true, "sim_cost_sd_s": true}

// runAA runs the untraced set twice on the same tree and seed and
// checks, per metric and workload, that the two values differ by no
// more than the metric's bound (or not at all for the counted ones).
func runAA(ctx context.Context, seed int64, seconds float64) error {
	spec, err := readSpec()
	if err != nil {
		return err
	}
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range spec.Workloads {
			res, err := child(ctx, w.Name, seed, seconds, 0)
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s: %d operations failed", w.Name, res.Failed)
			}
			sets[i][w.Name] = res
		}
	}
	var bad []string
	fmt.Printf("%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "ratio", "bound")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][w.Name].Metrics[m.Name].Value, sets[1][w.Name].Metrics[m.Name].Value
			ratio := b / a
			worse := ratio - 1
			if m.Better == "higher" {
				worse = a/b - 1
			}
			bound := m.Bound
			if exactOnRepeat[m.Name] {
				bound, worse = 1e-9, math.Abs(ratio-1)
			}
			verdict := ""
			if worse > bound || math.IsNaN(ratio) {
				verdict = "  OUTSIDE"
				bad = append(bad, w.Name+"/"+m.Name)
			}
			fmt.Printf("%-16s %-14s %14.6g %14.6g %9.4f %7.2g%s\n", w.Name, m.Name, a, b, ratio, bound, verdict)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("A/A runs disagree beyond the bound on %s", strings.Join(bad, ", "))
	}
	return nil
}
