// Command bench is the repository's benchmark of record. It runs one
// named workload against the query engine — either a real `robustqo
// serve` subprocess over HTTP or the engine hosted in this process —
// checks every answer against an independent reference evaluator, and
// prints the metrics BENCHMARK.json lists. See README.md beside this
// file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envelope is what a run leaves under bench/out/ for people to read.
type envelope struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Lines      int               `json:"lines"`
	GitSHA     string            `json:"git_sha"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Result     result            `json:"result"`
	Ungated    map[string]metric `json:"ungated,omitempty"`
}

// gitSHA reads the revision the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all four, untraced and traced")
		seed    = flag.Int64("seed", 2005, "seed of the request list")
		seconds = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		aa      = flag.Bool("aa", false, "run the untraced set twice and compare the two against the bounds")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for logs, traces and result files")
		bin     = flag.String("bin", filepath.Join(".bench_build", "bin", "robustqo"), "the robustqo binary the serve workloads start")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	// SIGINT and SIGTERM cancel the run; every path out of it stops the
	// server subprocess and waits for it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *name != "":
		err = runOne(ctx, *name, *seed, *seconds, *trace == 1, *outDir, *bin)
	case *aa:
		err = runAA(ctx, *seed, *seconds)
	default:
		err = runAll(ctx, *seed, *seconds)
	}
	if err != nil {
		stop()
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the mode the driver uses: one workload, one JSON line.
func runOne(ctx context.Context, name string, seed int64, seconds float64, trace bool, outDir, bin string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		spec, err := readSpec()
		if err != nil {
			return err
		}
		seconds = float64(spec.RunSeconds)
	}
	if w.serve {
		if _, err := os.Stat(bin); err != nil {
			return fmt.Errorf("robustqo binary: %w (bench/run.sh builds it)", err)
		}
	}
	// A run that overruns its time by this much is cut off; requests
	// still open then count as failed.
	interrupted := ctx
	ctx, cancel := context.WithTimeout(ctx, time.Duration(seconds*float64(time.Second))+150*time.Second)
	defer cancel()

	r := &run{w: *w, reqs: w.gen(seed), seconds: seconds, outDir: outDir, bin: bin}
	var metrics, ungated map[string]metric
	var err error
	if trace {
		metrics, ungated, err = r.traced(ctx)
	} else {
		metrics, ungated, err = r.untraced(ctx)
	}
	if err != nil {
		return err
	}
	if interrupted.Err() != nil {
		return fmt.Errorf("interrupted: no result")
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	env := envelope{Workload: name, Trace: trace, Seed: seed, Seconds: seconds, Lines: w.sys.data.Lines,
		GitSHA: gitSHA(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Result: res, Ungated: ungated}
	raw, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	traceTag := 0
	if trace {
		traceTag = 1
	}
	file := filepath.Join(outDir, fmt.Sprintf("%s.trace%d.seed%d.json", name, traceTag, seed))
	if err := os.WriteFile(file, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(ungated))
	for n := range ungated {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "bench: %s: %s = %g %s\n", name, n, ungated[n].Value, ungated[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
