// Command perfbench is the repository benchmark. It drives in-process
// zoomied daemons (and, for inspect-fleet, a zfleet coordinator in front
// of one) over loopback protocol v3 with one closed-loop client, times a
// seeded, fixed op sequence, checks every output, and prints the metrics
// as one JSON object on the last line of standard output. Both workloads
// run at GOMAXPROCS=1.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the traced analysis instead and prints the per-layer metrics.
// Every run starts a fresh daemon per round, replays the identical op
// sequence in each round, and keeps rounds going until --seconds of
// wall time have passed (at least one round). Exit status is 0 only
// when every output check passed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload's two entry points: the measured
// run and the traced run.
type workload struct {
	run   func(cfg runConfig) (*measurement, error)
	trace func(cfg runConfig) (*layerReport, error)
}

// runConfig carries the command-line inputs every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	// short shrinks the inspect script for the package's tests; no
	// command-line flag sets it.
	short bool
	// spanDir is where a traced run writes its spans.
	spanDir string
	// focusFleet marks a traced run of inspect-fleet, whose blocking
	// path goes through the coordinator.
	focusFleet bool
}

func workloadTable() map[string]workload {
	return map[string]workload{
		"inspect":       {run: runInspect(false), trace: traceFor("inspect")},
		"inspect-fleet": {run: runInspect(true), trace: traceFor("inspect-fleet")},
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured wall time per run")
	trace := fs.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadTable()[*name]
	if !ok {
		var names []string
		for n := range workloadTable() {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	runtime.GOMAXPROCS(1)
	cfg := runConfig{seed: *seed, seconds: *seconds, spanDir: *spans}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	info := map[string]any{
		"workload": *name, "seed": *seed, "trace": *trace,
		"env": environment(),
	}

	var res result
	var err error
	if *trace == 1 {
		var rep *layerReport
		rep, err = wl.trace(cfg)
		if rep != nil {
			res = rep.result()
			info["trace"] = rep.info
		}
	} else {
		var m *measurement
		m, err = wl.run(cfg)
		if m != nil {
			res = m.result()
			info["run"] = m.info()
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		res.Correct = false
	}
	line, _ := json.Marshal(info)
	fmt.Fprintln(out, string(line))
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	line, _ = json.Marshal(res)
	fmt.Fprintln(out, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// environment records the machine and runtime a run measured on.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// deadline reports whether a run that started at start has used its
// measured time.
func deadline(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}
