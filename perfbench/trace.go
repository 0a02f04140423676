package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Tracing. The traced run records spans from the benchmark's own code
// around calls into each module's public functions; nothing inside the
// program is instrumented. A layer's self time is the difference of two
// spans taken around public calls on the same inputs (for example the
// remote op minus the same op on an in-process session), so the self
// times along an op's blocking path add up to the traced op time by
// construction. All per-layer times are means per op, since means of
// differences telescope and medians do not.

// span is one recorded interval.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder holds spans in memory until the run ends.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) begin(name string, op, parent int) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(r.base))})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	r.spans[i].End = int64(time.Since(r.base))
	return time.Duration(r.spans[i].End - r.spans[i].Start)
}

// timeSpan records fn as one span and returns its duration and the
// process-wide mallocs it made (read outside the span).
func (r *recorder) timeSpan(name string, op, parent int, fn func() error) (time.Duration, uint64, error) {
	m0 := mallocs()
	i := r.begin(name, op, parent)
	err := fn()
	d := r.end(i)
	return d, mallocs() - m0, err
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runLegs runs one op's legs — the same op on different stacks — in an
// order rotated by the op index, so the leg that runs first on cold
// caches is a different one each op and no leg's mean carries that
// cost. With collect, each leg starts from a collected heap, so garbage
// one leg made is not collected on the next leg's time.
func runLegs(op int, collect bool, legs ...func() error) error {
	for k := range legs {
		if collect {
			runtime.GC()
		}
		if err := legs[(op+k)%len(legs)](); err != nil {
			return err
		}
	}
	return nil
}

// layerReport is the traced run's result: per-layer metrics plus the
// diagnostics (blocking-path sums, tracing overhead) for the info line.
type layerReport struct {
	metrics   map[string]metric
	info      map[string]any
	attempted int
	failed    int
}

func (l *layerReport) set(name string, v float64, unit string) { l.metrics[name] = metric{v, unit} }

func (l *layerReport) result() result {
	return result{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: l.metrics}
}

// pathCheck records that the self times along a workload's blocking path
// add up to its traced op time, and the tracing overhead against an
// untraced pass of the same sequence.
func (l *layerReport) pathCheck(workload string, tracedOp, untracedOp float64, parts map[string]float64) {
	var sum float64
	names := make([]string, 0, len(parts))
	for n, v := range parts {
		sum += v
		names = append(names, n)
	}
	sort.Strings(names)
	l.set("trace.op_us", tracedOp, "us")
	l.set("trace.overhead_us", tracedOp-untracedOp, "us")
	l.info[workload] = map[string]any{
		"traced_op_us":        tracedOp,
		"untraced_op_us":      untracedOp,
		"tracing_overhead_us": tracedOp - untracedOp,
		"blocking_path":       names,
		"self_sum_us":         sum,
		"self_sum_error_us":   sum - tracedOp,
	}
}

// traceFor builds a workload's traced run. Every traced run emits every
// per-layer metric: it traces the workload's inspect script through the
// daemon, the coordinator and an in-process session, with the blocking
// path of the named workload checked against an untraced pass, then
// runs the run-to-break and edit-recompile sections (short seeded
// sequences on the sim/history and farm/VTI paths, which the end-to-end
// workloads do not exercise), each at its own GOMAXPROCS.
func traceFor(name string) func(cfg runConfig) (*layerReport, error) {
	return func(cfg runConfig) (*layerReport, error) {
		rep := &layerReport{metrics: map[string]metric{}, info: map[string]any{}}
		rec := newRecorder()
		sections := []struct {
			name  string
			procs int
			run   func(cfg runConfig, rec *recorder, rep *layerReport) error
		}{
			{"inspect", 1, traceInspect},
			{"run-to-break", 1, traceRunToBreak},
			{"edit-recompile", runtime.NumCPU(), traceEditRecompile},
		}
		cfg.focusFleet = name == "inspect-fleet"
		for _, s := range sections {
			prev := runtime.GOMAXPROCS(s.procs)
			runtime.GC()
			err := s.run(cfg, rec, rep)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				rep.failed++
				return rep, fmt.Errorf("%s trace: %w", s.name, err)
			}
		}
		if err := setupLayers(rep); err != nil {
			rep.failed++
			return rep, fmt.Errorf("setup trace: %w", err)
		}
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed))
		if err := rec.write(path); err != nil {
			return rep, err
		}
		rep.info["spans"] = map[string]any{"file": path, "count": len(rec.spans)}
		return rep, nil
	}
}
