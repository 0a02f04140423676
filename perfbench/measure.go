package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// sample is one timed op.
type sample struct {
	kind string
	dur  time.Duration
}

// round is one fresh-daemon pass over a workload's fixed op sequence.
type round struct {
	setup     time.Duration // serving stack to first timed op, warm-up included
	samples   []sample
	wall      time.Duration // wall time of the timed phase
	mallocs   uint64        // process-wide mallocs during the timed phase
	liveHeap  int64         // heap the round's stack holds at the end of the timed phase
	modeled   time.Duration // modeled cable time of the timed ops
	attempted int
	failed    int
}

// measurement pools the rounds of one run.
type measurement struct {
	rounds []round
	digest string // value digest of the op sequence (workload-defined)
	checks []string
}

// heapInUse collects garbage and returns the heap still in use.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timed brackets a workload's timed phase: GC first, then the malloc and
// wall-clock baseline. stop fills the round's wall, mallocs and live
// heap. heapBase is the heap in use before the round started its
// daemon, so the live heap counts what the round's stack holds and not
// the samples earlier rounds left behind.
type timed struct {
	start    time.Time
	mallocs  uint64
	heapBase uint64
}

func startTimed(heapBase uint64) timed {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return timed{start: time.Now(), mallocs: ms.Mallocs, heapBase: heapBase}
}

func (t timed) stop(r *round) {
	r.wall = time.Since(t.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - t.mallocs
	r.liveHeap = int64(heapInUse()) - int64(t.heapBase)
}

func (m *measurement) pooled() (all []time.Duration, byKind map[string][]time.Duration) {
	byKind = make(map[string][]time.Duration)
	for _, r := range m.rounds {
		for _, s := range r.samples {
			all = append(all, s.dur)
			byKind[s.kind] = append(byKind[s.kind], s.dur)
		}
	}
	return all, byKind
}

func (m *measurement) totals() (ops, attempted, failed int, wall time.Duration, mallocs uint64, modeled time.Duration) {
	for _, r := range m.rounds {
		ops += len(r.samples)
		attempted += r.attempted
		failed += r.failed
		wall += r.wall
		mallocs += r.mallocs
		modeled += r.modeled
	}
	return
}

// result renders the end-to-end metrics. Latency percentiles pool every
// round's samples; throughput, set-up time and live heap are medians
// over rounds, so a round that a burst of host load slowed moves them
// little.
func (m *measurement) result() result {
	all, _ := m.pooled()
	ops, attempted, failed, _, mallocs, _ := m.totals()
	var setups, heaps, rates []float64
	for _, r := range m.rounds {
		setups = append(setups, r.setup.Seconds())
		heaps = append(heaps, float64(r.liveHeap)/(1<<20))
		rates = append(rates, float64(len(r.samples))/r.wall.Seconds())
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if ops == 0 {
		res.Correct = false
		return res
	}
	res.Metrics = map[string]metric{
		"setup_s":       {median(setups), "s"},
		"op_p50_us":     {us(quantile(all, 0.50)), "us"},
		"ops_per_s":     {median(rates), "1/s"},
		"allocs_per_op": {float64(mallocs) / float64(ops), "count"},
		"live_heap_mb":  {median(heaps), "MB"},
	}
	return res
}

// info renders the diagnostics printed before the result line: sample
// counts, per-kind medians next to the pooled percentiles, the p99
// diagnostic and the failure fraction.
func (m *measurement) info() map[string]any {
	all, byKind := m.pooled()
	ops, attempted, failed, _, _, modeled := m.totals()
	kinds := map[string]any{}
	for k, v := range byKind {
		kinds[k] = map[string]any{
			"n": len(v), "p50_us": us(quantile(v, 0.5)), "p90_us": us(quantile(v, 0.9)),
		}
	}
	var peak int64
	var roundP50 []float64
	for _, r := range m.rounds {
		var ds []time.Duration
		for _, s := range r.samples {
			ds = append(ds, s.dur)
		}
		roundP50 = append(roundP50, us(quantile(ds, 0.5)))
		if r.liveHeap > peak {
			peak = r.liveHeap
		}
	}
	out := map[string]any{
		"rounds":            len(m.rounds),
		"samples":           ops,
		"attempted":         attempted,
		"failed":            failed,
		"fail_frac":         float64(failed) / math.Max(1, float64(attempted)),
		"p90_us":            us(quantile(all, 0.90)),
		"p99_us_diag":       us(quantile(all, 0.99)),
		"per_kind":          kinds,
		"round_p50_us":      roundP50,
		"peak_live_heap_mb": float64(peak) / (1 << 20),
		"digest":            m.digest,
		// Modeled, not measured: cable time from the session's Status.
		// Exact and repeatable; never mixed with the measured metrics.
		"modeled_ms_per_op": float64(modeled) / float64(time.Millisecond) / math.Max(1, float64(ops)),
		"checks":            m.checks,
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks; ds is not modified.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
