package main

import (
	"fmt"
	"math/rand"
	"time"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/dbg"
	"zoomie/internal/server"
)

// The inspect workloads drive a paused catalog "cohort" accelerator with
// a seeded REPL-style script: single-register peeks, 8-register peek
// batches, pokes and 1–4 cycle steps.
const inspectDesign = "cohort"

// cohortRegs are the design's user registers (bare names resolve under
// the debugged top) with their widths, so pokes always fit.
var cohortRegs = []struct {
	name  string
	width int
}{
	{"datapath.result_cnt", 8}, {"datapath.result_sum", 16}, {"feeder.next_item", 8},
	{"lsu.addr_r", 16}, {"lsu.chan_id", 1}, {"lsu.paddr_r", 16}, {"lsu.state", 2},
	{"mmu.addr_r", 16}, {"mmu.busy", 1}, {"mmu.id_r", 1}, {"mmu.lat_cnt", 2},
	{"mmu.tlb_sel_r", 1}, {"sysbus.req_count", 16}, {"sysbus.resp_data", 16},
	{"sysbus.resp_valid", 1},
}

// Op kinds of the inspect script.
const (
	kindPeek  = "peek"
	kindBatch = "peek8"
	kindPoke  = "poke"
	kindStep  = "step"
)

// inspectMix is the exact share of each kind in every script. The
// shares are fixed (only the order, registers and values are seeded) so
// every seed measures the same mix. They keep both pooled percentiles
// inside one mode: peeks are the fastest quarter, 8-register batches and
// pokes (whose latencies coincide) the middle 52%, where the median
// falls, and steps the slowest 23%, with p90 inside it — also through a
// coordinator, whose checkpoint every 8 mutating commands moves about
// an eighth of the pokes and steps above every other op.
var inspectMix = []struct {
	kind  string
	share int // percent
}{
	{kindPeek, 25}, {kindBatch, 27}, {kindPoke, 25}, {kindStep, 23},
}

type inspectOp struct {
	kind  string
	regs  []string       // one register, or eight for a batch
	items []dbg.PlanItem // a batch's registers as a client request names them
	val   uint64         // poke value
	n     int            // step count
}

// inspectScript generates n ops with the fixed kind mix in seeded order.
func inspectScript(rng *rand.Rand, n int) []inspectOp {
	var kinds []string
	for len(kinds) < n {
		for _, m := range inspectMix {
			for i := 0; i < m.share; i++ {
				kinds = append(kinds, m.kind)
			}
		}
	}
	kinds = kinds[:n]
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ops := make([]inspectOp, n)
	for i, k := range kinds {
		op := inspectOp{kind: k}
		switch k {
		case kindPeek:
			op.regs = []string{cohortRegs[rng.Intn(len(cohortRegs))].name}
		case kindBatch:
			for _, j := range rng.Perm(len(cohortRegs))[:8] {
				op.regs = append(op.regs, cohortRegs[j].name)
				op.items = append(op.items, dbg.PlanItem{Name: cohortRegs[j].name})
			}
		case kindPoke:
			r := cohortRegs[rng.Intn(len(cohortRegs))]
			op.regs = []string{r.name}
			op.val = rng.Uint64() & (1<<uint(r.width) - 1)
		case kindStep:
			op.n = 1 + rng.Intn(4)
		}
		ops[i] = op
	}
	return ops
}

// inspectTarget is the command surface the script needs; a remote
// client.Session and an in-process zoomie.Session both provide it.
type inspectTarget interface {
	Peek(name string) (uint64, error)
	peekBatch(op inspectOp) ([]uint64, error)
	Poke(name string, v uint64) error
	Step(n int) error
}

type remoteInspect struct{ *client.Session }

func (r remoteInspect) peekBatch(op inspectOp) ([]uint64, error) { return r.PeekBatch(op.items) }

type localInspect struct{ *zoomie.Session }

func (l localInspect) peekBatch(op inspectOp) ([]uint64, error) { return l.PeekBatch(op.regs) }

// apply executes one op and returns the values it read in buf, reused
// from its first element, so the benchmark itself allocates nothing per
// op (a batch needs a capacity of 8).
func (op inspectOp) apply(t inspectTarget, buf []uint64) ([]uint64, error) {
	buf = buf[:0]
	switch op.kind {
	case kindPeek:
		v, err := t.Peek(op.regs[0])
		return append(buf, v), err
	case kindBatch:
		vals, err := t.peekBatch(op)
		return append(buf, vals...), err
	case kindPoke:
		return buf, t.Poke(op.regs[0], op.val)
	case kindStep:
		return buf, t.Step(op.n)
	}
	return buf, fmt.Errorf("unknown op kind %q", op.kind)
}

// digest folds the values an op sequence read into one FNV-1a hash of
// the previous hash and the values, little-endian, without allocating.
type digest struct{ h uint64 }

func (d *digest) add(vals []uint64) {
	h := fnvWord(14695981039346656037, d.h)
	for _, v := range vals {
		h = fnvWord(h, v)
	}
	d.h = h
}

func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

func (d digest) String() string { return fmt.Sprintf("%016x", d.h) }

// inspectSizes returns the warm-up and timed script lengths.
func inspectSizes(short bool) (warm, timed int) {
	if short {
		return 20, 100
	}
	return 200, 2000
}

// inspectScripts derives the warm-up and timed scripts from the seed.
func inspectScripts(seed int64, short bool) (warm, timed []inspectOp) {
	nw, nt := inspectSizes(short)
	rng := rand.New(rand.NewSource(seed))
	return inspectScript(rng, nw), inspectScript(rng, nt)
}

// attachInspect starts a stack and attaches a paused cohort session.
func attachInspect(viaFleet bool) (*stack, *client.Session, error) {
	st, err := startStack(viaFleet)
	if err != nil {
		return nil, nil, err
	}
	sess, err := st.attachPaused(inspectDesign)
	if err != nil {
		st.close()
		return nil, nil, err
	}
	return st, sess, nil
}

// localInspectSession builds the in-process twin of a daemon session:
// the same catalog entry, paused the same way.
func localInspectSession() (*zoomie.Session, error) {
	zs, err := server.NewCatalogSession(inspectDesign, nil)
	if err != nil {
		return nil, err
	}
	if err := zs.Pause(); err != nil {
		zs.Close()
		return nil, err
	}
	return zs, nil
}

// modeledStatus reads the session's modeled cable time.
func modeledStatus(sess *client.Session) (time.Duration, error) {
	_, _, el, err := sess.Status()
	return el, err
}

// runInspect is the inspect (or, viaFleet, inspect-fleet) end-to-end
// run: rounds of fresh stack → attach → warm-up → timed script, until
// the run's time is used, then an in-process replay the digests of
// every round must equal.
func runInspect(viaFleet bool) func(cfg runConfig) (*measurement, error) {
	return func(cfg runConfig) (*measurement, error) {
		warm, script := inspectScripts(cfg.seed, cfg.short)
		m := &measurement{}
		var roundDigest string
		start := time.Now()
		for len(m.rounds) == 0 || !deadline(start, cfg.seconds) {
			r, dg, err := inspectRound(viaFleet, warm, script)
			if err != nil {
				return m, err
			}
			if roundDigest != "" && dg != roundDigest {
				return m, fmt.Errorf("round %d digest %s differs from round 1's %s", len(m.rounds)+1, dg, roundDigest)
			}
			roundDigest = dg
			m.rounds = append(m.rounds, r)
		}
		want, err := replayInspect(warm, script)
		if err != nil {
			return m, fmt.Errorf("in-process replay: %w", err)
		}
		m.digest = roundDigest
		if roundDigest != want {
			return m, fmt.Errorf("value digest %s != in-process replay %s", roundDigest, want)
		}
		m.checks = append(m.checks, fmt.Sprintf("digest %s equals in-process replay over %d rounds", want, len(m.rounds)))
		return m, nil
	}
}

// inspectRound runs one round. Set-up time runs from a serving stack
// (see startStack) to the first timed op. The samples and value buffer
// are allocated before the heap baseline, so the round's live heap and
// mallocs count only what the stack does.
func inspectRound(viaFleet bool, warm, script []inspectOp) (round, string, error) {
	r := round{samples: make([]sample, 0, len(script))}
	vals := make([]uint64, 0, 8)
	heapBase := heapInUse()
	st, err := startStack(viaFleet)
	if err != nil {
		return r, "", err
	}
	defer st.close()
	t0 := time.Now()
	sess, err := st.attachPaused(inspectDesign)
	if err != nil {
		return r, "", err
	}
	tgt := remoteInspect{sess}
	var dg digest
	for _, op := range warm {
		if vals, err = op.apply(tgt, vals); err != nil {
			return r, "", fmt.Errorf("warm-up %s: %w", op.kind, err)
		}
		dg.add(vals)
	}
	el0, err := modeledStatus(sess)
	if err != nil {
		return r, "", err
	}
	r.setup = time.Since(t0)

	tm := startTimed(heapBase)
	for _, op := range script {
		s := time.Now()
		vals, err = op.apply(tgt, vals)
		d := time.Since(s)
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		r.samples = append(r.samples, sample{op.kind, d})
		dg.add(vals)
	}
	tm.stop(&r)

	el1, err := modeledStatus(sess)
	if err != nil {
		return r, "", err
	}
	el2, err := modeledStatus(sess)
	if err != nil {
		return r, "", err
	}
	// The second read prices one Status call, which the first includes.
	r.modeled = (el1 - el0) - (el2 - el1)
	if r.failed > 0 {
		return r, "", fmt.Errorf("%d of %d ops failed", r.failed, r.attempted)
	}
	return r, dg.String(), nil
}

// replayInspect runs the same scripts on an in-process session and
// returns the value digest the daemon runs must match.
func replayInspect(warm, script []inspectOp) (string, error) {
	zs, err := localInspectSession()
	if err != nil {
		return "", err
	}
	defer zs.Close()
	var dg digest
	var vals []uint64
	for _, op := range append(append([]inspectOp(nil), warm...), script...) {
		if vals, err = op.apply(localInspect{zs}, vals); err != nil {
			return "", err
		}
		dg.add(vals)
	}
	return dg.String(), nil
}
