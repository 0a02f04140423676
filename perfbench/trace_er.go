package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"zoomie/internal/farm"
	"zoomie/internal/server"
	"zoomie/internal/vti"
)

// erPhases are the recompile phases in the order a resident recompile
// enters them (farm artifacts skip image elaboration).
var erPhases = []string{vti.PhaseSynth, vti.PhasePlace, vti.PhaseRoute, vti.PhaseTiming, vti.PhaseBitgen, vti.PhaseLink}

// phaseLog collects farm.Config.PhaseHook entries with their times.
type phaseLog struct {
	mu      sync.Mutex
	entries map[uint64][]phaseEntry
}

type phaseEntry struct {
	phase string
	at    time.Time
}

func (p *phaseLog) hook(job uint64, phase string) {
	now := time.Now()
	p.mu.Lock()
	p.entries[job] = append(p.entries[job], phaseEntry{phase, now})
	p.mu.Unlock()
}

func (p *phaseLog) of(job uint64) []phaseEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]phaseEntry(nil), p.entries[job]...)
}

// traceEditRecompile runs each edit three ways, interleaved per tag (see
// runLegs): on an in-process farm whose phase hook timestamps every
// phase entry, through a fresh daemon following the progress stream,
// and through another fresh daemon awaiting the job with the client's
// polling Wait. Self times:
//
//	queue     = submit → first phase entry
//	phase X   = entry of X → entry of the next phase (link → job done)
//	wait poll = Wait op − stream op
//
// The daemon's own share (stream op − in-process op) is not reported:
// it is far below the run-to-run noise of a recompile on a shared host
// and changed sign between seeds.
//
// Every op must finish done with the same bitstream digest on the
// daemon and the in-process farm, and a seeded one of the tags must pass
// the bit-identity oracle: a cold compile and a warm recompile of the
// edit both produce the op's bitstream.
func traceEditRecompile(cfg runConfig, rec *recorder, rep *layerReport) error {
	tags := erTags(cfg.seed)
	spec, err := server.CompileSpec(erDesign)
	if err != nil {
		return err
	}
	log := &phaseLog{entries: map[uint64][]phaseEntry{}}
	f := farm.New(farm.Config{PhaseHook: log.hook})
	ctx := context.Background()
	wait := func(j *farm.Job, a farm.Attach, err error) (*farm.Job, error) {
		if err != nil {
			return nil, err
		}
		if a != farm.AttachNew {
			return nil, fmt.Errorf("job %d did not start a new execution", j.ID())
		}
		return j, j.Wait(ctx)
	}
	if _, err := wait(f.Compile(spec)); err != nil {
		return fmt.Errorf("base compile: %w", err)
	}
	if _, err := wait(f.Recompile(spec, erWarmTag)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	store0 := f.Stats().Store
	streamD, err := startER()
	if err != nil {
		return err
	}
	defer streamD.close()
	waitD, err := startER()
	if err != nil {
		return err
	}
	defer waitD.close()

	phase := map[string]time.Duration{}
	var queue, streamDur, waitDur time.Duration
	var cells int
	digests := make([]string, len(tags))
	for i, tag := range tags {
		rep.attempted++
		var st farm.JobStatus
		err := runLegs(i, true, func() error {
			top := rec.begin("edit-recompile.farm_op", i, -1)
			s := time.Now()
			j, err := wait(f.Recompile(spec, tag))
			end := time.Now()
			rec.end(top)
			if err != nil {
				return fmt.Errorf("tag %d: %w", tag, err)
			}
			if st = j.Status(); st.State != farm.StateDone {
				return fmt.Errorf("tag %d: %s", tag, st.Line())
			}
			es := log.of(j.ID())
			if len(es) != len(erPhases) {
				return fmt.Errorf("tag %d: phases %v, want %v", tag, es, erPhases)
			}
			queue += es[0].at.Sub(s)
			for k, e := range es {
				if e.phase != erPhases[k] {
					return fmt.Errorf("tag %d: phase %d is %s, want %s", tag, k, e.phase, erPhases[k])
				}
				next := end
				if k+1 < len(es) {
					next = es[k+1].at
				}
				phase[e.phase] += next.Sub(e.at)
				sp := rec.begin("vti."+e.phase, i, top)
				rec.spans[sp].Start = int64(e.at.Sub(rec.base))
				rec.spans[sp].End = int64(next.Sub(rec.base))
			}
			return nil
		}, func() error {
			d, dg, err := streamD.op(rec, i, tag, false)
			streamDur += d
			digests[i] = dg
			return err
		}, func() error {
			d, _, err := waitD.op(rec, i, tag, true)
			waitDur += d
			return err
		})
		if err == nil && !strings.HasPrefix(st.Digest, digests[i]) {
			err = fmt.Errorf("tag %d: daemon digest %s, in-process farm %s", tag, digests[i], st.Digest)
		}
		if err != nil {
			rep.failed++
			return err
		}
		cells += st.Cells
	}
	store := f.Stats().Store
	hits, misses := store.Hits-store0.Hits, store.Misses-store0.Misses

	n := float64(len(tags))
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / n }
	for _, p := range erPhases {
		rep.set("vti."+p+"_ms", ms(phase[p]), "ms")
	}
	rep.set("farm.queue_us", us(queue)/n, "us")
	rep.set("client.wait_poll_extra_ms", ms(waitDur-streamDur), "ms")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	rep.set("synth.store_hit_ratio", ratio, "ratio")
	rep.set("synth.cells_per_op", float64(cells)/n, "count")
	rep.set("farm.retained_jobs", float64(len(f.Jobs())), "count")
	k := rand.New(rand.NewSource(cfg.seed ^ 0x5eed)).Intn(len(tags))
	cold, warm, err := streamD.cli.CompileCheck(erDesign, tags[k])
	if err != nil {
		rep.failed++
		return fmt.Errorf("compile check tag %d: %w", tags[k], err)
	}
	if cold != warm || !strings.HasPrefix(cold, digests[k]) {
		rep.failed++
		return fmt.Errorf("compile check tag %d: cold %s, warm %s, op %s", tags[k], cold, warm, digests[k])
	}
	rep.info["compile_check"] = fmt.Sprintf("tag %d: cold = warm = op digest %s", tags[k], digests[k])
	return nil
}

// erDaemon is a fresh daemon with the edit design's base compile and
// warm-up edit done.
type erDaemon struct{ *stack }

func startER() (erDaemon, error) {
	st, err := startStack(false)
	if err != nil {
		return erDaemon{}, err
	}
	for _, c := range []struct {
		mode string
		tag  int
	}{{"vti", 0}, {"recompile", erWarmTag}} {
		if _, _, err := submitAndFollow(st.cli, c.mode, c.tag); err != nil {
			st.close()
			return erDaemon{}, fmt.Errorf("%s %d: %w", c.mode, c.tag, err)
		}
	}
	return erDaemon{st}, nil
}

// op recompiles one tag, awaiting the job on its progress stream or,
// with poll, with CompileTicket.Wait, and returns the op time and the
// job's bitstream digest.
func (e erDaemon) op(rec *recorder, i, tag int, poll bool) (time.Duration, string, error) {
	name := "client.remote_stream"
	if poll {
		name = "client.remote_wait"
	}
	var id uint64
	d, _, err := rec.timeSpan(name, i, -1, func() error {
		if !poll {
			var err error
			id, _, err = submitAndFollow(e.cli, "recompile", tag)
			return err
		}
		t, err := submitNew(e.cli, "recompile", tag)
		if err != nil {
			return err
		}
		id = t.ID
		_, err = t.Wait(context.Background())
		return err
	})
	if err != nil {
		return 0, "", fmt.Errorf("%s tag %d: %w", name, tag, err)
	}
	dg, err := jobDigest(e.cli, id)
	return d, dg, err
}
