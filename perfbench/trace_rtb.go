package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"time"

	"zoomie"
	"zoomie/internal/dbg"
	"zoomie/internal/server"
)

// localRTB builds an in-process run-to-break session, paused, with
// history recording on or off.
func localRTB(history bool) (*zoomie.Session, error) {
	zs, err := server.NewCatalogSessionWith(rtbDesign, func(cfg *zoomie.DebugConfig) {
		if !history {
			cfg.History = &zoomie.HistoryConfig{Disable: true}
		}
	})
	if err != nil {
		return nil, err
	}
	if err := zs.Pause(); err != nil {
		zs.Close()
		return nil, err
	}
	return zs, nil
}

// traceRunToBreak traces continue ops. Each op runs on the daemon
// (remote), on an in-process session recording history (facade), and on
// an in-process session with history off whose RunUntilPaused is
// expanded into its timed simulation chunks (sim) and paused-flag polls
// (poll). Self times:
//
//	history = facade − facade without history
//	sim     = simulated ticks
//	dbg     = facade without history − sim − polls
//
// The daemon leg holds the daemon to the same pause checks. Its time is
// not turned into a server self time: the server's share of a continue
// is a few hundred microseconds under a sim op of tens of milliseconds,
// and the difference of the two legs changed sign between seeds.
func traceRunToBreak(cfg runConfig, rec *recorder, rep *layerReport) error {
	ds := rtbDistances(cfg.seed)
	st, sess, cur, err := attachRTB()
	if err != nil {
		return err
	}
	defer st.close()
	withHist, err := localRTB(true)
	if err != nil {
		return err
	}
	defer withHist.Close()
	noHist, err := localRTB(false)
	if err != nil {
		return err
	}
	defer noHist.Close()
	for _, c := range []*zoomie.Session{withHist, noHist} {
		if v, err := c.Peek("cnt"); err != nil || v != cur {
			return fmt.Errorf("in-process counter %d (%v), daemon %d", v, err, cur)
		}
	}
	for _, d := range rtbWarm() {
		v, err := continueAll([]rtbTarget{sess, withHist, noHist}, cur, d)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		cur = v
	}

	var facade, bare, sim, poll time.Duration
	var ticks, polls int64
	for i, d := range ds {
		rep.attempted++
		top := rec.begin("run-to-break.op", i, -1)
		leg := func(name string, dur *time.Duration, v *uint64, run func() (uint64, int, error)) func() error {
			return func() error {
				var tk int
				var err error
				*dur, _, err = rec.timeSpan(name, i, top, func() (e error) {
					*v, tk, e = run()
					return
				})
				if err == nil {
					err = checkContinue(cur, d, *v, tk)
				}
				if err != nil {
					return fmt.Errorf("op %d on %s: %w", i, name, err)
				}
				return nil
			}
		}
		var st stepwise
		var dR, dF, dB time.Duration
		var v, vF, vB uint64
		err := runLegs(i, true,
			leg("client.remote", &dR, &v, func() (uint64, int, error) { return continueTo(sess, cur, d) }),
			leg("zoomie.facade", &dF, &vF, func() (uint64, int, error) { return continueTo(withHist, cur, d) }),
			leg("zoomie.facade_nohistory", &dB, &vB, func() (uint64, int, error) {
				var e error
				st, e = continueStepwise(noHist, cur, d, rec, i, top)
				return st.v, st.ticks, e
			}))
		rec.end(top)
		if err != nil {
			rep.failed++
			return err
		}
		facade += dF
		bare += dB
		sim += st.sim
		poll += st.poll
		ticks += int64(st.ticks)
		polls += int64(st.polls)
		cur = v
	}

	n := float64(len(ds))
	per := func(d time.Duration) float64 { return us(d) / n }
	rep.set("sim.tick_us", us(sim)/float64(ticks), "us")
	rep.set("history.record_us_per_tick", us(facade-bare)/float64(ticks), "us")
	rep.set("dbg.until_polls_per_op", float64(polls)/n, "count")
	rep.set("dbg.poll_us", us(poll)/float64(polls), "us")
	rep.set("dbg.continue_self_us", per(bare-sim-poll), "us")
	return traceSeek(cfg, withHist, rec, rep)
}

// stepwise is one continue op run with RunUntilPaused expanded into its
// public steps.
type stepwise struct {
	v         uint64
	ticks     int
	polls     int
	sim, poll time.Duration
}

// continueStepwise is continueTo on an in-process session with
// RunUntilPaused expanded into the public calls it is made of — run one
// poll chunk, read the paused flag — so simulation and polling are timed
// on the session that executes them. The op checks hold it to the same
// tick count the real RunUntilPaused reports.
func continueStepwise(zs *zoomie.Session, cur uint64, d int, rec *recorder, i, top int) (stepwise, error) {
	var st stepwise
	if err := zs.SetValueBreakpoint("q", cur+uint64(d), dbg.BreakAny); err != nil {
		return st, err
	}
	if err := zs.Resume(); err != nil {
		return st, err
	}
	for {
		if st.ticks >= 4*d {
			return st, fmt.Errorf("no trigger within %d ticks", 4*d)
		}
		s := rec.begin("sim.run", i, top)
		zs.Run(rtbChunk)
		st.sim += rec.end(s)
		st.ticks += rtbChunk
		p := rec.begin("dbg.poll", i, top)
		paused, err := zs.Paused()
		st.poll += rec.end(p)
		st.polls++
		if err != nil {
			return st, err
		}
		if paused {
			break
		}
	}
	v, err := zs.Peek("cnt")
	st.v = v
	return st, err
}

// continueAll runs one continue op on every target and requires each to
// pause on target.
func continueAll(ts []rtbTarget, cur uint64, d int) (uint64, error) {
	var v uint64
	for _, t := range ts {
		var ticks int
		var err error
		if v, ticks, err = continueTo(t, cur, d); err != nil {
			return 0, err
		}
		if err := checkContinue(cur, d, v, ticks); err != nil {
			return 0, err
		}
	}
	return v, nil
}

var (
	keyframesRE = regexp.MustCompile(`(\d+) keyframes`)
	horizonRE   = regexp.MustCompile(`tip: pos \d+ cycle (\d+), horizon: pos \d+ cycle (\d+)`)
)

// traceSeek times in-process Seek calls to seeded cycles inside the
// recorded horizon and reports the ring's keyframe count.
func traceSeek(cfg runConfig, zs *zoomie.Session, rec *recorder, rep *layerReport) error {
	lines := zs.HistoryStatusLines()
	var kf, tip, horizon uint64
	for _, l := range lines {
		if m := keyframesRE.FindStringSubmatch(l); m != nil {
			kf, _ = strconv.ParseUint(m[1], 10, 64)
		}
		if m := horizonRE.FindStringSubmatch(l); m != nil {
			tip, _ = strconv.ParseUint(m[1], 10, 64)
			horizon, _ = strconv.ParseUint(m[2], 10, 64)
		}
	}
	if kf == 0 || tip <= horizon+2 {
		return fmt.Errorf("history status has no usable horizon: %q", lines)
	}
	rep.set("history.keyframes", float64(kf), "count")
	rng := rand.New(rand.NewSource(cfg.seed))
	const seeks = 32
	var total time.Duration
	for i := 0; i < seeks; i++ {
		c := horizon + 1 + uint64(rng.Int63n(int64(tip-horizon-1)))
		d, _, err := rec.timeSpan("history.seek", i, -1, func() error { _, e := zs.Seek(c); return e })
		if err != nil {
			return fmt.Errorf("seek %d (horizon %d, tip %d): %w", c, horizon, tip, err)
		}
		total += d
	}
	rep.set("history.seek_us", us(total)/seeks, "us")
	return nil
}
