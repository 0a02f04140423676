package main

import (
	"fmt"
	"math/rand"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/dbg"
	"zoomie/internal/server"
	"zoomie/internal/workloads"
)

// The traced run's run-to-break section continues a 16-core manycore
// SoC to a value breakpoint a seeded distance ahead on a free-running
// 32-bit counter wrapped around it. Simulation and history recording
// dominate each op; the command path is a small fixed cost.
const (
	rtbDesign = "perfbench-rtb"
	rtbCores  = 16
	// rtbChunk is the tick granularity of RunUntilPaused's paused-flag
	// polling, which rounds every op's tick count up to a multiple of it.
	rtbChunk = 64
	// rtbLag is how many counter values past the breakpoint value the
	// design has advanced when the paused flag is first seen.
	rtbLag = 0
	// rtbWarmTicks covers the default history ring (64 keyframes, one
	// every 64 ticks) plus one spare keyframe, so every traced op records
	// into a full ring that is evicting.
	rtbWarmTicks = 65 * 64
)

func init() {
	server.Register(rtbDesign, server.Entry{
		Describe: "16-core manycore SoC with a free-running watched counter (benchmark)",
		Build: func() (*zoomie.Design, zoomie.DebugConfig) {
			soc := workloads.ManycoreSoC(rtbCores)
			m := zoomie.NewModule("rtb_top")
			en := m.Input("en", 1)
			q := m.Output("q", 32)
			csum := m.Output("checksum", 32)
			cnt := m.Reg("cnt", 32, "clk", 0)
			m.SetNext(cnt, zoomie.Add(zoomie.S(cnt), zoomie.C(1, 32)))
			m.Connect(q, zoomie.S(cnt))
			inst := m.Instantiate("soc", soc.Top)
			inst.ConnectInput("en", zoomie.S(en))
			inst.ConnectOutput("checksum", csum)
			return zoomie.NewDesign("rtb_top", m), zoomie.DebugConfig{Watches: []string{"q"}}
		},
		Init: func(s *zoomie.Session) error { return s.PokeInput("en", 1) },
	})
}

// rtbDistances draws the seeded breakpoint distances of the traced ops:
// one per stratum of [384, 1152), shuffled, so every seed's mean and
// median distance is the same to within one stratum.
func rtbDistances(seed int64) []int {
	const n, lo, hi = 24, 384, 1152
	rng := rand.New(rand.NewSource(seed))
	ds := make([]int, n)
	w := float64(hi-lo) / float64(n)
	for i := range ds {
		ds[i] = lo + int((float64(i)+rng.Float64())*w)
	}
	rng.Shuffle(n, func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

// rtbTarget is the command surface a continue op needs.
type rtbTarget interface {
	SetValueBreakpoint(signal string, value uint64, mode dbg.BreakMode) error
	Resume() error
	RunUntilPaused(maxTicks int) (int, error)
	Peek(name string) (uint64, error)
}

// continueTo runs one op: break at cur+d, continue, read the counter. It
// returns the paused counter value and the ticks consumed.
func continueTo(t rtbTarget, cur uint64, d int) (uint64, int, error) {
	target := cur + uint64(d)
	if err := t.SetValueBreakpoint("q", target, dbg.BreakAny); err != nil {
		return 0, 0, fmt.Errorf("break: %w", err)
	}
	if err := t.Resume(); err != nil {
		return 0, 0, fmt.Errorf("resume: %w", err)
	}
	ticks, err := t.RunUntilPaused(4 * d)
	if err != nil {
		return 0, ticks, fmt.Errorf("until: %w", err)
	}
	v, err := t.Peek("cnt")
	if err != nil {
		return 0, ticks, fmt.Errorf("peek: %w", err)
	}
	return v, ticks, nil
}

// checkContinue verifies one op against its target: the counter paused
// exactly at the breakpoint value and the tick count is the distance
// rounded up to the poll chunk.
func checkContinue(cur uint64, d int, v uint64, ticks int) error {
	if want := cur + uint64(d) + rtbLag; v != want {
		return fmt.Errorf("paused at counter %d, want %d (start %d, distance %d)", v, want, cur, d)
	}
	if want := rtbExpectedTicks(cur, d); ticks != want {
		return fmt.Errorf("consumed %d ticks, want %d (start %d, distance %d)", ticks, want, cur, d)
	}
	return nil
}

// rtbExpectedTicks is the tick count RunUntilPaused reports for a
// distance d: the breakpoint fires d cycles after resume and the design
// is seen paused at the end of the poll chunk that contains it.
func rtbExpectedTicks(_ uint64, d int) int {
	need := d + 1
	return (need + rtbChunk - 1) / rtbChunk * rtbChunk
}

// rtbWarm returns warm-up distances covering rtbWarmTicks.
func rtbWarm() []int {
	var ds []int
	for t := 0; t < rtbWarmTicks; t += 1000 {
		ds = append(ds, 1000)
	}
	return ds
}

// attachRTB starts a daemon and attaches a paused run-to-break session,
// returning the current counter value.
func attachRTB() (*stack, *client.Session, uint64, error) {
	st, err := startStack(false)
	if err != nil {
		return nil, nil, 0, err
	}
	sess, err := st.attachPaused(rtbDesign)
	if err != nil {
		st.close()
		return nil, nil, 0, err
	}
	cur, err := sess.Peek("cnt")
	if err != nil {
		st.close()
		return nil, nil, 0, err
	}
	return st, sess, cur, nil
}
