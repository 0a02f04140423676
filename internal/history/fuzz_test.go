package history

import (
	"testing"

	"zoomie/internal/rtl"
	"zoomie/internal/sim"
)

// fuzzSim builds the test counter without a *testing.T, so the fuzz body
// can make a fresh simulator per input.
func fuzzSim() *sim.Simulator {
	f, err := rtl.Elaborate(rtl.NewDesign("hist", testModule()))
	if err != nil {
		panic(err)
	}
	s, err := sim.NewWithOptions(f, oneClock, sim.DefaultOptions)
	if err != nil {
		panic(err)
	}
	return s
}

// FuzzDecode feeds arbitrary bytes to Decode, the parser behind
// OpStateImport blobs from any connected client. Whatever Decode and
// Transplant accept must then survive every read the debugger makes
// (reconstruction, cycle lookup, status, streaming) and further
// recording, and must re-encode to a blob Decode accepts again.
func FuzzDecode(f *testing.F) {
	s := fuzzSim()
	e := New(Config{KeyframeEvery: 8})
	e.Attach(s, "cyc")
	f.Add(e.Encode())
	s.Poke("en", 1)
	for i := 0; i < 30; i++ {
		s.Tick()
		if i == 10 {
			s.Poke("cnt", 99)
		}
	}
	e.SaveNamed("mark")
	f.Add(e.Encode())
	if st, err := e.StateAt(12); err == nil {
		s.Restore(&sim.Snapshot{Regs: st.Regs, Mems: st.Mems})
		e.SeekDone(12)
		s.Tick()
	}
	f.Add(e.Encode())

	f.Fuzz(func(t *testing.T, blob []byte) {
		e, err := Decode(blob)
		if err != nil {
			return
		}
		exercise(t, e)
		if err := e.Transplant(fuzzSim()); err != nil {
			return
		}
		exercise(t, e)
		e.sim.Poke("en", 1)
		for i := 0; i < 3; i++ {
			e.sim.Tick()
		}
		e.sim.Poke("cnt", 7)
		exercise(t, e)
	})
}

// exercise drives every read path over a decoded engine.
func exercise(t *testing.T, e *Engine) {
	pos, cyc := e.Cursor()
	tip, _ := e.Tip()
	hpos, _ := e.Horizon()
	for _, p := range []uint64{0, 1, hpos, hpos + 1, pos, tip, tip + 1} {
		e.StateAt(p)
		e.CycleAt(p)
	}
	for _, c := range []uint64{0, 1, cyc, cyc + 1} {
		e.PosForCycle(c)
	}
	e.Stat()
	e.TimelineList()
	e.KeyframesSince(0)
	e.ProbeBoundaries(tip)
	for _, n := range e.SaveNames() {
		e.Named(n)
	}
	if _, err := Decode(e.Encode()); err != nil {
		t.Fatalf("re-encoded blob does not decode: %v", err)
	}
}
