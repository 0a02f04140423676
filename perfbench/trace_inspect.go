package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"zoomie"
	"zoomie/internal/core"
	"zoomie/internal/dbg"
	"zoomie/internal/jtag"
	"zoomie/internal/wire"
)

// cableOp is one logical cable operation an op performs: a coalesced
// readback of a frame set on one SLR, or the writeback of the same set.
type cableOp struct {
	slr    int
	frames []int
	write  bool
}

// frameSets groups the frames holding the named registers by SLR, in
// the sorted SLR and frame order the debugger's frame plans use.
func frameSets(zs *zoomie.Session, names []string) ([]cableOp, error) {
	per := map[int]map[int]bool{}
	for _, n := range names {
		loc, ok := zs.Image.Map.Reg(n)
		if !ok {
			loc, ok = zs.Image.Map.Reg(dbg.DutPrefix + "." + n)
		}
		if !ok {
			return nil, fmt.Errorf("no register %q in the state map", n)
		}
		if per[loc.Addr.SLR] == nil {
			per[loc.Addr.SLR] = map[int]bool{}
		}
		per[loc.Addr.SLR][loc.Addr.Frame] = true
	}
	var ops []cableOp
	for slr, fs := range per {
		op := cableOp{slr: slr}
		for f := range fs {
			op.frames = append(op.frames, f)
		}
		sort.Ints(op.frames)
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].slr < ops[j].slr })
	return ops, nil
}

// readModifyWrite turns read sets into the readback + writeback pairs a
// planned write performs.
func readModifyWrite(sets []cableOp) []cableOp {
	var out []cableOp
	for _, s := range sets {
		w := s
		w.write = true
		out = append(out, s, w)
	}
	return out
}

// cablePlan derives an inspect op's cable operations from the image's
// state map, mirroring the debugger's frame plans: a peek or batch reads
// its frame set; a poke reads and writes it back; a step arms the
// controller in one planned write, runs, and reads the paused flag.
func cablePlan(zs *zoomie.Session, op inspectOp) ([]cableOp, error) {
	switch op.kind {
	case kindPeek, kindBatch:
		return frameSets(zs, op.regs)
	case kindPoke:
		sets, err := frameSets(zs, op.regs)
		return readModifyWrite(sets), err
	case kindStep:
		m := zs.Meta
		arm, err := frameSets(zs, []string{m.Reg(core.RegStepCnt), m.Reg(core.RegStepArm), m.Reg(core.RegPauseReq), m.Reg(core.RegPaused)})
		if err != nil {
			return nil, err
		}
		paused, err := frameSets(zs, []string{m.Reg(core.RegPaused)})
		return append(readModifyWrite(arm), paused...), err
	}
	return nil, fmt.Errorf("unknown op kind %q", op.kind)
}

// codec round-trips an op's request and response through the v3
// encoder and decoder on an in-memory buffer.
type codec struct {
	buf bytes.Buffer
	enc *wire.Encoder
	dec *wire.Decoder
}

func newCodec() *codec {
	c := &codec{}
	c.enc = wire.NewEncoder(&c.buf, wire.Version)
	c.dec = wire.NewDecoder(&c.buf, wire.Version)
	return c
}

func (c *codec) roundTrip(m *wire.Message) (int, error) {
	c.buf.Reset()
	n, err := c.enc.Encode(m)
	if err != nil {
		return 0, err
	}
	if _, _, err := c.dec.Next(); err != nil {
		return 0, err
	}
	return n, nil
}

// messages builds the request a client sends for op and the response a
// daemon returns for it.
func (op inspectOp) messages(id, sid uint64, vals []uint64) (*wire.Message, *wire.Message) {
	req := &wire.Request{ID: id, Session: sid, Client: 1, Seq: id}
	resp := &wire.Response{ID: id}
	switch op.kind {
	case kindPeek:
		req.Op, req.Name = wire.OpPeek, op.regs[0]
		resp.Value = vals[0]
	case kindBatch:
		req.Op = wire.OpPeekBatch
		for _, n := range op.regs {
			req.Items = append(req.Items, wire.BatchItem{Name: n})
		}
		resp.Values = vals
	case kindPoke:
		req.Op, req.Name, req.Value = wire.OpPoke, op.regs[0], op.val
	case kindStep:
		req.Op, req.N = wire.OpStep, op.n
	}
	return wire.Req(req), wire.Resp(resp)
}

// layerSums accumulates per-op span totals.
type layerSums struct {
	remote, fleet, facade, codec             time.Duration
	jtagRead, jtagWrite, fpgaRead, fpgaWrite time.Duration
	aRemote, aFacade, aCodec, aJtag          uint64
	bytes, readbacks, framesRead             int64
	fleetByKind, remoteByKind                map[string]time.Duration
	nByKind                                  map[string]int
	// vals are the value buffers of the daemon, coordinator and
	// in-process legs, reused so the legs' spans hold no benchmark
	// allocations.
	vals [3][]uint64
}

// traceInspect traces the inspect script: each op runs on a daemon
// reached directly, on a daemon behind a coordinator, and on an
// in-process session, then its codec, cable and board work is replayed
// on the in-process session's cable and board.
func traceInspect(cfg runConfig, rec *recorder, rep *layerReport) error {
	warm, script := inspectScripts(cfg.seed, cfg.short)
	direct, dsess, err := attachInspect(false)
	if err != nil {
		return err
	}
	defer direct.close()
	fl, fsess, err := attachInspect(true)
	if err != nil {
		return err
	}
	defer fl.close()
	zs, err := localInspectSession()
	if err != nil {
		return err
	}
	defer zs.Close()

	targets := []inspectTarget{remoteInspect{dsess}, remoteInspect{fsess}, localInspect{zs}}
	for _, op := range warm {
		if _, err := applyAll(op, targets); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	reg := fl.co.Obs()
	cp, hb := reg.Counter("zfleet.checkpoints"), reg.Counter("zfleet.heartbeats")
	cp0 := cp.Load()
	cd := newCodec()
	s := layerSums{fleetByKind: map[string]time.Duration{}, remoteByKind: map[string]time.Duration{}, nByKind: map[string]int{}}
	for k := range s.vals {
		s.vals[k] = make([]uint64, 0, 8)
	}
	for i, op := range script {
		rep.attempted++
		if err := traceInspectOp(i, op, dsess.ID, targets, zs, cd, rec, &s); err != nil {
			rep.failed++
			return fmt.Errorf("op %d (%s): %w", i, op.kind, err)
		}
	}
	// Heartbeats run on a timer, so their rate is taken over the
	// coordinator's whole life rather than the (short) op sequence.
	// The window is at least two seconds so a short trace still sees
	// several heartbeat periods.
	if rest := 2*time.Second - time.Since(fl.started); rest > 0 {
		time.Sleep(rest)
	}
	hbRate := float64(hb.Load()) / time.Since(fl.started).Seconds()

	n := float64(len(script))
	per := func(d time.Duration) float64 { return us(d) / n }
	// The blocking path of a direct op, outermost layer first.
	path := map[string]float64{
		"server.self_us": per(s.remote - s.facade - s.codec),
		"wire.codec_us":  per(s.codec),
		"dbg.self_us":    per(s.facade - s.jtagRead - s.jtagWrite),
		"jtag.self_us":   per(s.jtagRead + s.jtagWrite - s.fpgaRead - s.fpgaWrite),
		"fpga.read_us":   per(s.fpgaRead),
		"fpga.write_us":  per(s.fpgaWrite),
	}
	for name, v := range path {
		rep.set(name, v, "us")
	}
	rep.set("wire.allocs_per_op", float64(s.aCodec)/n, "count")
	rep.set("wire.bytes_per_op", float64(s.bytes)/n, "B")
	rep.set("server.allocs_per_op", (float64(s.aRemote)-float64(s.aFacade)-float64(s.aCodec))/n, "count")
	rep.set("dbg.allocs_per_op", (float64(s.aFacade)-float64(s.aJtag))/n, "count")
	rep.set("jtag.readback_us", per(s.jtagRead), "us")
	rep.set("jtag.writeback_us", per(s.jtagWrite), "us")
	rep.set("jtag.readbacks_per_op", float64(s.readbacks)/n, "count")
	rep.set("bitstream.frames_read_per_op", float64(s.framesRead)/n, "count")
	rep.set("fleet.forward_us", per(s.fleet-s.remote), "us")
	rep.set("fleet.checkpoints_per_op", float64(cp.Load()-cp0)/n, "count")
	rep.set("fleet.heartbeats_per_s", hbRate, "1/s")
	fwd := map[string]float64{}
	for k, c := range s.nByKind {
		fwd[k] = us(s.fleetByKind[k]-s.remoteByKind[k]) / float64(c)
	}
	rep.info["fleet_forward_us_by_kind"] = fwd

	name, traced := "inspect", per(s.remote)
	if cfg.focusFleet {
		name, traced = "inspect-fleet", per(s.fleet)
		path["fleet.forward_us"] = per(s.fleet - s.remote)
	}
	r, _, err := inspectRound(cfg.focusFleet, warm, script)
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}
	rep.pathCheck(name, traced, meanUS(r.samples), path)
	return nil
}

func meanUS(ss []sample) float64 {
	var t time.Duration
	for _, s := range ss {
		t += s.dur
	}
	return us(t) / float64(len(ss))
}

// applyAll runs op on every target and requires identical values.
func applyAll(op inspectOp, ts []inspectTarget) ([]uint64, error) {
	var first []uint64
	for i, t := range ts {
		vals, err := op.apply(t, nil)
		if err != nil {
			return nil, err
		}
		if i > 0 && !equalVals(vals, first) {
			return nil, fmt.Errorf("target %d read %v, target 0 read %v", i, vals, first)
		}
		first = vals
	}
	return first, nil
}

func equalVals(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func traceInspectOp(i int, op inspectOp, sid uint64, ts []inspectTarget, zs *zoomie.Session,
	cd *codec, rec *recorder, s *layerSums) error {
	top := rec.begin("inspect.op", i, -1)
	defer rec.end(top)

	rv, fv, lv := s.vals[0], s.vals[1], s.vals[2]
	var dR, dFl, dF time.Duration
	var aR, aF uint64
	var st0, st1 jtag.CableStats
	var fr0, fr1 int
	err := runLegs(i, false, func() (err error) {
		dR, aR, err = rec.timeSpan("client.remote", i, top, func() (e error) { rv, e = op.apply(ts[0], rv); return })
		if err != nil {
			err = fmt.Errorf("daemon: %w", err)
		}
		return
	}, func() (err error) {
		dFl, _, err = rec.timeSpan("fleet.remote", i, top, func() (e error) { fv, e = op.apply(ts[1], fv); return })
		if err != nil {
			err = fmt.Errorf("coordinator: %w", err)
		}
		return
	}, func() (err error) {
		st0, fr0 = zs.Cable.Stats(), zs.Cable.Chain.Stats.FramesRead
		dF, aF, err = rec.timeSpan("zoomie.facade", i, top, func() (e error) { lv, e = op.apply(ts[2], lv); return })
		st1, fr1 = zs.Cable.Stats(), zs.Cable.Chain.Stats.FramesRead
		if err != nil {
			err = fmt.Errorf("in-process: %w", err)
		}
		return
	})
	if err != nil {
		return err
	}
	if !equalVals(rv, lv) || !equalVals(fv, lv) {
		return fmt.Errorf("daemon read %v, coordinator %v, in-process %v", rv, fv, lv)
	}

	req, resp := op.messages(uint64(i+1), sid, lv)
	var nb int
	dC, aC, err := rec.timeSpan("wire.codec", i, top, func() error {
		n1, err := cd.roundTrip(req)
		if err != nil {
			return err
		}
		n2, err := cd.roundTrip(resp)
		nb = n1 + n2
		return err
	})
	if err != nil {
		return err
	}

	plan, err := cablePlan(zs, op)
	if err != nil {
		return err
	}
	var reads, writes int64
	for _, c := range plan {
		if c.write {
			writes++
		} else {
			reads++
		}
	}
	if got := st1.Readbacks - st0.Readbacks; got != reads {
		return fmt.Errorf("derived %d readbacks, the cable counted %d", reads, got)
	}
	if got := st1.Writebacks - st0.Writebacks; got != writes {
		return fmt.Errorf("derived %d writebacks, the cable counted %d", writes, got)
	}
	dJR, dJW, dBR, dBW, aJ, err := replayCable(i, top, zs, plan, rec)
	if err != nil {
		return err
	}

	s.remote += dR
	s.fleet += dFl
	s.facade += dF
	s.codec += dC
	s.jtagRead += dJR
	s.jtagWrite += dJW
	s.fpgaRead += dBR
	s.fpgaWrite += dBW
	s.aRemote += aR
	s.aFacade += aF
	s.aCodec += aC
	s.aJtag += aJ
	s.bytes += int64(nb)
	s.readbacks += st1.Readbacks - st0.Readbacks
	s.framesRead += int64(fr1 - fr0)
	s.fleetByKind[op.kind] += dFl
	s.remoteByKind[op.kind] += dR
	s.nByKind[op.kind]++
	return nil
}

// replayCable repeats an op's cable operations on the in-process
// session's cable, then the same frame accesses on its board. Writes put
// back exactly the frames just read, so design state is unchanged.
func replayCable(i, top int, zs *zoomie.Session, plan []cableOp, rec *recorder) (jr, jw, br, bw time.Duration, allocs uint64, err error) {
	data := make([][][]uint32, len(plan))
	for k, c := range plan {
		k, c := k, c
		var d time.Duration
		var a uint64
		if c.write {
			d, a, err = rec.timeSpan("jtag.writeback", i, top, func() error {
				return zs.Cable.WritebackFrames(c.slr, c.frames, data[k-1])
			})
			jw += d
		} else {
			d, a, err = rec.timeSpan("jtag.readback", i, top, func() (e error) {
				data[k], e = zs.Cable.ReadbackFrames(c.slr, c.frames)
				return
			})
			jr += d
		}
		allocs += a
		if err != nil {
			return
		}
		data[k] = copyFrames(data[k])
	}
	board := zs.Cable.Board
	for k, c := range plan {
		k, c := k, c
		var d time.Duration
		if c.write {
			d, _, err = rec.timeSpan("fpga.write", i, top, func() error {
				for j, f := range c.frames {
					if e := board.WriteFrame(c.slr, f, data[k-1][j]); e != nil {
						return e
					}
				}
				return nil
			})
			bw += d
		} else {
			d, _, err = rec.timeSpan("fpga.read", i, top, func() error {
				for _, f := range c.frames {
					if _, e := board.ReadFrame(c.slr, f); e != nil {
						return e
					}
				}
				return nil
			})
			br += d
		}
		if err != nil {
			return
		}
	}
	return
}

func copyFrames(in [][]uint32) [][]uint32 {
	out := make([][]uint32, len(in))
	for i, f := range in {
		out[i] = append([]uint32(nil), f...)
	}
	return out
}
