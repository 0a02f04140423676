package main

import (
	"fmt"
	"time"

	"zoomie"
	"zoomie/internal/core"
	"zoomie/internal/dbg"
	"zoomie/internal/fpga"
	"zoomie/internal/jtag"
	"zoomie/internal/server"
	"zoomie/internal/toolchain"
)

// setupLayers times the three calls zoomie.Debug makes to bring a
// session up — instrumentation, compile, and the cable boot that
// configures the board — on the inspect workloads' design, three times
// each, and reports the medians.
func setupLayers(rep *layerReport) error {
	entry, ok := server.Catalog()[inspectDesign]
	if !ok {
		return fmt.Errorf("no catalog design %q", inspectDesign)
	}
	var inst, comp, boot []float64
	for i := 0; i < 3; i++ {
		d, cfg := entry.Build()
		clock := cfg.UserClock
		if clock == "" {
			clock = "clk"
		}
		t := time.Now()
		wrapped, meta, err := core.Instrument(d, core.Config{
			Watches: cfg.Watches, UserClock: clock, PauseInputs: cfg.PauseInputs,
		})
		if err != nil {
			return err
		}
		inst = append(inst, msSince(t))
		opts := cfg.Compile
		opts.Clocks = append([]zoomie.ClockSpec{{Name: clock, Period: 1}, {Name: zoomie.DebugClock, Period: 1}}, cfg.ExtraClocks...)
		opts.Gates = meta.Gates()
		t = time.Now()
		res, err := toolchain.Compile(wrapped, opts)
		if err != nil {
			return err
		}
		comp = append(comp, msSince(t))
		d2, err := dbg.AttachWithOptions(fpga.NewBoard(res.Options.Device), res.Image, meta, jtag.Options{})
		if err != nil {
			return err
		}
		t = time.Now()
		if err := d2.Start(); err != nil {
			return err
		}
		boot = append(boot, msSince(t))
	}
	rep.set("core.instrument_ms", median(inst), "ms")
	rep.set("toolchain.compile_ms", median(comp), "ms")
	rep.set("jtag.boot_ms", median(boot), "ms")
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
