package server_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"zoomie/internal/client"
	"zoomie/internal/dbg"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// TestStateExportImport drives the cross-daemon failover transport
// directly: debug a session into an interesting state (breakpoint armed,
// paused mid-run, history recorded), export it, import the blob on a
// *different* server, and require the imported session to behave
// byte-identically — values, pause state, armed breakpoint, and a
// time-travel seek into pre-export history.
func TestStateExportImport(t *testing.T) {
	_, addrA := startServer(t, server.Config{PoolSize: 2})
	_, addrB := startServer(t, server.Config{PoolSize: 2})
	ca, err := client.Dial(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := client.Dial(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	src, err := ca.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SetValueBreakpoint("q", 50, dbg.BreakAny); err != nil {
		t.Fatal(err)
	}
	if _, err := src.RunUntilPaused(1 << 14); err != nil {
		t.Fatal(err)
	}
	if err := src.Step(25); err != nil {
		t.Fatal(err)
	}
	// Re-arm a breakpoint ahead of the counter *before* exporting: the
	// imported session must carry it still armed and un-fired.
	if err := src.SetValueBreakpoint("q", 200, dbg.BreakAny); err != nil {
		t.Fatal(err)
	}
	wantCnt, err := src.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	wantPaused, wantCycles, _, err := src.Status()
	if err != nil {
		t.Fatal(err)
	}

	blob, cyc, err := src.StateExport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cyc != wantCycles {
		t.Fatalf("export cycle %d, want %d", cyc, wantCycles)
	}
	if len(blob) == 0 {
		t.Fatal("empty export blob")
	}

	dst, err := cb.AttachWithState(context.Background(), "counter", blob)
	if err != nil {
		t.Fatal(err)
	}
	gotCnt, err := dst.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	if gotCnt != wantCnt {
		t.Fatalf("imported cnt = %d, want %d", gotCnt, wantCnt)
	}
	gotPaused, gotCycles, _, err := dst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if gotPaused != wantPaused || gotCycles != wantCycles {
		t.Fatalf("imported (paused,cycles) = (%v,%d), want (%v,%d)",
			gotPaused, gotCycles, wantPaused, wantCycles)
	}

	// The armed breakpoint traveled: resumed side by side, the source
	// and the imported session pause at q==200 in lockstep — same
	// register value, same cycle count.
	for _, s := range []*client.Session{src, dst} {
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunUntilPaused(1 << 14); err != nil {
			t.Fatalf("armed breakpoint lost in transit: %v", err)
		}
	}
	srcCnt, err := src.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	dstCnt, err := dst.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	_, srcCyc, _, err := src.Status()
	if err != nil {
		t.Fatal(err)
	}
	_, dstCyc, _, err := dst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if srcCnt != dstCnt || srcCyc != dstCyc {
		t.Fatalf("post-failover divergence: src (cnt=%d, cyc=%d), dst (cnt=%d, cyc=%d)",
			srcCnt, srcCyc, dstCnt, dstCyc)
	}

	// History traveled too: seek back to a cycle recorded before the
	// export, on the importing daemon.
	if wantCycles < 10 {
		t.Fatalf("test design ran only %d cycles", wantCycles)
	}
	if _, err := dst.HistSeek(wantCycles - 10); err != nil {
		t.Fatalf("seek into pre-export history: %v", err)
	}
	got, err := dst.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCycles-10 {
		t.Fatalf("seek landed at cycle %d, want %d", got, wantCycles-10)
	}

	// Export is v3-only: a v2 connection is told the op does not exist.
	c2, err := client.DialOptions(addrA, client.Options{ProtocolVersion: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	s2, err := c2.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.StateExport(context.Background()); !wire.IsCode(err, wire.CodeUnknownOp) {
		t.Fatalf("v2 StateExport error = %v, want CodeUnknownOp", err)
	}
	if _, err := c2.AttachWithState(context.Background(), "counter", blob); !wire.IsCode(err, wire.CodeUnknownOp) {
		t.Fatalf("v2 AttachWithState error = %v, want CodeUnknownOp", err)
	}

	// Corrupt blobs are refused, not panicked on.
	if _, err := cb.AttachWithState(context.Background(), "counter", []byte("garbage")); !wire.IsCode(err, wire.CodeBadRequest) {
		t.Fatalf("garbage import error = %v, want CodeBadRequest", err)
	}
}

// TestImportCorruptHistory feeds OpStateImport blobs whose history part
// has one byte replaced (200 seeded positions and values). Whatever the
// daemon accepts must survive seeks, history status, stepping (which
// records onto the imported engine) and detach, and the daemon must keep
// serving: a peer-supplied blob can never panic it.
func TestImportCorruptHistory(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 2})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Step(150); err != nil {
		t.Fatal(err)
	}
	blob, cyc, err := src.StateExport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Detach(); err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatal(err)
	}
	var hist []byte
	if err := json.Unmarshal(env["history"], &hist); err != nil || len(hist) == 0 {
		t.Fatalf("export carries no history (%v)", err)
	}

	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		bad := append([]byte(nil), hist...)
		bad[r.Intn(len(bad))] = byte(r.Intn(256))
		if env["history"], err = json.Marshal(bad); err != nil {
			t.Fatal(err)
		}
		mutated, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := c.AttachWithState(context.Background(), "counter", mutated)
		if err != nil {
			continue // refused is fine; only a crash is not
		}
		dst.HistSeek(cyc / 2)
		dst.HistSeek(1)
		dst.HistoryStatusLines()
		dst.Step(3)
		dst.Peek("cnt")
		if err := dst.Detach(); err != nil {
			t.Fatalf("mutant %d: detach: %v", i, err)
		}
	}
	if _, err := c.Attach("counter"); err != nil {
		t.Fatalf("daemon stopped serving: %v", err)
	}
}
