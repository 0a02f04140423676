package front_test

import (
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"zoomie/internal/fleet"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// TestFrontConformance runs one script against a daemon and against a
// coordinator fronting a daemon, at every negotiable protocol version,
// and requires the two transcripts to be identical: a client must not be
// able to tell which actor answered. The script covers the negotiated
// version, refusal of a bad first frame and of a too-old client, every
// op the connection's version predates (from the wire gate table), ops
// the protocol does not define, and the error code of a peek at an
// unknown register, which v1 sees as plain op_failed.
func TestFrontConformance(t *testing.T) {
	daemon := startDaemon(t)
	actors := []struct{ name, addr string }{
		{"daemon", daemon},
		{"coordinator", startCoordinator(t, startDaemon(t), fleet.Config{})},
	}
	transcripts := make([][]string, len(actors))
	for i, a := range actors {
		transcripts[i] = append(transcripts[i], refusals(t, a.addr)...)
		for ver := wire.MinVersion; ver <= wire.Version; ver++ {
			transcripts[i] = append(transcripts[i], script(t, a.addr, ver)...)
		}
	}
	if !reflect.DeepEqual(transcripts[0], transcripts[1]) {
		t.Fatalf("daemon and coordinator answer differently:\ndaemon:\n  %s\ncoordinator:\n  %s",
			strings.Join(transcripts[0], "\n  "), strings.Join(transcripts[1], "\n  "))
	}
	for _, line := range transcripts[0] {
		t.Log(line)
	}
}

// TestFrontShedEveryVersion: a coordinator at capacity refuses an
// attach with overloaded and a retry-after hint at every protocol
// version. The code is not one v1 sees as op_failed, because a v1
// client with auto-reconnect retries an attach only on overloaded.
func TestFrontShedEveryVersion(t *testing.T) {
	addr := startCoordinator(t, startDaemon(t), fleet.Config{MaxPerDaemon: 1, RetryAfterMS: 40})
	holder := dial(t, addr)
	holder.call(t, &wire.Request{Op: wire.OpHello, Version: wire.Version})
	holder.ver = wire.Version
	if a := holder.call(t, &wire.Request{Op: wire.OpAttach, Design: "counter"}); a.Err != nil {
		t.Fatalf("attach to fill the fleet: %v", a.Err)
	}
	for ver := wire.MinVersion; ver <= wire.Version; ver++ {
		c := dial(t, addr)
		c.call(t, &wire.Request{Op: wire.OpHello, Version: ver})
		c.ver = ver
		resp := c.call(t, &wire.Request{Op: wire.OpAttach, Design: "counter"})
		if resp.Err == nil || resp.Err.Code != wire.CodeOverloaded || resp.Value != 40 {
			t.Errorf("v%d attach at capacity = %+v (value %d), want %s with retry-after 40",
				ver, resp.Err, resp.Value, wire.CodeOverloaded)
		}
	}
}

// script negotiates ver and returns one transcript line per answer,
// checking each against what a connection at ver must see.
func script(t *testing.T, addr string, ver int) []string {
	c := dial(t, addr)
	hello := c.call(t, &wire.Request{Op: wire.OpHello, Version: ver})
	if hello.Err != nil || hello.Version != ver {
		t.Fatalf("v%d hello = %+v, want version %d", ver, hello, ver)
	}
	c.ver = ver
	lines := []string{fmt.Sprintf("v%d hello: version %d", ver, hello.Version)}

	attach := c.call(t, &wire.Request{Op: wire.OpAttach, Design: "counter"})
	if attach.Err != nil {
		t.Fatalf("v%d attach: %v", ver, attach.Err)
	}
	sid := attach.Session

	peek := c.call(t, &wire.Request{Op: wire.OpPeek, Session: sid, Name: "nosuchreg"})
	want := wire.CodeUnknownState
	if ver < 2 {
		want = wire.CodeOp
	}
	if peek.Err == nil || peek.Err.Code != want {
		t.Errorf("v%d peek of an unknown register = %+v, want %s", ver, peek.Err, want)
	}
	lines = append(lines, fmt.Sprintf("v%d peek nosuchreg: %s", ver, code(peek)))

	var gated []string
	for op, since := range wire.OpSince {
		if since > ver {
			gated = append(gated, op)
		}
	}
	sort.Strings(gated)
	for _, op := range gated {
		resp := c.call(t, &wire.Request{Op: op, Session: sid})
		if resp.Err == nil || resp.Err.Code != wire.CodeUnknownOp {
			t.Errorf("v%d %s (since v%d) = %+v, want %s", ver, op, wire.OpSince[op], resp.Err, wire.CodeUnknownOp)
		}
		lines = append(lines, fmt.Sprintf("v%d %s: %s", ver, op, code(resp)))
	}

	// Names the protocol does not define, including the actors' own
	// housekeeping ops, never reach a session.
	for _, op := range []string{"nosuchop", "_probe", "_histpoll", "fleet.migrate", "fleet.kick"} {
		resp := c.call(t, &wire.Request{Op: op, Session: sid})
		if resp.Err == nil || resp.Err.Code != wire.CodeUnknownOp {
			t.Errorf("v%d undefined op %q = %+v, want %s", ver, op, resp.Err, wire.CodeUnknownOp)
		}
		lines = append(lines, fmt.Sprintf("v%d %s: %s", ver, op, code(resp)))
	}

	detach := c.call(t, &wire.Request{Op: wire.OpDetach, Session: sid})
	lines = append(lines, fmt.Sprintf("v%d detach: %s", ver, code(detach)))
	return lines
}

// refusals checks that a non-hello first frame and a hello below
// MinVersion are refused with their typed codes.
func refusals(t *testing.T, addr string) []string {
	bad := dial(t, addr).call(t, &wire.Request{Op: wire.OpStatus})
	if bad.Err == nil || bad.Err.Code != wire.CodeBadRequest {
		t.Errorf("non-hello first frame = %+v, want %s", bad.Err, wire.CodeBadRequest)
	}
	old := dial(t, addr).call(t, &wire.Request{Op: wire.OpHello, Version: wire.MinVersion - 1})
	if old.Err == nil || old.Err.Code != wire.CodeVersion {
		t.Errorf("hello at v%d = %+v, want %s", wire.MinVersion-1, old.Err, wire.CodeVersion)
	}
	return []string{"first frame status: " + code(bad), "hello below MinVersion: " + code(old)}
}

func code(r *wire.Response) string {
	if r.Err == nil {
		return "ok"
	}
	return r.Err.Code
}

// rawConn speaks the protocol frame by frame, so the script sees exactly
// what the actor sends.
type rawConn struct {
	nc  net.Conn
	ver int // codec in use: JSON until the hello reply is read
	id  uint64
}

func dial(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	return &rawConn{nc: nc, ver: 1}
}

// call sends one request and returns its response, skipping events.
func (c *rawConn) call(t *testing.T, req *wire.Request) *wire.Response {
	t.Helper()
	c.id++
	req.ID = c.id
	if _, err := wire.WriteMessageV(c.nc, wire.Req(req), c.ver); err != nil {
		t.Fatalf("%s: %v", req.Op, err)
	}
	for {
		m, _, err := wire.ReadMessageV(c.nc, c.ver)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if m.T == wire.TResp {
			return m.Resp
		}
	}
}

func startDaemon(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{PoolSize: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return ln.Addr().String()
}

// startCoordinator fronts one daemon with cfg and waits until it has qualified,
// so attaches place instead of shedding.
func startCoordinator(t *testing.T, daemon string, cfg fleet.Config) string {
	t.Helper()
	cfg.Daemons = []string{daemon}
	cfg.HeartbeatEvery = 25 * time.Millisecond
	cfg.RequalifyBackoff = 15 * time.Millisecond
	co, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(ln)
	t.Cleanup(co.Shutdown)
	for deadline := time.Now().Add(10 * time.Second); co.Obs().Counter("zfleet.requalified").Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never qualified its daemon")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ln.Addr().String()
}
