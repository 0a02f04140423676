package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/farm"
	"zoomie/internal/vti"
	"zoomie/internal/wire"
)

// serveFarm starts srv on a loopback listener and returns its address;
// the server shuts down with the test.
func serveFarm(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return ln.Addr().String()
}

// dialFarm opens one client connection to srv.
func dialFarm(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestDisconnectCancelsHeldCompile is the disconnect half of end-to-end
// cancellation: a client that dies mid-place releases its farm
// references, and a job with no other holder stops at the next phase
// gate. The farm's phase hook holds the compile at place entry so the
// disconnect deterministically lands while the job is running.
func TestDisconnectCancelsHeldCompile(t *testing.T) {
	srv := New(Config{})
	gate := make(chan struct{})
	placed := make(chan struct{})
	var once sync.Once
	srv.farm = farm.New(farm.Config{PhaseHook: func(_ uint64, phase string) {
		if phase == vti.PhasePlace {
			once.Do(func() { close(placed) })
			<-gate
		}
	}})

	c := dialFarm(t, serveFarm(t, srv))

	resp, err := c.Call(&wire.Request{Op: wire.OpCompileSubmit, Design: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	job, ok := srv.farm.Job(resp.Value)
	if !ok {
		t.Fatalf("no job %d", resp.Value)
	}
	<-placed

	// The connection dies mid-place; the server's side of it releases its
	// job refs. Open the gate only once that release has landed.
	c.Close()
	for deadline := time.Now().Add(10 * time.Second); job.Status().Refs > 0; {
		if time.Now().After(deadline) {
			t.Fatal("disconnect did not release the job reference")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("job err = %v, want context.Canceled", err)
	}
	if st := job.Status().State; st != farm.StateCancelled {
		t.Errorf("state = %s, want cancelled", st)
	}
}

// TestCancelOpRequiresReference: a connection that attached via cache
// hit holds no reference and cannot cancel someone else's running job.
func TestCancelOpRequiresReference(t *testing.T) {
	srv := New(Config{})
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	srv.farm = farm.New(farm.Config{PhaseHook: func(_ uint64, phase string) {
		if phase == vti.PhaseSynth {
			once.Do(func() { close(started) })
			<-gate
		}
	}})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()

	addr := serveFarm(t, srv)
	holder := dialFarm(t, addr)
	bystander := dialFarm(t, addr)

	resp, err := holder.Call(&wire.Request{Op: wire.OpCompileSubmit, Design: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	_, deny := bystander.Call(&wire.Request{Op: wire.OpCompileCancel, Value: resp.Value})
	if !wire.IsCode(deny, wire.CodeForbidden) {
		t.Fatalf("bystander cancel = %+v, want %s", deny, wire.CodeForbidden)
	}

	_, allow := holder.Call(&wire.Request{Op: wire.OpCompileCancel, Value: resp.Value})
	if allow != nil {
		t.Fatalf("holder cancel: %v", allow)
	}
	openGate() // release the held phase; the next gate observes the cancel
	job, _ := srv.farm.Job(resp.Value)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("job err = %v, want context.Canceled", err)
	}
}
