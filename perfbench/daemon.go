package main

import (
	"fmt"
	"net"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/fleet"
	"zoomie/internal/server"
)

// stack is one fresh in-process zoomied daemon, optionally fronted by a
// zfleet coordinator, and the single client talking to whichever is in
// front — all over loopback TCP speaking protocol v3.
type stack struct {
	srv   *server.Server
	co    *fleet.Coordinator
	cli   *client.Client
	serve []chan error
	// started is when the daemon was created.
	started time.Time
}

// startStack starts a daemon (and a coordinator when viaFleet) and dials
// the front end. It returns once the stack is serving: the coordinator
// starts every daemon quarantined and admits sessions only after a
// heartbeat, on a 250 ms requalification timer, has qualified it, so
// that wait is spent here, before any set-up clock starts.
func startStack(viaFleet bool) (*stack, error) {
	st := &stack{srv: server.New(server.Config{PoolSize: 1}), started: time.Now()}
	addr, err := st.listen(st.srv.Serve)
	if err != nil {
		st.close()
		return nil, err
	}
	if viaFleet {
		co, err := fleet.New(fleet.Config{Daemons: []string{addr}})
		if err != nil {
			st.close()
			return nil, err
		}
		st.co = co
		if addr, err = st.listen(co.Serve); err != nil {
			st.close()
			return nil, err
		}
		if err := st.awaitQualified(); err != nil {
			st.close()
			return nil, err
		}
	}
	cli, err := client.Dial(addr)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if cli.Version() < 3 {
		cli.Close()
		st.close()
		return nil, fmt.Errorf("negotiated protocol v%d, want v3", cli.Version())
	}
	st.cli = cli
	return st, nil
}

func (st *stack) listen(serve func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan error, 1)
	go func() { done <- serve(ln) }()
	st.serve = append(st.serve, done)
	return ln.Addr().String(), nil
}

// close stops the client, the coordinator and the daemon, and waits for
// their accept loops to return.
func (st *stack) close() {
	if st.cli != nil {
		st.cli.Close()
	}
	if st.co != nil {
		st.co.Shutdown()
	}
	st.srv.Shutdown()
	for _, done := range st.serve {
		<-done
	}
}

// awaitQualified waits until the coordinator's daemon is out of
// quarantine.
func (st *stack) awaitQualified() error {
	limit := time.Now().Add(10 * time.Second)
	for st.co.Stats().PoolQuarantined > 0 {
		if time.Now().After(limit) {
			return fmt.Errorf("coordinator did not qualify its daemon within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// attachPaused attaches a session to a design and pauses it.
func (st *stack) attachPaused(design string) (*client.Session, error) {
	sess, err := st.cli.Attach(design)
	if err != nil {
		return nil, fmt.Errorf("attach %s: %w", design, err)
	}
	if err := sess.Pause(); err != nil {
		return nil, fmt.Errorf("pause %s: %w", design, err)
	}
	return sess, nil
}
