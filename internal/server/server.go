// Package server is zoomied: the remote multi-session FPGA debug daemon.
// It is to Zoomie what gdbserver/OpenOCD are to software debuggers — the
// board-side service many clients attach to over the network. Each
// attached design is a *zoomie.Session owned by one actor goroutine
// (serialized commands, no locks in dbg), boards come from a fixed-
// capacity pool, idle sessions auto-detach so abandoned clients cannot
// hold boards forever, and breakpoint hits are pushed to subscribers as
// asynchronous events over the internal/wire protocol.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zoomie"
	"zoomie/internal/farm"
	"zoomie/internal/faults"
	"zoomie/internal/front"
	"zoomie/internal/history"
	"zoomie/internal/obs"
	"zoomie/internal/wire"
)

// hotCounters are the obs counters the command path bumps inline. Names
// carry a "zoomied." prefix so user-registered taps sort apart.
type hotCounters struct {
	commands *obs.Counter // commands executed by session actors
	peeks    *obs.Counter // register/memory/output reads (batch items count individually)
	pokes    *obs.Counter // register/memory/input writes (batch items count individually)
	cycles   *obs.Counter // clock cycles advanced by run/step/until
}

// Config tunes the server.
type Config struct {
	// PoolSize is the number of modeled boards (default 4).
	PoolSize int
	// IdleTimeout auto-detaches a session with no commands for this long,
	// reclaiming its board (default 5 minutes).
	IdleTimeout time.Duration
	// Allow restricts attachable designs to this list; empty serves the
	// whole catalog.
	Allow []string
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// Chaos, when set and enabled, interposes a seeded fault injector on
	// every leased board. Each session derives its own seed from the
	// profile's, so concurrent sessions see independent but reproducible
	// fault patterns.
	Chaos *faults.Profile
	// ProbeInterval, when positive, health-probes every live session's
	// board this often; boards that fail are quarantined and their
	// sessions migrated (default: off; zoomied -chaos enables it).
	ProbeInterval time.Duration
	// QuarantineCooldown is how long an ejected board stays out of the
	// pool before requalifying (default 1 minute).
	QuarantineCooldown time.Duration
	// ProtocolCeiling, when positive, caps the protocol version this
	// server negotiates — the compatibility hook for emulating an older
	// zoomied in mixed-fleet tests (a ceiling of 2 answers exactly as a
	// pre-binary-codec server would).
	ProtocolCeiling int
	// CompileCacheCap bounds the compile farm's shared checkpoint store
	// (entries; 0 = unbounded).
	CompileCacheCap int
	// CompileSpeculate pre-warms the first debug edit of every freshly
	// compiled design on the farm's own time.
	CompileSpeculate bool
}

// Server is a running zoomied instance.
type Server struct {
	cfg   Config
	pool  *Pool
	stats stats

	// reg is the server-wide observability registry behind "counters"
	// streams; ctr caches the hot-path counters so the per-op cost is one
	// atomic add, never a map lookup.
	reg *obs.Registry
	ctr hotCounters

	// farm is the process-wide compile service: one content-addressed
	// checkpoint store shared by every connection, so clients compiling
	// the same design serve each other's cache.
	farm *farm.Farm

	// front accepts and serves the client connections.
	front *front.Front

	mu       sync.Mutex
	sessions map[uint64]*session
	nextSID  uint64
	closed   bool

	seedSalt int64 // atomic: distinct chaos seeds per leased board

	probeQuit chan struct{}
	probeOnce sync.Once

	wg sync.WaitGroup // session actors + prober
}

// New creates a server; call Serve to accept connections.
func New(cfg Config) *Server {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Chaos != nil && !cfg.Chaos.Enabled() {
		cfg.Chaos = nil
	}
	s := &Server{
		cfg:  cfg,
		pool: NewPool(cfg.PoolSize),
		reg:  obs.NewRegistry(),
		farm: farm.New(farm.Config{
			StoreCap:  cfg.CompileCacheCap,
			Speculate: cfg.CompileSpeculate,
			Logf:      cfg.Logf,
		}),
		sessions:  make(map[uint64]*session),
		probeQuit: make(chan struct{}),
	}
	s.front = front.New(front.Config{
		Name:     "zoomied",
		Ceiling:  cfg.ProtocolCeiling,
		Logf:     cfg.Logf,
		Registry: s.reg,
		Connect:  func(fc *front.Conn) front.Handler { return &conn{Conn: fc, srv: s} },
	})
	s.ctr = hotCounters{
		commands: s.reg.Counter("zoomied.commands"),
		peeks:    s.reg.Counter("zoomied.peeks"),
		pokes:    s.reg.Counter("zoomied.pokes"),
		cycles:   s.reg.Counter("zoomied.cycles"),
	}
	if cfg.QuarantineCooldown > 0 {
		s.pool.SetCooldown(cfg.QuarantineCooldown)
	}
	if cfg.ProbeInterval > 0 {
		s.wg.Add(1)
		go s.probeLoop()
	}
	return s
}

// probeLoop is the health prober: every interval it enqueues a probe task
// on each live session's actor. The actor owns the board, so the probe —
// and any quarantine/migration it triggers — runs serialized with the
// session's own commands; the prober never touches a cable itself.
func (s *Server) probeLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.probeQuit:
			return
		case <-t.C:
			s.mu.Lock()
			sessions := make([]*session, 0, len(s.sessions))
			for _, sess := range s.sessions {
				sessions = append(sessions, sess)
			}
			s.mu.Unlock()
			for _, sess := range sessions {
				// Best effort: a busy queue skips this round's probe.
				sess.enqueue(context.Background(),
					&wire.Request{Op: opProbe}, func(*wire.Response) {})
			}
		}
	}
}

// InjectorFor returns the fault injector currently driving a session's
// board, or nil. Test and operational hook: wedging it exercises the
// probe → quarantine → migration path deterministically.
func (s *Server) InjectorFor(sid uint64) *faults.Injector {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.sessions[sid]; sess != nil {
		return sess.injector.Load()
	}
	return nil
}

// Pool exposes the board pool (read-only use: capacity/quarantine
// accounting in tests and the stats dump).
func (s *Server) Pool() *Pool { return s.pool }

// Obs exposes the server-wide counter registry. Embedding tools (zcheck,
// benchmarks) register their own taps here; whatever accumulates flows
// out through any open "counters" stream.
func (s *Server) Obs() *obs.Registry { return s.reg }

// newSessionFor builds one catalog design on a pooled board, wiring in a
// freshly seeded fault injector when chaos is configured. Used both by
// attach and by migration.
func (s *Server) newSessionFor(design string) (*zoomie.Session, *zoomie.ILAMeta, *faults.Injector, *Lease, error) {
	var lease *Lease
	var inj *faults.Injector
	zs, ilaMeta, err := NewCatalogSessionILA(design, func(cfg *zoomie.DebugConfig) {
		cfg.LeaseBoard = func(dev *zoomie.Device) (*zoomie.Board, error) {
			l, lerr := s.pool.Lease(dev)
			if lerr != nil {
				return nil, lerr
			}
			lease = l
			return l.Board, nil
		}
		if s.cfg.Chaos != nil {
			p := *s.cfg.Chaos
			p.Seed += atomic.AddInt64(&s.seedSalt, 1) * 7919 // distinct, reproducible per board
			inj = faults.New(p)
			cfg.Faults = inj
		}
	})
	if err != nil {
		if lease != nil {
			lease.Release()
		}
		return nil, nil, nil, nil, err
	}
	zs.AtClose(func() error { lease.Release(); return nil })
	return zs, ilaMeta, inj, lease, nil
}

// Serve accepts connections until Shutdown (returns nil) or a listener
// error.
func (s *Server) Serve(ln net.Listener) error { return s.front.Serve(ln) }

// Shutdown stops the server gracefully: no new connections or attaches,
// every session actor pauses its design and releases its board, and all
// connections close. Blocks until teardown completes. Idempotent.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	s.front.Close()
	s.probeOnce.Do(func() { close(s.probeQuit) })
	s.front.Broadcast(&wire.Event{Kind: wire.EvtShutdown, Detail: "server shutting down"})
	for _, sess := range sessions {
		sess.signalQuit()
	}
	s.front.Hangup()
	s.wg.Wait()
	s.cfg.Logf("zoomied: shut down (%d sessions closed)", len(sessions))
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// session looks up a live session by id.
func (s *Server) session(id uint64) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// dropSession unregisters a torn-down session.
func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	atomic.AddInt64(&s.stats.sessionsActive, -1)
	s.cfg.Logf("zoomied: session %d (%s) closed", sess.id, sess.design)
}

func (s *Server) allowed(design string) bool {
	if len(s.cfg.Allow) == 0 {
		return true
	}
	for _, a := range s.cfg.Allow {
		if a == design {
			return true
		}
	}
	return false
}

// attach builds, compiles and starts a catalog design on a pooled board,
// then spawns its actor. OpStateImport is attach-with-state: the blob in
// req.Signals is decoded first, its history engine transplanted and its
// snapshot restored (full scope, so breakpoints and pause state land
// armed) before the session registers. Runs on the calling connection's
// read loop: a long compile stalls only that client.
func (s *Server) attach(c *conn, req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	if s.isClosed() {
		resp.Err = wire.Errf(wire.CodeShutdown, "server shutting down")
		return resp
	}
	name := req.Design
	if _, ok := Catalog()[name]; !ok {
		resp.Err = wire.Errf(wire.CodeUnknownDesign, "unknown design %q (have: %v)", name, CatalogNames())
		return resp
	}
	if !s.allowed(name) {
		resp.Err = wire.Errf(wire.CodeForbidden, "design %q not served (allowlist: %v)", name, s.cfg.Allow)
		return resp
	}
	var blob *exportBlob
	var hist *history.Engine
	if req.Op == wire.OpStateImport {
		var err error
		if blob, err = decodeExport(req.Signals); err == nil && len(blob.History) > 0 {
			hist, err = history.Decode(blob.History)
		}
		if err != nil {
			resp.Err = wire.Errf(wire.CodeBadRequest, "import: %v", err)
			return resp
		}
	}
	zs, ilaMeta, inj, lease, err := s.newSessionFor(name)
	if err != nil {
		code := wire.CodeOp
		if errors.Is(err, ErrPoolExhausted) {
			code = wire.CodePoolExhausted
		}
		resp.Err = wire.Errf(code, "%s", err)
		return resp
	}
	verb := "attached"
	if blob != nil {
		// Adopt before restore, so the restore lands in history as host
		// writes — identical to the in-daemon migration ordering. A layout
		// mismatch forfeits history but not the import.
		if hist != nil {
			if aerr := zs.AdoptHistory(hist); aerr != nil {
				s.cfg.Logf("zoomied: import: history not transplanted: %v", aerr)
			}
		}
		if rerr := zs.Restore(blob.Snapshot); rerr != nil {
			zs.Close()
			s.retire(zs, inj)
			resp.Err = wire.Errf(wire.CodeOp, "import: snapshot restore: %v", rerr)
			return resp
		}
		verb = "imported"
		resp.Cycles = blob.Snapshot.Cycle
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		zs.Close()
		resp.Err = wire.Errf(wire.CodeShutdown, "server shutting down")
		return resp
	}
	s.nextSID++
	sess := newSession(s.nextSID, name, zs, s)
	sess.lease = lease
	sess.ilaMeta = ilaMeta
	sess.injector.Store(inj)
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	atomic.AddInt64(&s.stats.sessionsActive, 1)
	atomic.AddInt64(&s.stats.sessionsTotal, 1)
	s.wg.Add(1)
	go sess.loop()
	c.Subscribe(sess.id)
	s.cfg.Logf("zoomied: session %d %s %s on board lease %d (%s)",
		sess.id, verb, name, lease.ID, lease.Device)

	resp.Session = sess.id
	resp.Design = name
	resp.Device = lease.Device
	resp.Report = fmt.Sprintf("%s", zs.Result.Report)
	for _, w := range zs.Meta.Watches {
		resp.Watches = append(resp.Watches, w.Signal)
	}
	return resp
}

// conn is the daemon's side of one client connection: the front end's
// connection plus the compile-farm references it holds (job id -> refs),
// released when the connection dies.
type conn struct {
	*front.Conn
	srv *Server

	jobMu sync.Mutex
	jobs  map[uint64]int
}

// Handle serves the daemon's connection-level ops inline on the read
// loop and enqueues session ops on the owning actor, which answers
// asynchronously.
func (c *conn) Handle(req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpAttach, wire.OpStateImport:
		atomic.AddInt64(&c.srv.stats.commandsServed, 1)
		return c.srv.attach(c, req)
	case wire.OpStatus:
		atomic.AddInt64(&c.srv.stats.commandsServed, 1)
		return &wire.Response{ID: req.ID, Stats: c.srv.Stats()}
	case wire.OpCompileSubmit, wire.OpCompileStatus, wire.OpCompileCancel:
		atomic.AddInt64(&c.srv.stats.commandsServed, 1)
		return c.srv.handleCompile(c, req)
	}
	sess := c.srv.session(req.Session)
	if sess == nil {
		return &wire.Response{ID: req.ID,
			Err: wire.Errf(wire.CodeNoSession, "no session %d", req.Session)}
	}
	if werr := sess.enqueue(c.Context(), req, c.Reply); werr != nil {
		return &wire.Response{ID: req.ID, Err: werr}
	}
	return nil
}

// Closed releases the connection's compile-farm references.
func (c *conn) Closed() { c.releaseJobs() }
