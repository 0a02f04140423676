// Package front is the connection front end shared by the zoomied daemon
// (internal/server) and the zfleet coordinator (internal/fleet): the
// accept loop, the hello handshake and codec upgrade, the version gates,
// the write-coalescing outbox, event subscriptions and credit-windowed
// streams. A client cannot tell which of the two answered, because both
// answer through this package. Each plugs in a Handler per connection and
// keeps only what differs: how sessions are created, where commands run,
// and which stream kinds it produces.
package front

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"zoomie/internal/obs"
	"zoomie/internal/wire"
)

// Config wires a front end to its backend.
type Config struct {
	// Name prefixes log lines and errors ("zoomied", "zfleet").
	Name string
	// Ceiling, when positive, caps the negotiated protocol version.
	Ceiling int
	// Logf receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// Registry is the source of "counters" streams.
	Registry *obs.Registry
	// Connect returns the handler serving one accepted connection.
	Connect func(c *Conn) Handler
}

// Handler serves one connection's ops beyond the front end's own (hello,
// subscribe and the stream ops).
type Handler interface {
	// Handle serves one request that passed the version gate. It returns
	// the reply, or nil when the reply follows later through Conn.Reply.
	Handle(req *wire.Request) *wire.Response
	// OpenStream validates a stream open of any kind but "counters" and
	// returns its producer, which runs on its own goroutine once the
	// stream has an id.
	OpenStream(st *Stream, req *wire.Request) (func(), *wire.Error)
	// Closed runs once when the connection dies.
	Closed()
}

// Stats counts front-end traffic.
type Stats struct {
	BytesIn, BytesOut     atomic.Int64
	Reconnects            atomic.Int64 // hellos presenting an existing client id
	Events, EventsDropped atomic.Int64 // broadcasts, and deliveries shed on full outboxes
	StreamOps             atomic.Int64 // stream open/credit/close requests served
	StreamsOpened         atomic.Int64
	StreamFrames          atomic.Int64 // frames delivered
	StreamEvents          atomic.Int64 // raw events aggregated into those frames
	StreamDropped         atomic.Int64 // frames shed under backpressure
}

// Front accepts and serves client connections.
type Front struct {
	cfg   Config
	Stats Stats

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*Conn]struct{}
	closed bool

	nextClient atomic.Uint64
	wg         sync.WaitGroup // connection loops and stream producers
}

// New creates a front end; call Serve to accept connections.
func New(cfg Config) *Front {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Front{cfg: cfg, conns: make(map[*Conn]struct{})}
}

// Serve accepts connections until Close (returns nil) or a listener
// error.
func (f *Front) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		ln.Close()
		return fmt.Errorf("%s: already shut down", f.cfg.Name)
	}
	f.ln = ln
	f.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			f.mu.Lock()
			closed := f.closed
			f.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := newConn(f, nc)
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			nc.Close()
			return nil
		}
		f.conns[c] = struct{}{}
		f.wg.Add(2)
		f.mu.Unlock()
		go c.readLoop()
		go c.writeLoop()
	}
}

// Close stops accepting connections.
func (f *Front) Close() {
	f.mu.Lock()
	f.closed = true
	ln := f.ln
	f.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// Hangup closes every connection and waits for the connection loops and
// stream producers to finish.
func (f *Front) Hangup() {
	for _, c := range f.snapshot() {
		c.markDead()
	}
	f.wg.Wait()
}

func (f *Front) snapshot() []*Conn {
	f.mu.Lock()
	defer f.mu.Unlock()
	conns := make([]*Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	return conns
}

// Broadcast pushes an event to every subscribed connection. Delivery is
// best-effort: a connection with a full outbox drops the event (counted)
// rather than stalling the emitter.
func (f *Front) Broadcast(e *wire.Event) {
	f.Stats.Events.Add(1)
	m := wire.Evt(e)
	for _, c := range f.snapshot() {
		if !c.wants(e.Session) {
			continue
		}
		select {
		case c.out <- m:
		default:
			f.Stats.EventsDropped.Add(1)
		}
	}
}

// Conn is one client connection: a read loop dispatching requests and a
// write loop owning the socket's send side, joined by the out channel.
type Conn struct {
	f   *Front
	nc  net.Conn
	h   Handler
	out chan *wire.Message
	wmu sync.Mutex // serializes socket writes (write loop vs handshake)

	// enc/dec speak the negotiated codec: JSON until the hello exchange
	// completes, binary afterwards on v3 connections. enc is guarded by
	// wmu; dec is owned by the read loop.
	enc *wire.Encoder
	dec *wire.Decoder

	// version is the negotiated protocol version, set during the
	// handshake before any request is dispatched.
	version int

	// ctx is cancelled when the connection dies, so work issued on its
	// behalf stops promptly instead of finishing for nobody.
	ctx    context.Context
	cancel context.CancelFunc
	dead   chan struct{}
	once   sync.Once

	subMu  sync.Mutex
	subs   map[uint64]bool
	subAll bool

	// streams are the open push channels, nil once the connection died;
	// ids are per-connection, assigned at open.
	streamMu   sync.Mutex
	streams    map[uint64]*Stream
	nextStream uint64
}

func newConn(f *Front, nc net.Conn) *Conn {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Conn{
		f:  f,
		nc: nc,
		// The outbox absorbs a pipelined burst of replies plus event and
		// stream frames, so actors rarely wait on a slow socket; events
		// and stream frames are shed, never queued, when it is full.
		out: make(chan *wire.Message, 256),
		// The hello exchange is always JSON; handshake upgrades both
		// directions to the negotiated codec.
		enc:     wire.NewEncoder(nc, 1),
		dec:     wire.NewDecoder(nc, 1),
		ctx:     ctx,
		cancel:  cancel,
		dead:    make(chan struct{}),
		subs:    make(map[uint64]bool),
		streams: make(map[uint64]*Stream),
	}
	c.h = f.cfg.Connect(c)
	return c
}

// Context is cancelled when the connection dies.
func (c *Conn) Context() context.Context { return c.ctx }

// Reply queues a response, as the connection's protocol version may see
// it (wire.ForVersion). A reply to a dead connection is dropped; the
// sessions it touched stay alive until their own timeouts reclaim them.
func (c *Conn) Reply(resp *wire.Response) {
	c.send(wire.Resp(wire.ForVersion(resp, c.version)))
}

// Subscribe turns on event delivery for a session (0 = every session).
func (c *Conn) Subscribe(sid uint64) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if sid == 0 {
		c.subAll = true
		return
	}
	c.subs[sid] = true
}

func (c *Conn) wants(sid uint64) bool {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return c.subAll || sid == 0 || c.subs[sid]
}

func (c *Conn) send(m *wire.Message) {
	select {
	case c.out <- m:
	case <-c.dead:
	}
}

// markDead closes the connection exactly once: cancels its context,
// releases both loops, stops its streams and tells the handler.
func (c *Conn) markDead() {
	c.once.Do(func() {
		c.cancel()
		close(c.dead)
		c.nc.Close()
		c.closeStreams()
		c.h.Closed()
	})
}

// writeLoop owns the socket's send side. After taking one message it
// drains whatever else is already queued (bounded by the encoder buffer)
// and flushes the whole burst with a single write, so a batch of
// responses or an event storm costs one syscall instead of one per frame.
func (c *Conn) writeLoop() {
	defer c.f.wg.Done()
	for {
		select {
		case <-c.dead:
			return
		case m := <-c.out:
			if err := c.writeBurst(m); err != nil {
				c.markDead()
				return
			}
		}
	}
}

func (c *Conn) writeBurst(m *wire.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := c.enc.Queue(m)
	for err == nil {
		select {
		case next := <-c.out:
			err = c.enc.Queue(next)
		default:
			n, ferr := c.enc.Flush()
			c.f.Stats.BytesOut.Add(int64(n))
			return ferr
		}
	}
	return err
}

// writeNow writes one frame to the socket under the write mutex.
func (c *Conn) writeNow(m *wire.Message) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.enc.Queue(m) == nil {
		n, _ := c.enc.Flush()
		c.f.Stats.BytesOut.Add(int64(n))
	}
}

func (c *Conn) readLoop() {
	defer c.f.wg.Done()
	defer func() {
		c.markDead()
		c.f.mu.Lock()
		delete(c.f.conns, c)
		c.f.mu.Unlock()
	}()
	if !c.handshake() {
		return
	}
	for {
		m, n, err := c.dec.Next()
		c.f.Stats.BytesIn.Add(int64(n))
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.f.cfg.Logf("%s: read error: %v", c.f.cfg.Name, err)
			}
			return
		}
		if m.T != wire.TReq {
			c.Reply(&wire.Response{
				Err: wire.Errf(wire.CodeBadRequest, "clients send requests, got %q", m.T)})
			continue
		}
		c.dispatch(m.Req)
	}
}

// handshake enforces the version exchange as the first frame. Replies are
// written synchronously so a rejected client reads the reason before the
// connection closes.
func (c *Conn) handshake() bool {
	m, n, err := wire.ReadMessage(c.nc)
	c.f.Stats.BytesIn.Add(int64(n))
	if err != nil {
		return false
	}
	if m.T != wire.TReq || m.Req.Op != wire.OpHello {
		c.writeNow(wire.Resp(&wire.Response{
			Err: wire.Errf(wire.CodeBadRequest, "first frame must be %q", wire.OpHello)}))
		return false
	}
	ver, werr := wire.Negotiate(m.Req.Version, c.f.cfg.Ceiling)
	if werr != nil {
		c.writeNow(wire.Resp(&wire.Response{ID: m.Req.ID, Err: werr}))
		return false
	}
	c.version = ver
	// A hello carrying a client id is a reconnect: the client keeps its
	// identity so replayed in-flight requests dedupe against the actors'
	// replay caches. A fresh client gets the next id.
	cid := m.Req.Client
	if cid != 0 {
		c.f.Stats.Reconnects.Add(1)
		c.f.cfg.Logf("%s: client %d reconnected", c.f.cfg.Name, cid)
	} else {
		cid = c.f.nextClient.Add(1)
	}
	c.writeNow(wire.Resp(&wire.Response{ID: m.Req.ID, Version: ver, Client: cid}))
	// The hello reply is the last frame in the hello codec: every frame
	// after it, both directions, uses the negotiated one.
	c.wmu.Lock()
	c.enc.SetVersion(ver)
	c.wmu.Unlock()
	c.dec.SetVersion(ver)
	return true
}

// dispatch gates one request on the negotiated version, serves the
// front end's own ops inline and hands everything else to the handler.
func (c *Conn) dispatch(req *wire.Request) {
	if !wire.Speaks(c.version, req.Op) {
		c.Reply(&wire.Response{ID: req.ID,
			Err: wire.Errf(wire.CodeUnknownOp, "unknown op %q", req.Op)})
		return
	}
	switch req.Op {
	case wire.OpHello:
		c.Reply(&wire.Response{ID: req.ID, Version: c.version})
	case wire.OpSubscribe:
		c.Subscribe(req.Session)
		c.Reply(&wire.Response{ID: req.ID, Session: req.Session})
	case wire.OpStreamOpen, wire.OpStreamCredit, wire.OpStreamClose:
		c.f.Stats.StreamOps.Add(1)
		c.Reply(c.handleStream(req))
	default:
		if resp := c.h.Handle(req); resp != nil {
			c.Reply(resp)
		}
	}
}
