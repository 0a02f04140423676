package front

import (
	"sync"
	"time"

	"zoomie/internal/obs"
	"zoomie/internal/wire"
)

// Streams (v3) are push channels of EvtStream frames multiplexed over the
// client's ordinary connection. Flow control is credit-based,
// drop-oldest: the client grants N frame credits at open and tops them up
// as it consumes; a frame moves to the connection's outbox only against a
// credit, and a stream whose client stalls sheds its oldest pending
// frames (counted in Dropped) instead of stalling its producer. The front
// end serves "counters" streams itself from Config.Registry; every other
// kind gets its producer from the Handler.

// defaultCredits is the grant when OpStreamOpen carries no N;
// maxPending bounds the per-stream backlog (drop-oldest beyond it);
// defaultInterval is the flush/poll cadence when the open names none.
const (
	defaultCredits  = 32
	maxPending      = 64
	defaultInterval = 50 * time.Millisecond
)

// Stream is one open push channel on one connection.
type Stream struct {
	id       uint64
	c        *Conn
	interval time.Duration
	quit     chan struct{}
	once     sync.Once
	atStop   func()

	mu      sync.Mutex
	credits int
	pending []*wire.Event
	seq     uint64
	dropped uint64
}

// ID is the stream's per-connection id.
func (st *Stream) ID() uint64 { return st.id }

// Done is closed when the stream is closed or its connection dies.
func (st *Stream) Done() <-chan struct{} { return st.quit }

// AtStop registers fn to run once when the stream stops. Call it from
// Handler.OpenStream.
func (st *Stream) AtStop(fn func()) { st.atStop = fn }

func (st *Stream) stop() {
	st.once.Do(func() {
		close(st.quit)
		if st.atStop != nil {
			st.atStop()
		}
	})
}

// Every calls tick once per stream interval until the stream stops or
// tick returns false.
func (st *Stream) Every(tick func() bool) {
	t := time.NewTicker(st.interval)
	defer t.Stop()
	for {
		select {
		case <-st.quit:
			return
		case <-t.C:
			if !tick() {
				return
			}
		}
	}
}

// handleStream serves the three stream ops inline on the read loop.
func (c *Conn) handleStream(req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	if req.Op == wire.OpStreamOpen {
		st, werr := c.openStream(req)
		if werr != nil {
			resp.Err = werr
			return resp
		}
		resp.Stream = st.id
		resp.Session = req.Session
		return resp
	}
	c.streamMu.Lock()
	st := c.streams[req.Stream]
	if req.Op == wire.OpStreamClose {
		delete(c.streams, req.Stream)
	}
	c.streamMu.Unlock()
	if st == nil {
		resp.Err = wire.Errf(wire.CodeNoStream, "no stream %d on this connection", req.Stream)
		return resp
	}
	if req.Op == wire.OpStreamClose {
		st.stop()
	} else {
		st.addCredits(req.N)
	}
	resp.Stream = st.id
	return resp
}

// openStream validates the request and starts the stream's producer.
func (c *Conn) openStream(req *wire.Request) (*Stream, *wire.Error) {
	st := &Stream{
		c:        c,
		interval: time.Duration(req.Value) * time.Millisecond,
		quit:     make(chan struct{}),
		credits:  req.N,
	}
	if st.interval <= 0 {
		st.interval = defaultInterval
	}
	if st.credits <= 0 {
		st.credits = defaultCredits
	}
	var run func()
	if req.Name == wire.StreamCounters {
		run = func() { st.counters(c.f.cfg.Registry) }
	} else {
		var werr *wire.Error
		if run, werr = c.h.OpenStream(st, req); werr != nil {
			return nil, werr
		}
	}

	c.streamMu.Lock()
	c.nextStream++
	st.id = c.nextStream
	if c.streams != nil {
		c.streams[st.id] = st
	} else {
		st.stop() // the connection died while this open was served
	}
	c.streamMu.Unlock()

	c.f.Stats.StreamsOpened.Add(1)
	c.f.wg.Add(1)
	go func() {
		defer c.f.wg.Done()
		run()
	}()
	return st, nil
}

// closeStreams stops every open stream when the connection dies.
func (c *Conn) closeStreams() {
	c.streamMu.Lock()
	streams := c.streams
	c.streams = nil
	c.streamMu.Unlock()
	for _, st := range streams {
		st.stop()
	}
}

// counters produces per-interval deltas of the registry: the hot path
// bumps atomics, the stream carries named sums, never the events.
func (st *Stream) counters(reg *obs.Registry) {
	reader := reg.NewReader()
	var names []string
	var deltas []uint64
	st.Every(func() bool {
		var total uint64
		names, deltas, total = reader.Deltas(names[:0], deltas[:0])
		if total == 0 {
			st.drain() // idle interval: no frame, but retry the backlog
			return true
		}
		// The frame owns copies; the reader reuses its slices.
		st.Offer(&wire.Event{
			Kind:   wire.EvtStream,
			Stream: st.id,
			Count:  total,
			Names:  append([]string(nil), names...),
			Deltas: append([]uint64(nil), deltas...),
		})
		return true
	})
}

// Offer queues one frame, stamping its sequence number and shedding the
// oldest pending frame when the backlog is full, then drains whatever the
// current credits allow.
func (st *Stream) Offer(ev *wire.Event) {
	st.mu.Lock()
	st.seq++
	ev.Seq = st.seq
	if len(st.pending) >= maxPending {
		copy(st.pending, st.pending[1:])
		st.pending = st.pending[:len(st.pending)-1]
		st.dropped++
		st.c.f.Stats.StreamDropped.Add(1)
	}
	st.pending = append(st.pending, ev)
	st.drainLocked()
	st.mu.Unlock()
}

// addCredits tops up the grant and pushes out any backlog it unlocks.
func (st *Stream) addCredits(n int) {
	if n <= 0 {
		n = 1
	}
	st.mu.Lock()
	st.credits += n
	st.drainLocked()
	st.mu.Unlock()
}

// drain retries the backlog without producing a new frame.
func (st *Stream) drain() {
	st.mu.Lock()
	st.drainLocked()
	st.mu.Unlock()
}

// drainLocked moves pending frames into the connection outbox, one credit
// each, stopping when credits run out or the outbox is full (the frame
// stays pending; the next tick or credit retries it).
func (st *Stream) drainLocked() {
	for st.credits > 0 && len(st.pending) > 0 {
		ev := st.pending[0]
		ev.Dropped = st.dropped // the latest total travels with every frame
		select {
		case st.c.out <- wire.Evt(ev):
			st.pending[0] = nil
			st.pending = st.pending[1:]
			st.credits--
			st.c.f.Stats.StreamFrames.Add(1)
			st.c.f.Stats.StreamEvents.Add(int64(ev.Count))
		default:
			return
		}
	}
	if len(st.pending) == 0 {
		st.pending = nil // let the backing array go once drained
	}
}
