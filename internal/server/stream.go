package server

import (
	"context"
	"sync/atomic"

	"zoomie/internal/farm"
	"zoomie/internal/front"
	"zoomie/internal/wire"
)

// Stream producers (v3). The front end owns the stream table, the credit
// window and "counters" streams; the daemon produces the kinds that need
// a session or the compile farm. "ila" streams carry completed ILA
// capture windows, uploaded in one batched readback and re-armed so
// windows arrive back-to-back; "history" streams carry new keyframes for
// timeline scrubbing; "compile" streams carry a farm job's phases.
//
// The producers are never the session actors: ILA and history streams
// enqueue a non-blocking housekeeping poll that the actor serializes with
// ordinary commands, so a slow or dead stream consumer can never
// back-pressure a paused-debug interaction.

// OpenStream validates a stream open and returns its producer.
func (c *conn) OpenStream(st *front.Stream, req *wire.Request) (func(), *wire.Error) {
	switch req.Name {
	case wire.StreamILA:
		sess := c.srv.session(req.Session)
		if sess == nil {
			return nil, wire.Errf(wire.CodeNoSession, "no session %d", req.Session)
		}
		sess.mu.Lock()
		meta := sess.ilaMeta
		sess.mu.Unlock()
		if meta == nil {
			return nil, wire.Errf(wire.CodeBadRequest,
				"design %q has no ILA (try the ila-counter design)", sess.design)
		}
		return func() { st.Every(func() bool { return pollILA(st, sess) }) }, nil
	case wire.StreamHistory:
		sess := c.srv.session(req.Session)
		if sess == nil {
			return nil, wire.Errf(wire.CodeNoSession, "no session %d", req.Session)
		}
		sess.mu.Lock()
		enabled := sess.zs.HistoryEnabled()
		sess.mu.Unlock()
		if !enabled {
			return nil, wire.Errf(wire.CodeBadRequest,
				"history recording is disabled for design %q", sess.design)
		}
		var gen atomic.Uint64
		return func() { st.Every(func() bool { return pollHistory(st, sess, &gen) }) }, nil
	case wire.StreamCompile:
		// Session carries the farm job id: compile jobs are a server-wide
		// resource, not a debug session. Subscribing at open means no
		// phase entry is missed before the producer starts.
		job, ok := c.srv.farm.Job(req.Session)
		if !ok {
			return nil, wire.Errf(wire.CodeOp, "no compile job %d", req.Session)
		}
		prog, unsub := job.Subscribe()
		return func() {
			defer unsub()
			streamCompile(st, prog)
		}, nil
	}
	return nil, wire.Errf(wire.CodeBadRequest,
		"unknown stream kind %q (want %q, %q, %q or %q)",
		req.Name, wire.StreamCounters, wire.StreamILA, wire.StreamHistory, wire.StreamCompile)
}

// streamCompile is event-driven rather than polled: the farm job
// publishes one Progress per phase entry plus its terminal state, and
// each becomes one frame (the phase in Names[0]). A stalled client sheds
// oldest phases, never the compile itself.
func streamCompile(st *front.Stream, prog <-chan farm.Progress) {
	for {
		select {
		case <-st.Done():
			return
		case p := <-prog:
			st.Offer(&wire.Event{
				Kind:    wire.EvtStream,
				Stream:  st.ID(),
				Session: p.Job,
				Count:   1,
				Names:   []string{p.Phase},
			})
		}
	}
}

// pollILA enqueues the non-blocking housekeeping poll on the session
// actor; the actor uploads and re-arms a completed window and the reply
// callback converts it into a stream frame. Returns false once the
// session is gone. A full actor queue just skips this round: streaming
// yields to the client's own commands, never the other way around.
func pollILA(st *front.Stream, sess *session) bool {
	werr := sess.enqueue(context.Background(),
		&wire.Request{Op: opIlaPoll}, func(resp *wire.Response) {
			if resp.Err != nil || resp.Trace == nil || len(resp.Trace.Rows) == 0 {
				return
			}
			st.Offer(&wire.Event{
				Kind:    wire.EvtStream,
				Stream:  st.ID(),
				Session: sess.id,
				Count:   uint64(len(resp.Trace.Rows)),
				Names:   resp.Trace.Signals,
				Rows:    resp.Trace.Rows,
			})
		})
	return werr == nil || werr.Code != wire.CodeNoSession
}

// pollHistory enqueues the history housekeeping poll: the actor collects
// keyframes recorded since the generation cursor gen and the reply
// becomes one scrubbing frame of [pos, cycle, bytes] rows. The cursor
// only advances in the reply, so a skipped round (full actor queue)
// re-asks for the same window next tick. When two polls are in flight
// the later one asked from a cursor the earlier reply already moved; its
// rows would repeat frames, so it is dropped and the next tick re-asks.
func pollHistory(st *front.Stream, sess *session, gen *atomic.Uint64) bool {
	asked := gen.Load()
	werr := sess.enqueue(context.Background(),
		&wire.Request{Op: opHistPoll, Value: asked}, func(resp *wire.Response) {
			if resp.Err != nil || !gen.CompareAndSwap(asked, max(asked, resp.Cycles)) {
				return
			}
			if resp.Trace == nil || len(resp.Trace.Rows) == 0 {
				return
			}
			st.Offer(&wire.Event{
				Kind:    wire.EvtStream,
				Stream:  st.ID(),
				Session: sess.id,
				Count:   uint64(len(resp.Trace.Rows)),
				Names:   resp.Trace.Signals,
				Rows:    resp.Trace.Rows,
			})
		})
	return werr == nil || werr.Code != wire.CodeNoSession
}
