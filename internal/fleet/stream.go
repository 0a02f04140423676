package fleet

import (
	"zoomie/internal/client"
	"zoomie/internal/front"
	"zoomie/internal/wire"
)

// Fleet streams: "counters" streams are served by the front end from the
// coordinator's own observability registry, so fleet-level counters
// (admissions, sheds, heartbeat misses, quarantines, failovers, failover
// latency) flow down the same credit-gated path a daemon's counters do.
// "ila" and "history" streams are forwarded: the coordinator opens a
// matching stream on the session's current home daemon and pumps frames
// through, re-stamped with the fleet stream id and session id. A
// forwarded stream dies with its daemon (failover does not re-splice a
// half-consumed capture window); the client reopens it and the fresh
// stream follows the session's new home.

// OpenStream opens the backend stream and returns the pump forwarding it.
func (c *fconn) OpenStream(st *front.Stream, req *wire.Request) (func(), *wire.Error) {
	if req.Name != wire.StreamILA && req.Name != wire.StreamHistory {
		return nil, wire.Errf(wire.CodeBadRequest,
			"unknown stream kind %q (want %q, %q or %q)",
			req.Name, wire.StreamCounters, wire.StreamILA, wire.StreamHistory)
	}
	fs := c.co.session(req.Session)
	if fs == nil {
		return nil, wire.Errf(wire.CodeNoSession, "no session %d", req.Session)
	}
	_, cli, rsid, _ := fs.homeLink()
	if cli == nil {
		return nil, wire.Errf(wire.CodeBoardFailed,
			"session %d is failing over; retry the stream open", fs.id)
	}
	back, err := cli.OpenStream(req.Name, rsid, req.N, int(req.Value))
	if err != nil {
		if werr, ok := err.(*wire.Error); ok {
			return nil, werr
		}
		return nil, wire.Errf(wire.CodeOp, "stream open on %s: %v", fs.home().addr, err)
	}
	st.AtStop(func() { go back.Close() }) // a round trip; never on the read loop
	return func() { pump(st, back, fs.id) }, nil
}

// pump forwards backend stream frames, re-stamped with the fleet's ids.
// It ends when the backend stream dies (daemon failure, failover): the
// client sees the stream go quiet and reopens.
func pump(st *front.Stream, back *client.Stream, sid uint64) {
	for {
		select {
		case <-st.Done():
			return
		default:
		}
		ev, ok := back.Recv()
		if !ok {
			return
		}
		ev.Stream = st.ID()
		ev.Session = sid
		st.Offer(&ev)
	}
}
