package front

import "zoomie/internal/wire"

// replayDepth bounds the per-client replay cache. Clients replay only the
// requests that were in flight when their connection died, so a handful
// of slots suffices.
const replayDepth = 16

// Replay remembers each client's most recent sequenced responses, so a
// request replayed after a reconnect is answered from cache instead of
// executing twice: the idempotency half of auto-reconnect. Each session
// actor owns one and serializes access to it; the zero value is ready.
type Replay struct {
	rings map[uint64]*replayRing // by client id
}

type replayRing struct {
	seqs  [replayDepth]uint64
	resps [replayDepth]*wire.Response
	n     int
}

// Get answers a replayed request from the cache, re-addressed to its
// request id, or returns nil.
func (r *Replay) Get(req *wire.Request) *wire.Response {
	if req.Client == 0 || req.Seq == 0 {
		return nil
	}
	ring := r.rings[req.Client]
	if ring == nil {
		return nil
	}
	for i, seq := range ring.seqs {
		if seq == req.Seq && ring.resps[i] != nil {
			out := *ring.resps[i]
			out.ID = req.ID
			return &out
		}
	}
	return nil
}

// Put remembers a sequenced request's response. The cache keeps resp
// itself, so callers must not modify it afterwards.
func (r *Replay) Put(req *wire.Request, resp *wire.Response) {
	if req.Client == 0 || req.Seq == 0 {
		return
	}
	if r.rings == nil {
		r.rings = make(map[uint64]*replayRing)
	}
	ring := r.rings[req.Client]
	if ring == nil {
		ring = &replayRing{}
		r.rings[req.Client] = ring
	}
	ring.seqs[ring.n] = req.Seq
	ring.resps[ring.n] = resp
	ring.n = (ring.n + 1) % replayDepth
}
