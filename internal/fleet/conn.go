package fleet

import (
	"context"
	"sync"
	"time"

	"zoomie/internal/front"
	"zoomie/internal/wire"
)

// fconn is the coordinator's side of one client connection. The front
// end it shares with the daemon does the handshake, codec upgrade,
// version gates and stream plumbing, so every existing client (the REPL,
// internal/client, zbench) speaks to the fleet without knowing it.
type fconn struct {
	*front.Conn
	co *Coordinator
}

// Handle serves fleet-level ops inline on the read loop and enqueues
// session ops on the owning session actor.
func (c *fconn) Handle(req *wire.Request) *wire.Response {
	switch req.Op {
	case wire.OpAttach:
		return c.attach(req, nil)
	case wire.OpStateImport:
		return c.attach(req, req.Signals)
	case wire.OpStatus:
		return &wire.Response{ID: req.ID, Stats: c.co.Stats()}
	case wire.OpFleetStat:
		return &wire.Response{ID: req.ID, Lines: c.co.fleetStatLines(), Stats: c.co.Stats()}
	case wire.OpFleetDrain:
		return c.drain(req)
	}
	fs := c.co.session(req.Session)
	if fs == nil {
		return &wire.Response{ID: req.ID,
			Err: wire.Errf(wire.CodeNoSession, "no session %d", req.Session)}
	}
	if werr := fs.enqueue(c.Context(), req, c.Reply); werr != nil {
		return &wire.Response{ID: req.ID, Err: werr}
	}
	return nil
}

// Closed implements front.Handler; a fleet connection holds nothing
// beyond what the front end releases.
func (c *fconn) Closed() {}

// shed answers an attach with the typed overload refusal: CodeOverloaded
// plus a retry-after hint in milliseconds in Value. Fast refusal, never
// a hang — a client with auto-reconnect backs off and retries.
func (c *fconn) shed(req *wire.Request, retryAfterMS int, why string) *wire.Response {
	c.co.ctr.sheds.Inc()
	return &wire.Response{ID: req.ID,
		Value: uint64(retryAfterMS),
		Err:   wire.Errf(wire.CodeOverloaded, "fleet over capacity: %s (retry in %dms)", why, retryAfterMS)}
}

// attach admits, places and creates one fleet session. A non-nil blob
// makes it attach-with-state (the client-initiated import path); the
// blob doubles as the session's first checkpoint.
func (c *fconn) attach(req *wire.Request, blob []string) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	if c.co.isClosed() {
		resp.Err = wire.Errf(wire.CodeShutdown, "fleet coordinator shutting down")
		return resp
	}
	if wait := c.co.admit(); wait > 0 {
		return c.shed(req, wait, "admission rate limit")
	}
	// Existing sessions keep priority: placement only considers spare
	// per-daemon capacity, so a full fleet sheds new admissions while
	// in-flight sessions run undisturbed.
	var lastErr *wire.Error
	for attempt := 0; attempt < len(c.co.daemons); attempt++ {
		d := c.co.place(nil)
		if d == nil {
			break
		}
		cli, gen := d.client()
		if cli == nil {
			d.unreserve()
			continue
		}
		r2, err := cli.CallCtx(c.Context(), backendReq(req, req.Session))
		if err != nil {
			d.unreserve()
			if isConnFailure(err) {
				d.reportFailure(gen, err)
				continue // try the next-best daemon
			}
			if werr, ok := err.(*wire.Error); ok {
				lastErr = werr
				if werr.Code == wire.CodePoolExhausted {
					continue // daemon's own pool is smaller than our cap
				}
			}
			out := *r2
			out.ID = req.ID
			return &out
		}
		rsid := r2.Session

		// First checkpoint: the import blob when the client brought one,
		// otherwise an immediate export of the fresh session. Without a
		// checkpoint there is no failover, so a failed export retries
		// placement elsewhere.
		checkpoint := blob
		if checkpoint == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			exp, eerr := cli.CallCtx(ctx, &wire.Request{Op: wire.OpStateExport, Session: rsid})
			cancel()
			if eerr != nil {
				d.unreserve()
				if isConnFailure(eerr) {
					d.reportFailure(gen, eerr)
				}
				continue
			}
			if len(exp.Lines) == 0 {
				d.unreserve()
				continue
			}
			checkpoint = exp.Lines
			c.co.ctr.checkpoints.Inc()
		}

		c.co.mu.Lock()
		if c.co.closed {
			c.co.mu.Unlock()
			d.unreserve()
			resp.Err = wire.Errf(wire.CodeShutdown, "fleet coordinator shutting down")
			return resp
		}
		c.co.nextSID++
		fs := newFsession(c.co, c.co.nextSID, req.Design, d, rsid, gen, checkpoint)
		c.co.sessions[fs.id] = fs
		c.co.mu.Unlock()
		d.addSession(fs, rsid)
		c.co.wg.Add(1)
		go fs.loop()
		c.Subscribe(fs.id)

		c.co.ctr.admissions.Inc()
		c.co.cfg.Logf("zfleet: session %d placed on %s (daemon session %d)", fs.id, d.addr, rsid)
		out := *r2
		out.ID = req.ID
		out.Session = fs.id
		return &out
	}
	if lastErr != nil && lastErr.Code != wire.CodePoolExhausted {
		resp.Err = lastErr
		return resp
	}
	return c.shed(req, c.co.cfg.RetryAfterMS, "all daemons at capacity")
}

// drain serves OpFleetDrain: flip a daemon's draining flag and, when
// enabling, migrate its sessions to the rest of the fleet before
// answering — new placements avoid it from the moment the flag flips.
func (c *fconn) drain(req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	d := c.co.daemonByAddr(req.Name)
	if d == nil {
		resp.Err = wire.Errf(wire.CodeBadRequest, "no daemon %q in the fleet", req.Name)
		return resp
	}
	d.setDraining(req.Enable)
	if !req.Enable {
		resp.Lines = []string{d.addr + ": draining off"}
		return resp
	}
	sessions := d.homedSessions()
	resp.Lines = append(resp.Lines, d.addr+": draining on")
	var wg sync.WaitGroup
	results := make(chan string, len(sessions))
	for _, fs := range sessions {
		wg.Add(1)
		fs := fs
		werr := fs.enqueue(c.Context(), &wire.Request{Op: opMigrate}, func(r *wire.Response) {
			if r.Err != nil {
				results <- "session not migrated: " + r.Err.Msg
			} else {
				results <- "session migrated"
			}
			wg.Done()
		})
		if werr != nil {
			results <- "session not migrated: " + werr.Msg
			wg.Done()
		}
	}
	wg.Wait()
	close(results)
	for line := range results {
		resp.Lines = append(resp.Lines, line)
	}
	return resp
}
