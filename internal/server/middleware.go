package server

import (
	"errors"
	"fmt"
	"net/http"

	"protest/internal/shard"
)

// recoverPanics converts handler panics into 500 responses so one bad
// request cannot take the process down, counting each in Stats.Panics.
// http.ErrAbortHandler is re-panicked: it is net/http's own sentinel
// for deliberately aborting a response, not a defect.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.panics.Add(1)
			// Best effort: if the handler already wrote headers (an SSE
			// stream, say), this write fails quietly and the connection
			// just closes.
			s.error(w, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", v))
		}()
		next.ServeHTTP(w, r)
	})
}

// recoverToError converts a panic on the current goroutine into an
// error through *errp, counting it.  The pipeline and job paths run
// computations on goroutines the HTTP middleware cannot see (coalesced
// computations, job workers); deferring this there keeps a panicking
// Session from killing the process.
func (s *Server) recoverToError(errp *error) {
	v := recover()
	if v == nil {
		return
	}
	s.panics.Add(1)
	*errp = fmt.Errorf("internal panic: %v", v)
}

// handleShard serves POST /v1/shard on worker processes: one shard of
// a distributed fault-simulation run (see internal/shard).  Shards
// pass the same admission control as every analysis endpoint, so a
// worker overloaded with shards degrades into fast 429s the
// coordinator's retries route around.  A digest the worker
// does not hold answers 404, which the coordinator's transport maps to
// shard.ErrUnknownCircuit.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req shard.Request
	if !s.decode(w, r, &req) {
		return
	}
	ctx := r.Context()
	if err := s.adm.admit(ctx); err != nil {
		if ctx.Err() != nil {
			s.canceled.Add(1)
			return
		}
		s.reject429(w, err)
		return
	}
	defer s.adm.release()
	resp, err := s.shardExec.Run(ctx, &req)
	switch {
	case err != nil && ctx.Err() != nil:
		s.canceled.Add(1)
	case errors.Is(err, shard.ErrUnknownCircuit):
		// Not a failure: the coordinator resends the shard with its
		// netlist.
		s.error(w, http.StatusNotFound, err)
	case err != nil:
		s.failed.Add(1)
		s.error(w, http.StatusBadRequest, err)
	default:
		s.completed.Add(1)
		s.respond(w, http.StatusOK, resp)
	}
}
