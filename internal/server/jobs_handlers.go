package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"protest/internal/jobs"
)

// jobSubmitResponse is the body of a successful POST /v1/jobs.
type jobSubmitResponse struct {
	ID string `json:"id"`
	// Status and Events are the polling and streaming URLs of the job.
	Status string `json:"status"`
	Events string `json:"events"`
}

// handleJobSubmit accepts the same payload as POST /v1/pipeline but
// returns immediately with a job id: the pipeline runs on the bounded
// job worker pool, outliving any HTTP connection, and its state,
// progress and final Report are polled via GET /v1/jobs/{id} or
// streamed via GET /v1/jobs/{id}/events.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	c, spec, specKey, ok := s.decodePipeline(w, r)
	if !ok {
		return
	}
	id, err := s.jobStore.Submit(func(ctx context.Context, progress func(phase string, frac float64)) (any, error) {
		if s.testHookJobRun != nil {
			s.testHookJobRun()
		}
		// Jobs share the pipeline coalescing keyspace with synchronous
		// requests — an identical sync request joins a running job's
		// computation and vice versa — but bypass HTTP admission: the
		// worker pool is the jobs' admission control.
		rep, err, _ := s.runPipeline(ctx, c, spec, specKey, false, func(p progressUpdate) {
			progress(string(p.Phase), p.Frac)
		})
		if err != nil {
			return nil, err
		}
		return rep, nil
	})
	switch {
	case errors.Is(err, jobs.ErrStoreFull):
		s.reject429(w, err)
		return
	case err != nil:
		s.failed.Add(1)
		s.error(w, http.StatusServiceUnavailable, err)
		return
	}
	s.respond(w, http.StatusAccepted, jobSubmitResponse{
		ID:     id,
		Status: "/v1/jobs/" + id,
		Events: "/v1/jobs/" + id + "/events",
	})
}

// handleJobGet polls one job: state (queued/running/done/failed/
// canceled), the latest progress snapshot, and — once done — the
// Report, bit-identical to the synchronous /v1/pipeline response for
// the same request.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobStore.Get(r.PathValue("id"))
	if err != nil {
		s.error(w, http.StatusNotFound, err)
		return
	}
	s.respond(w, http.StatusOK, snap)
}

// handleJobCancel cancels the job.  The snapshot in the response shows
// the state at cancel time; a running job turns canceled once its
// worker observes the aborted context.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.jobStore.Cancel(id); err != nil {
		s.error(w, http.StatusNotFound, err)
		return
	}
	snap, err := s.jobStore.Get(id)
	if err != nil {
		s.error(w, http.StatusNotFound, err)
		return
	}
	s.respond(w, http.StatusOK, snap)
}

// lastEventID extracts the resume position: the standard SSE
// Last-Event-ID header (set automatically by EventSource reconnects),
// or the last_event_id query parameter for plain polling clients.
func lastEventID(r *http.Request) (int64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return 0, nil
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id < 0 {
		return 0, fmt.Errorf("bad Last-Event-ID %q", raw)
	}
	return id, nil
}

// handleJobEvents streams the job's event log as server-sent events:
// every event carries its log id, so a client that loses the
// connection re-attaches with Last-Event-ID and receives exactly the
// events it missed — including, for a job that finished meanwhile, the
// final result event.  The stream ends when the job reaches a terminal
// state (or, for an already-finished job, after the replay).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	after, err := lastEventID(r)
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	replay, live, stop, err := s.jobStore.Subscribe(r.PathValue("id"), after)
	if err != nil {
		s.error(w, http.StatusNotFound, err)
		return
	}
	defer stop()
	stream, ok := newSSEStream(w)
	if !ok {
		s.error(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	// Slow jobs can go long stretches without an event; periodic pings
	// keep proxies from cutting the idle stream.
	stopPing := stream.keepAlive(s.cfg.SSEKeepAlive)
	defer stopPing()
	for _, ev := range replay {
		stream.jobEvent(ev)
	}
	ctx := r.Context()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				// Terminal state reached (or this subscriber fell too
				// far behind and was dropped — the client's resume
				// with Last-Event-ID recovers either way).
				return
			}
			stream.jobEvent(ev)
		case <-ctx.Done():
			return
		}
	}
}
