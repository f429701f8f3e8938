package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"protest"
	"protest/internal/jobs"
)

// sseStream writes server-sent events for one response.  Methods are
// safe for concurrent use: pipeline phases running with Workers > 1
// emit progress from several goroutines at once.
type sseStream struct {
	mu sync.Mutex
	w  http.ResponseWriter
	fl http.Flusher

	lastPhase protest.Phase
	lastFrac  float64
}

// newSSEStream switches the response to a text/event-stream and
// returns the stream, or ok = false when the ResponseWriter cannot
// flush (no streaming support).
func newSSEStream(w http.ResponseWriter) (*sseStream, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return &sseStream{w: w, fl: fl, lastFrac: -1}, true
}

// event emits one named event with a JSON payload and flushes it.
func (s *sseStream) event(name string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data)
	s.fl.Flush()
}

// jobEvent emits one job-log event with its log id on the SSE id
// field, so EventSource reconnects (and manual re-attaches) resume via
// Last-Event-ID from exactly the right position.
func (s *sseStream) jobEvent(ev jobs.Event) {
	data, err := json.Marshal(ev.Data)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data)
	s.fl.Flush()
}

// ping emits an SSE comment line.  Comments are invisible to
// EventSource clients but keep bytes moving on an otherwise idle
// stream, so LB/proxy idle timeouts don't sever a connection whose
// computation is just slow.
func (s *sseStream) ping() {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprint(s.w, ": ping\n\n")
	s.fl.Flush()
}

// keepAlive pings the stream every interval until the returned stop
// function is called.  stop returns only after the last ping, so the
// handler may return right after it: the ResponseWriter must not be
// written once the handler is done.  interval <= 0 disables pings and
// returns a no-op stop.
func (s *sseStream) keepAlive(interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(exited)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.ping()
			case <-done:
				return
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// progressEvent is the payload of "progress" events.
type progressEvent struct {
	Phase    protest.Phase `json:"phase"`
	Fraction float64       `json:"fraction"`
}

// progress forwards one (phase, fraction) pair, throttled so a long
// simulation cannot flood the stream: a phase change or a completed
// phase always goes out, steps within a phase only every >= 1%.
func (s *sseStream) progress(ph protest.Phase, frac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ph == s.lastPhase && frac < 1 && frac-s.lastFrac < 0.01 {
		return
	}
	s.lastPhase, s.lastFrac = ph, frac
	data, err := json.Marshal(progressEvent{Phase: ph, Fraction: frac})
	if err != nil {
		return
	}
	fmt.Fprintf(s.w, "event: progress\ndata: %s\n\n", data)
	s.fl.Flush()
}
