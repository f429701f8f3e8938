package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sync"
	"time"
)

// sample is the outcome of one request sent by a client.
type sample struct {
	latency time.Duration
	status  int
	hash    uint64
	err     error
	body    []byte // kept for /v1/validate, whose report is checked, and for errors
}

// ok reports whether the request completed with a 200.
func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// hashSeed keys every response and reference hash of one process.
var hashSeed = maphash.MakeSeed()

func hashBytes(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// newClients returns one HTTP client per closed-loop client, each
// limited to a single keep-alive connection.
func newClients() [clients]*http.Client {
	var cs [clients]*http.Client
	for i := range cs {
		cs[i] = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}
	}
	return cs
}

func closeClients(cs [clients]*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// send posts one request and reads the whole response.
func send(ctx context.Context, c *http.Client, base string, q request) sample {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+q.Path, bytes.NewReader(q.Body))
	if err != nil {
		return sample{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return sample{latency: time.Since(start), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := sample{latency: time.Since(start), status: resp.StatusCode, err: err}
	s.hash = hashBytes(body)
	if q.Path == "/v1/validate" || s.status != http.StatusOK {
		s.body = body
	}
	return s
}

// errUnsent marks a request its client did not send because the run
// had passed its deadline.  Such a request counts as attempted and
// failed, so a run that cannot finish its fixed work never passes.
var errUnsent = errors.New("not sent: the run passed its deadline")

// unsent reports whether the request was skipped at the deadline.
func (s sample) unsent() bool { return errors.Is(s.err, errUnsent) }

// drive runs every client's sequence as a closed loop, each client
// sending its next request only once the previous reply is read, and
// returns one sample per request, index-aligned with seqs, and the
// window from the common start until the last client drained.  Past
// deadline, which only a badly degraded commit reaches, a client stops
// sending and marks its remaining requests unsent.
func drive(ctx context.Context, cs [clients]*http.Client, base string, seqs [clients][]request, deadline time.Duration) ([clients][]sample, [clients]time.Duration, time.Duration) {
	var out [clients][]sample
	var drained [clients]time.Duration
	var wg sync.WaitGroup
	startGate := make(chan struct{})
	var start time.Time
	for c := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-startGate
			out[c] = make([]sample, 0, len(seqs[c]))
			for _, q := range seqs[c] {
				if time.Since(start) > deadline {
					out[c] = append(out[c], sample{err: errUnsent})
					continue
				}
				out[c] = append(out[c], send(ctx, cs[c], base, q))
			}
			drained[c] = time.Since(start)
		}()
	}
	start = time.Now()
	close(startGate)
	wg.Wait()
	return out, drained, time.Since(start)
}

// warmUp sends each client's warm-up requests, the clients in
// parallel, and fails on the first request that does not succeed.
func warmUp(ctx context.Context, cs [clients]*http.Client, base string, reqs [clients][]request) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range reqs[c] {
				if s := send(ctx, cs[c], base, q); !s.ok() {
					errs[c] = fmt.Errorf("warm-up %s %s: status %d: %v %s", q.Path, q.Circuit, s.status, s.err, s.body)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
