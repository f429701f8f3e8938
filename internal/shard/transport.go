package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Transport executes shard requests against a worker address.  Both
// methods must honor ctx cancellation — the Pool's per-attempt
// deadlines and its callers' cancellation rely on it.  Implementations
// must be safe for concurrent use.
type Transport interface {
	// Do executes one shard request on the worker at addr.
	Do(ctx context.Context, addr string, req *Request) (*Response, error)
	// Probe cheaply checks whether the worker at addr is serving; the
	// Pool uses it to re-admit ejected workers.
	Probe(ctx context.Context, addr string) error
}

// HTTPTransport talks to `protest serve -worker` processes: shards go
// to POST {addr}/v1/shard, probes to GET {addr}/healthz.  Addresses
// without a scheme get "http://" prefixed.  A 404 carrying the JSON
// error envelope is the worker's ErrUnknownCircuit.
type HTTPTransport struct {
	client *http.Client
}

// NewHTTPTransport creates an HTTPTransport over client, which must not
// be nil (per-attempt deadlines come from the Pool's contexts, not
// client timeouts).  A Pool whose Config leaves Transport unset builds
// one that keeps connections to its workers alive.
func NewHTTPTransport(client *http.Client) *HTTPTransport {
	return &HTTPTransport{client: client}
}

// baseURL normalizes a worker address into a scheme-qualified base.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + strings.TrimSuffix(addr, "/")
}

// Do implements Transport.
func (t *HTTPTransport) Do(ctx context.Context, addr string, req *Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL(addr)+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := t.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 4096))
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			if hres.StatusCode == http.StatusNotFound {
				return nil, fmt.Errorf("shard: worker %s: %w", addr, ErrUnknownCircuit)
			}
			return nil, fmt.Errorf("shard: worker %s: %s (HTTP %d)", addr, e.Error, hres.StatusCode)
		}
		return nil, fmt.Errorf("shard: worker %s: HTTP %d", addr, hres.StatusCode)
	}
	var resp Response
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("shard: worker %s: bad response: %w", addr, err)
	}
	return &resp, nil
}

// Probe implements Transport.
func (t *HTTPTransport) Probe(ctx context.Context, addr string) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL(addr)+"/healthz", nil)
	if err != nil {
		return err
	}
	hres, err := t.client.Do(hreq)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(hres.Body, 4096))
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: worker %s: probe HTTP %d", addr, hres.StatusCode)
	}
	return nil
}

// LocalTransport runs shard requests in-process through an Executor —
// the zero-dependency backend the chaos tests wrap policies around.
type LocalTransport struct {
	Exec *Executor
}

// Do implements Transport.
func (t *LocalTransport) Do(ctx context.Context, addr string, req *Request) (*Response, error) {
	return t.Exec.Run(ctx, req)
}

// Probe implements Transport.
func (t *LocalTransport) Probe(ctx context.Context, addr string) error { return nil }
