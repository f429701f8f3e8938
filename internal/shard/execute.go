package shard

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"protest/internal/artifact"
	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/netlist"
)

// ErrUnknownCircuit answers a request that names its circuit only by a
// digest the Executor does not hold: it never received that netlist,
// restarted, or evicted it.  The coordinator then resends the shard
// with the netlist.
var ErrUnknownCircuit = errors.New("shard: unknown circuit digest")

// Executor runs shard requests on the worker side: it resolves the
// request's circuit, the shared simulation plan through the artifact
// store (so repeated shards of one run partition the circuit once),
// and executes the shard's rectangle of the measurement grid.
//
// Circuits are resolved by digest.  The Executor decodes every netlist
// it receives (netlist.Decode, so its circuit is the coordinator's,
// node for node), after checking it against the digest sent with it,
// and keeps the interned circuit under that digest for later
// digest-only requests, holding at most artifact.DefaultCapacity
// circuits in LRU order.
type Executor struct {
	store *artifact.Store

	mu       sync.Mutex
	circuits map[string]*list.Element // digest → element of lru
	lru      *list.List               // of *cached; front = most recently used
}

// cached is one circuit the Executor holds, under its digest.
type cached struct {
	digest string
	c      *circuit.Circuit
}

// NewExecutor creates an Executor over the process-wide artifact
// store.
func NewExecutor() *Executor {
	return &Executor{
		store:    artifact.Default,
		circuits: make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Run executes one shard request.  It decodes the request's netlist
// when one is present and looks its digest up otherwise, answering
// ErrUnknownCircuit for a digest it does not hold.
func (e *Executor) Run(ctx context.Context, req *Request) (*Response, error) {
	m, err := fault.ParseModel(req.FaultModel)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	c, err := e.resolve(req)
	if err != nil {
		return nil, err
	}
	return runShard(ctx, e.store.SimPlanFor(c, m), req)
}

// resolve returns the request's circuit.  Every request must carry a
// digest of this wire version (see Digest): a coordinator of another
// version numbers its shards another way, and failing its attempt
// makes it run the shard locally instead.
func (e *Executor) resolve(req *Request) (*circuit.Circuit, error) {
	if !strings.HasPrefix(req.Digest, wireVersion) {
		return nil, fmt.Errorf("shard: digest %q is not a %s digest", req.Digest, wireVersion)
	}
	if req.Netlist == "" {
		if c := e.lookup(req.Digest); c != nil {
			return c, nil
		}
		return nil, ErrUnknownCircuit
	}
	// Verify before caching anything: a request must not be able to
	// bind another circuit to a digest some coordinator addresses.
	if req.Digest != Digest(req.Name, req.Netlist) {
		return nil, fmt.Errorf("shard: digest %q does not match the netlist", req.Digest)
	}
	c, err := netlist.Decode(req.Netlist, req.Name)
	if err != nil {
		return nil, fmt.Errorf("shard: bad netlist: %w", err)
	}
	c = e.store.Intern(c)
	e.remember(req.Digest, c)
	return c, nil
}

// lookup returns the circuit held under digest d, or nil.
func (e *Executor) lookup(d string) *circuit.Circuit {
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.circuits[d]
	if !ok {
		return nil
	}
	e.lru.MoveToFront(el)
	return el.Value.(*cached).c
}

// remember holds c under digest d, evicting the least recently used
// circuit beyond artifact.DefaultCapacity.
func (e *Executor) remember(d string, c *circuit.Circuit) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.circuits[d]; ok { // sent again, or parsed concurrently
		e.lru.MoveToFront(el)
		return
	}
	e.circuits[d] = e.lru.PushFront(&cached{digest: d, c: c})
	if e.lru.Len() > artifact.DefaultCapacity {
		old := e.lru.Remove(e.lru.Back()).(*cached)
		delete(e.circuits, old.digest)
	}
}
