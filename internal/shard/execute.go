package shard

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"protest/internal/artifact"
	"protest/internal/circuit"
	"protest/internal/coalesce"
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
// and runs the measurement's body over the shard's block range.
//
// Circuits are resolved by digest.  A netlist the Executor receives
// is checked against the digest sent with it and decoded
// (netlist.Decode, so its circuit is the coordinator's, node for node)
// only when the Executor does not hold that digest yet; requests that
// carry one new digest at once share one decode.  The interned circuit
// stays under its digest for later requests, with or without the
// netlist, and the Executor holds at most artifact.DefaultCapacity
// circuits in LRU order.
type Executor struct {
	store   *artifact.Store
	decodes *coalesce.Group[string, *circuit.Circuit, struct{}]
	decoded atomic.Int64 // netlists decoded

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
		decodes:  coalesce.NewGroup[string, *circuit.Circuit, struct{}](),
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
	c, err := e.resolve(ctx, req)
	if err != nil {
		return nil, err
	}
	return runShard(ctx, e.store.SimPlanFor(c, m), req)
}

// resolve returns the request's circuit.  Every request must carry a
// digest of this wire version (see Digest): a coordinator of another
// version numbers its shards another way, and failing its attempt
// makes it run the shard locally instead.
func (e *Executor) resolve(ctx context.Context, req *Request) (*circuit.Circuit, error) {
	if !strings.HasPrefix(req.Digest, wireVersion) {
		return nil, fmt.Errorf("shard: digest %q is not a %s digest", req.Digest, wireVersion)
	}
	if req.Netlist == "" {
		if c := e.lookup(req.Digest); c != nil {
			return c, nil
		}
		return nil, ErrUnknownCircuit
	}
	// Verify before anything else: a request must not be able to bind
	// another circuit to a digest some coordinator addresses.
	if req.Digest != Digest(req.Name, req.Netlist) {
		return nil, fmt.Errorf("shard: digest %q does not match the netlist", req.Digest)
	}
	// Requests that carry one digest at once share this call, and a
	// digest already held needs no decode.
	c, err, _ := e.decodes.Do(ctx, req.Digest, nil, func(context.Context, func(struct{})) (*circuit.Circuit, error) {
		if c := e.lookup(req.Digest); c != nil {
			return c, nil
		}
		e.decoded.Add(1)
		c, err := netlist.Decode(req.Netlist, req.Name)
		if err != nil {
			return nil, fmt.Errorf("shard: bad netlist: %w", err)
		}
		c = e.store.Intern(c)
		e.remember(req.Digest, c)
		return c, nil
	})
	return c, err
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
	if el, ok := e.circuits[d]; ok {
		e.lru.MoveToFront(el)
		return
	}
	e.circuits[d] = e.lru.PushFront(&cached{digest: d, c: c})
	if e.lru.Len() > artifact.DefaultCapacity {
		old := e.lru.Remove(e.lru.Back()).(*cached)
		delete(e.circuits, old.digest)
	}
}
