package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"

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
// and runs the measurement's body over the shard's block range.
//
// Circuits are resolved by digest, in an artifact.Cache of
// artifact.DefaultCapacity circuits, the Executor's own.  A netlist
// the Executor receives is checked against the digest sent with it and
// decoded (netlist.Decode, so its circuit is the coordinator's, node
// for node) only when the Executor does not hold that digest yet;
// requests that carry one new digest at once share one decode, and
// wait for it.  The interned circuit stays under its digest for later
// requests, with or without the netlist, in LRU order.
type Executor struct {
	store    *artifact.Store
	circuits *artifact.Cache[string, *circuit.Circuit] // by digest
}

// NewExecutor creates an Executor over the process-wide artifact
// store.
func NewExecutor() *Executor {
	return &Executor{
		store:    artifact.Default,
		circuits: artifact.NewCache[string, *circuit.Circuit](artifact.DefaultCapacity),
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
		if c, ok := e.circuits.Peek(req.Digest); ok {
			return c, nil
		}
		return nil, ErrUnknownCircuit
	}
	// Verify before anything else: a request must not be able to bind
	// another circuit to a digest some coordinator addresses.
	if req.Digest != Digest(req.Name, req.Netlist) {
		return nil, fmt.Errorf("shard: digest %q does not match the netlist", req.Digest)
	}
	return e.circuits.Get(req.Digest, func() (*circuit.Circuit, error) {
		c, err := netlist.Decode(req.Netlist, req.Name)
		if err != nil {
			return nil, fmt.Errorf("shard: bad netlist: %w", err)
		}
		return e.store.Intern(c), nil
	})
}
