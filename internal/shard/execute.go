package shard

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"protest/internal/artifact"
	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/faultsim"
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
// Circuits are resolved by digest.  The Executor parses every netlist
// it receives, after checking it against the digest sent with it, and
// keeps the interned circuit under that digest for later digest-only
// requests, holding at most artifact.DefaultCapacity circuits in LRU
// order.
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

// Run executes one shard request.  It parses the request's netlist when
// one is present and looks its digest up otherwise, answering
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

// resolve returns the request's circuit.
func (e *Executor) resolve(req *Request) (*circuit.Circuit, error) {
	if req.Netlist == "" {
		if req.Digest == "" {
			return nil, fmt.Errorf("shard: request carries neither netlist nor digest")
		}
		if c := e.lookup(req.Digest); c != nil {
			return c, nil
		}
		return nil, ErrUnknownCircuit
	}
	// Verify before caching anything: a request must not be able to
	// bind another circuit to a digest some coordinator addresses.
	d := digest(req.Name, req.Netlist)
	if req.Digest != "" && req.Digest != d {
		return nil, fmt.Errorf("shard: digest %q does not match the netlist", req.Digest)
	}
	name := req.Name
	if name == "" {
		name = "netlist"
	}
	c, err := netlist.ParseString(req.Netlist, name)
	if err != nil {
		return nil, fmt.Errorf("shard: bad netlist: %w", err)
	}
	c = e.store.Intern(c)
	e.remember(d, c)
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

// Task is the coordinator-side handle of one distributable circuit.
// Tasks are immutable and safe for concurrent use; a Session builds
// one per circuit and reuses it for every sharded measurement.
//
// A worker reconstructs the circuit by parsing Netlist — and parsing
// renumbers nodes, so the worker's fault list and FFR partition are
// ordered differently from the coordinator's native plan.  Rather than
// negotiate, the Task adopts the worker's frame: it parses its own
// rendered netlist (parsing a given string is deterministic, and the
// artifact store interns by exact node order, so every process derives
// the identical plan from the identical string), cuts shards along
// that remote plan's geometry, and carries a fault-name permutation to
// translate merged results back into the local plan's order.
type Task struct {
	Name    string
	Netlist string
	// Digest is the content address of (Name, Netlist) that requests
	// carry in place of the netlist.
	Digest string
	// Model is the fault universe both plans enumerate; requests carry
	// it so workers re-derive the same universe from the netlist.
	Model fault.Model
	// Plan is the Session's native plan: results are returned in its
	// fault order.
	Plan *faultsim.Plan
	// Remote is the plan every worker derives from Netlist: shard
	// geometry (group numbering, fault order on the wire) is its.
	Remote *faultsim.Plan
	Seed   uint64

	// perm maps a Remote fault index to its Plan fault index (matched
	// by fault name, which survives the netlist round-trip).
	perm []int
	// groupPrefix[g] is the number of faults in Remote groups [0, g);
	// the response cross-check and the merge size group ranges with it.
	groupPrefix []int
}

// NewModelTask renders the plan's circuit as a netlist, derives the
// remote plan workers will reconstruct from it, and precomputes the
// geometry shards are cut along plus the remote→local fault
// permutation.  plan must enumerate model's universe, and the remote
// plan is derived under the same model, so fault order on the wire
// matches what workers compute from the request's FaultModel field.
func NewModelTask(plan *faultsim.Plan, model fault.Model, seed uint64) (*Task, error) {
	model = model.Normalize()
	c := plan.Circuit()
	src, err := netlist.String(c)
	if err != nil {
		return nil, fmt.Errorf("shard: render netlist: %w", err)
	}
	rc, err := netlist.ParseString(src, c.Name)
	if err != nil {
		return nil, fmt.Errorf("shard: netlist does not round-trip: %w", err)
	}
	rc = artifact.Default.Intern(rc)
	remote := artifact.Default.SimPlanFor(rc, model)

	local := plan.Faults()
	byName := make(map[string]int, len(local))
	for i := range local {
		name := local[i].Name(c)
		if _, dup := byName[name]; dup {
			return nil, fmt.Errorf("shard: duplicate fault name %q", name)
		}
		byName[name] = i
	}
	rem := remote.Faults()
	if len(rem) != len(local) {
		return nil, fmt.Errorf("shard: round-trip changed fault count: %d != %d", len(rem), len(local))
	}
	perm := make([]int, len(rem))
	for j := range rem {
		i, ok := byName[rem[j].Name(rc)]
		if !ok {
			return nil, fmt.Errorf("shard: fault %q missing after round-trip", rem[j].Name(rc))
		}
		perm[j] = i
	}

	prefix := make([]int, remote.NumGroups()+1)
	for j := range rem {
		prefix[remote.GroupOf(j)+1]++
	}
	for g := 1; g < len(prefix); g++ {
		prefix[g] += prefix[g-1]
	}
	return &Task{
		Name:        c.Name,
		Netlist:     src,
		Digest:      digest(c.Name, src),
		Model:       model,
		Plan:        plan,
		Remote:      remote,
		Seed:        seed,
		perm:        perm,
		groupPrefix: prefix,
	}, nil
}

// wireModel is the value Requests carry for the task's model: empty
// for stuck-at, keeping pre-model request bytes unchanged.
func (t *Task) wireModel() string {
	if t.Model == fault.ModelStuckAt {
		return ""
	}
	return string(t.Model)
}

// faultsIn returns the number of faults in Remote groups [lo, hi).
func (t *Task) faultsIn(lo, hi int) int {
	return t.groupPrefix[hi] - t.groupPrefix[lo]
}
