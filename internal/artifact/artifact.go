// Package artifact caches per-circuit state.  Cache is a generic
// singleflight LRU map, and the module's LRU-bounded per-circuit
// caches are instances of it: the Store's artifacts, the server's
// Sessions and a shard worker's circuits by digest, each with its own
// capacity.
//
// The Store holds the compiled per-circuit artifacts: analysis
// programs (core.Program, including the compiled conditioning programs
// and incremental regions), collapsed fault lists, FFR
// fault-simulation plans (faultsim.Plan, carrying the FFR/dominator
// index) and self-test programs (bist.Program).  Every artifact is a
// pure function of the circuit structure (plus, for analysis programs,
// the parameter set), immutable once built, and expensive enough to
// derive that rebuilding it per Session or per call would dominate the
// workload.  The store therefore
//
//   - interns circuits by structural fingerprint, so independently
//     built copies of the same design (e.g. two registry lookups, or
//     N servers opening Sessions on the same netlist) share one
//     canonical *Circuit and hence one set of artifacts;
//   - keeps the artifacts in a Cache, so concurrent builds of one
//     artifact share one build and its entries are LRU-bounded;
//   - trims the intern table partially when it grows (see Intern).
//
// All methods are safe for concurrent use.  The package-level Default
// store is shared by every Session.
package artifact

import (
	"sync"

	"protest/internal/bist"
	"protest/internal/circuit"
	"protest/internal/core"
	"protest/internal/fault"
	"protest/internal/faultsim"
)

// DefaultCapacity is the entry bound of the Default store: generous
// for realistic fleets (a handful of artifacts per hot circuit) while
// bounding a pathological many-circuits workload.  A shard worker
// holds as many circuits, and caches created with a capacity <= 0 get
// it too.
const DefaultCapacity = 256

// Default is the process-wide store shared by all Sessions.
var Default = NewStore(DefaultCapacity)

type kind uint8

const (
	kindProgram kind = iota
	kindFaults
	kindSimPlan
	kindBIST
)

// key identifies one artifact: the artifact kind, the interned circuit
// identity, the fault model (for fault-derived kinds), and (for
// analysis programs) the parameter set, which includes the
// observability model.
type key struct {
	kind   kind
	c      *circuit.Circuit
	model  fault.Model // normalized; zero for kinds not fault-derived
	params core.Params // zero for kinds not parameterized
}

// Store is the artifact cache plus the intern table.  The zero value
// is not usable; create stores with NewStore.
type Store struct {
	cache *Cache[key, any]

	internMu    sync.Mutex
	interned    map[uint64][]*circuit.Circuit
	internCount int
}

// Stats returns a snapshot of the store's cache counters.
func (s *Store) Stats() Stats { return s.cache.Stats() }

// NewStore creates a store bounded to capacity entries (values <= 0
// select DefaultCapacity).
func NewStore(capacity int) *Store {
	return &Store{
		cache:    NewCache[key, any](capacity),
		interned: make(map[uint64][]*circuit.Circuit),
	}
}

// Intern returns the canonical instance of c: the first structurally
// identical circuit the store has seen (possibly c itself).  All
// artifact lookups intern internally; callers that hold many
// equivalent circuits (e.g. per-request netlist parses) can intern
// once up front and key everything off the canonical pointer.
//
// The intern table is bounded like the artifact entries: once it
// holds several times the store capacity of distinct circuits, a
// pseudo-random half of the identities is shed.  Interned pointers
// handed out earlier stay valid — a Session keeps its canonical
// circuit for its lifetime — only future interns of the *shed*
// designs lose sharing with pre-trim ones, and their artifacts
// rebuild under the new canonical pointer.
func (s *Store) Intern(c *circuit.Circuit) *circuit.Circuit {
	fp := c.Fingerprint() // outside the lock: may compute lazily
	s.internMu.Lock()
	defer s.internMu.Unlock()
	for _, o := range s.interned[fp] {
		if circuit.Equal(c, o) {
			return o
		}
	}
	if s.internCount >= 4*s.cache.cap {
		// Shed roughly half the identities instead of flushing the
		// table wholesale: with untrusted inputs (an HTTP server
		// interning client netlists) a stream of unique designs then
		// degrades incrementally — most hot identities survive each
		// trim — rather than invalidating every canonical pointer at
		// once and triggering a recompile storm for all of them.
		// Which buckets go is pseudo-random (map iteration order).
		target := 2 * s.cache.cap
		for fp, list := range s.interned {
			s.internCount -= len(list)
			delete(s.interned, fp)
			if s.internCount <= target {
				break
			}
		}
	}
	s.interned[fp] = append(s.interned[fp], c)
	s.internCount++
	return c
}

// Program returns the shared compiled analysis program of (c, params),
// building it on first use.
func (s *Store) Program(c *circuit.Circuit, params core.Params) (*core.Program, error) {
	c = s.Intern(c)
	v, err := s.cache.Get(key{kind: kindProgram, c: c, params: params}, func() (any, error) {
		return core.NewProgram(c, params)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Program), nil
}

// FaultsFor returns the shared fault list of c under a fault model.
// The slice is shared: callers must not modify it.
func (s *Store) FaultsFor(c *circuit.Circuit, m fault.Model) []fault.Fault {
	c = s.Intern(c)
	m = m.Normalize()
	v, _ := s.cache.Get(key{kind: kindFaults, c: c, model: m}, func() (any, error) {
		return m.Faults(c), nil
	})
	return v.([]fault.Fault)
}

// SimPlanFor returns the shared FFR fault-simulation plan of c over a
// fault model's universe.
func (s *Store) SimPlanFor(c *circuit.Circuit, m fault.Model) *faultsim.Plan {
	c = s.Intern(c)
	m = m.Normalize()
	v, _ := s.cache.Get(key{kind: kindSimPlan, c: c, model: m}, func() (any, error) {
		return faultsim.NewPlan(c, s.FaultsFor(c, m)), nil
	})
	return v.(*faultsim.Plan)
}

// BISTFor returns the shared self-test program of c over a fault
// model's universe.  Its FFR simulation plan is the store's
// SimPlanFor(c, m), resolved lazily on the first FFR-engine run.
func (s *Store) BISTFor(c *circuit.Circuit, m fault.Model) *bist.Program {
	ci := s.Intern(c)
	m = m.Normalize()
	v, _ := s.cache.Get(key{kind: kindBIST, c: ci, model: m}, func() (any, error) {
		return bist.NewProgram(ci, s.FaultsFor(ci, m), func() *faultsim.Plan {
			return s.SimPlanFor(ci, m)
		}), nil
	})
	return v.(*bist.Program)
}

// Len returns the current number of cached entries.
func (s *Store) Len() int { return s.cache.Len() }
