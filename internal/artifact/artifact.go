// Package artifact is the shared store of compiled per-circuit
// artifacts: analysis programs (core.Program, including the compiled
// conditioning programs and incremental regions), collapsed fault
// lists, FFR fault-simulation plans (faultsim.Plan, carrying the
// FFR/dominator index) and self-test programs (bist.Program).
//
// Every artifact is a pure function of the circuit structure (plus,
// for analysis programs, the parameter set), immutable once built, and
// expensive enough to derive that rebuilding it per Session or per
// call would dominate the workload.  The store therefore
//
//   - interns circuits by structural fingerprint, so independently
//     built copies of the same design (e.g. two registry lookups, or
//     N servers opening Sessions on the same netlist) share one
//     canonical *Circuit and hence one set of artifacts;
//   - deduplicates concurrent builds singleflight-style: the first
//     caller of a key builds, every concurrent caller blocks on the
//     same sync.Once and receives the shared result;
//   - bounds memory with an LRU policy over the cache entries and a
//     partial trim over the intern table (see Intern).  Eviction
//     only drops the store's reference — users holding an artifact
//     keep it alive; a later request simply rebuilds.
//
// All methods are safe for concurrent use.  The package-level Default
// store is shared by every Session.
package artifact

import (
	"container/list"
	"sync"
	"sync/atomic"

	"protest/internal/bist"
	"protest/internal/circuit"
	"protest/internal/core"
	"protest/internal/fault"
	"protest/internal/faultsim"
)

// DefaultCapacity is the entry bound of the Default store: generous
// for realistic fleets (a handful of artifacts per hot circuit) while
// bounding a pathological many-circuits workload.
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

// entry is one cache slot.  once gives singleflight semantics: the
// creating goroutine builds inside once.Do while concurrent readers of
// the same key block on it.
type entry struct {
	key  key
	elem *list.Element
	once sync.Once
	val  any
	err  error
}

// Store is a singleflight + LRU artifact cache.  The zero value is not
// usable; create stores with NewStore.
type Store struct {
	mu      sync.Mutex
	cap     int
	entries map[key]*entry
	lru     *list.List // of *entry; front = most recently used

	internMu    sync.Mutex
	interned    map[uint64][]*circuit.Circuit
	internCount int

	// Effectiveness counters (see Stats).  They are monotonic over the
	// store's lifetime, so callers can diff snapshots across
	// operations.
	builds    atomic.Int64
	hits      atomic.Int64
	buildErrs atomic.Int64
	evictions atomic.Int64
}

// Stats is a snapshot of a store's effectiveness counters.  The
// headline signal is Builds: it advances only when an artifact is
// actually constructed, so "a second request for the same circuit did
// not recompile" is exactly "Builds did not change".
type Stats struct {
	// Builds counts artifact constructions (cache misses that ran a
	// build function, including ones that later failed).
	Builds int64 `json:"builds"`
	// Hits counts lookups served by a live entry, including callers
	// that blocked on a concurrent build of the same key.
	Hits int64 `json:"hits"`
	// BuildErrors counts failed builds; failures are never cached, so
	// a later lookup retries (and counts another build).
	BuildErrors int64 `json:"build_errors"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
}

// Stats returns a snapshot of the store's counters.  Counters are
// read individually (not under one lock), so a snapshot taken during
// concurrent traffic is approximate; quiesce first for exact deltas.
func (s *Store) Stats() Stats {
	return Stats{
		Builds:      s.builds.Load(),
		Hits:        s.hits.Load(),
		BuildErrors: s.buildErrs.Load(),
		Evictions:   s.evictions.Load(),
	}
}

// NewStore creates a store bounded to capacity entries (values <= 0
// select DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		cap:      capacity,
		entries:  make(map[key]*entry),
		lru:      list.New(),
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
	if s.internCount >= 4*s.cap {
		// Shed roughly half the identities instead of flushing the
		// table wholesale: with untrusted inputs (an HTTP server
		// interning client netlists) a stream of unique designs then
		// degrades incrementally — most hot identities survive each
		// trim — rather than invalidating every canonical pointer at
		// once and triggering a recompile storm for all of them.
		// Which buckets go is pseudo-random (map iteration order).
		target := 2 * s.cap
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

// get returns the artifact under k, building it at most once per
// concurrent burst.  Build errors are not cached: the failed entry is
// removed so a later call can retry.
func (s *Store) get(k key, build func() (any, error)) (any, error) {
	s.mu.Lock()
	e, ok := s.entries[k]
	if ok {
		s.lru.MoveToFront(e.elem)
		s.hits.Add(1)
	} else {
		e = &entry{key: k}
		e.elem = s.lru.PushFront(e)
		s.entries[k] = e
		s.builds.Add(1)
		for s.lru.Len() > s.cap {
			back := s.lru.Back()
			old := back.Value.(*entry)
			s.lru.Remove(back)
			delete(s.entries, old.key)
			s.evictions.Add(1)
		}
	}
	s.mu.Unlock()

	e.once.Do(func() { e.val, e.err = build() })
	if e.err != nil {
		s.mu.Lock()
		if cur, ok := s.entries[k]; ok && cur == e {
			// First observer of the failure removes the entry (and
			// counts the failed build exactly once); concurrent
			// waiters on the same build just return the error.
			s.buildErrs.Add(1)
			s.lru.Remove(e.elem)
			delete(s.entries, k)
		}
		s.mu.Unlock()
		return nil, e.err
	}
	return e.val, nil
}

// Program returns the shared compiled analysis program of (c, params),
// building it on first use.
func (s *Store) Program(c *circuit.Circuit, params core.Params) (*core.Program, error) {
	c = s.Intern(c)
	v, err := s.get(key{kind: kindProgram, c: c, params: params}, func() (any, error) {
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
	v, _ := s.get(key{kind: kindFaults, c: c, model: m}, func() (any, error) {
		return m.Faults(c), nil
	})
	return v.([]fault.Fault)
}

// SimPlanFor returns the shared FFR fault-simulation plan of c over a
// fault model's universe.
func (s *Store) SimPlanFor(c *circuit.Circuit, m fault.Model) *faultsim.Plan {
	c = s.Intern(c)
	m = m.Normalize()
	v, _ := s.get(key{kind: kindSimPlan, c: c, model: m}, func() (any, error) {
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
	v, _ := s.get(key{kind: kindBIST, c: ci, model: m}, func() (any, error) {
		return bist.NewProgram(ci, s.FaultsFor(ci, m), func() *faultsim.Plan {
			return s.SimPlanFor(ci, m)
		}), nil
	})
	return v.(*bist.Program)
}

// Len returns the current number of cached entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}
