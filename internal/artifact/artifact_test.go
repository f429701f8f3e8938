package artifact

import (
	"sync"
	"testing"

	"protest/internal/circuits"
	"protest/internal/core"
	"protest/internal/fault"
)

func TestInternDeduplicatesEqualCircuits(t *testing.T) {
	s := NewStore(16)
	a, b := circuits.ALU74181(), circuits.ALU74181()
	if a == b {
		t.Fatal("registry should build fresh circuits")
	}
	ca, cb := s.Intern(a), s.Intern(b)
	if ca != cb {
		t.Fatalf("structurally equal circuits interned to distinct instances")
	}
	if ca != a {
		t.Fatalf("first interned circuit should be canonical")
	}
	// A structurally different circuit must stay distinct.
	other := s.Intern(circuits.C17())
	if other == ca {
		t.Fatalf("different circuits collapsed onto one instance")
	}
}

func TestProgramSingleflight(t *testing.T) {
	s := NewStore(16)
	c := circuits.C17()
	const callers = 16
	progs := make([]*core.Program, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := s.Program(c, core.DefaultParams())
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < callers; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("concurrent Program calls returned distinct artifacts")
		}
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("store holds %d entries after one key, want 1", got)
	}
}

func TestProgramKeyedByParams(t *testing.T) {
	s := NewStore(16)
	c := circuits.C17()
	def, err := s.Program(c, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := s.Program(c, core.FastParams())
	if err != nil {
		t.Fatal(err)
	}
	if def == fast {
		t.Fatal("distinct parameter sets shared one program")
	}
	obs := core.DefaultParams()
	obs.ObsModel = core.ObsOr
	orProg, err := s.Program(c, obs)
	if err != nil {
		t.Fatal(err)
	}
	if orProg == def {
		t.Fatal("distinct obs models shared one program")
	}
	again, err := s.Program(c, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if again != def {
		t.Fatal("repeated lookup did not hit the cache")
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	s := NewStore(16)
	c := circuits.C17()
	bad := core.DefaultParams()
	bad.MaxVers = -1
	if _, err := s.Program(c, bad); err == nil {
		t.Fatal("invalid params built a program")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("failed build left %d cache entries, want 0", got)
	}
	if _, err := s.Program(c, bad); err == nil {
		t.Fatal("retry of invalid params unexpectedly succeeded")
	}
}

func TestLRUEviction(t *testing.T) {
	s := NewStore(2)
	c := circuits.C17()
	p1, err := s.Program(c, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Program(c, core.FastParams()); err != nil {
		t.Fatal(err)
	}
	// Touch the default-params entry so the fast one is least recent.
	if _, err := s.Program(c, core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	s.FaultsFor(c, fault.ModelStuckAt) // third key evicts the fast program
	if got := s.Len(); got != 2 {
		t.Fatalf("store holds %d entries, want capacity 2", got)
	}
	again, err := s.Program(c, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if again != p1 {
		t.Fatal("most-recently-used entry was evicted")
	}
	// The evicted artifact rebuilds transparently.
	if _, err := s.Program(c, core.FastParams()); err != nil {
		t.Fatal(err)
	}
}

func TestSharedDerivedArtifacts(t *testing.T) {
	s := NewStore(16)
	a, b := circuits.Mult8(), circuits.Mult8()
	if fa, fb := s.FaultsFor(a, fault.ModelStuckAt), s.FaultsFor(b, fault.ModelStuckAt); &fa[0] != &fb[0] {
		t.Fatal("equal circuits did not share one fault list")
	}
	if s.SimPlanFor(a, fault.ModelStuckAt) != s.SimPlanFor(b, fault.ModelStuckAt) {
		t.Fatal("equal circuits did not share one simulation plan")
	}
	if s.BISTFor(a, fault.ModelStuckAt) != s.BISTFor(b, fault.ModelStuckAt) {
		t.Fatal("equal circuits did not share one BIST program")
	}
	if s.SimPlanFor(a, fault.ModelStuckAt).Faults() == nil {
		t.Fatal("sim plan lost its fault list")
	}
}

func TestStoreStats(t *testing.T) {
	s := NewStore(16)
	c := circuits.C17()
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("fresh store stats = %+v, want zeros", st)
	}
	if _, err := s.Program(c, core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Builds != 1 || st.Hits != 0 {
		t.Fatalf("after one cold lookup: %+v, want 1 build, 0 hits", st)
	}
	// A warm lookup — even from an independently built equal circuit —
	// must not rebuild: interning routes it to the cached entry.
	if _, err := s.Program(circuits.C17(), core.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("after warm lookup: %+v, want 1 build, 1 hit", st)
	}
	// Different params are a different artifact.
	if _, err := s.Program(c, core.FastParams()); err != nil {
		t.Fatal(err)
	}
	if st = s.Stats(); st.Builds != 2 {
		t.Fatalf("after second param set: %+v, want 2 builds", st)
	}
}

func TestStoreStatsEvictions(t *testing.T) {
	s := NewStore(1)
	c := circuits.C17()
	s.FaultsFor(c, fault.ModelStuckAt)
	s.SimPlanFor(c, fault.ModelStuckAt) // evicts the fault-list entry (capacity 1)
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("capacity-1 store recorded no evictions: %+v", st)
	}
}
