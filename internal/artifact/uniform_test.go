package artifact

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"protest/internal/circuits"
	"protest/internal/core"
	"protest/internal/fault"
	"protest/internal/testlen"
)

// The uniform analysis and each model's test-length set are store
// entries: built once, counted as builds, then served as hits, and
// bit-identical to a direct pass.
func TestUniformAndTestLenBuildOnce(t *testing.T) {
	s := NewStore(16)
	c := circuits.C17()
	ctx := context.Background()
	params := core.DefaultParams()
	var events []float64
	progress := func(frac float64) { events = append(events, frac) }

	res, err := s.Uniform(ctx, c, params, progress)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Builds != 2 {
		t.Fatalf("cold Uniform: %+v, want 2 builds (program, analysis)", st)
	}
	if !reflect.DeepEqual(events, []float64{0, 1}) {
		t.Fatalf("cold Uniform reported %v, want [0 1]", events)
	}
	prog, err := core.NewProgram(c, params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prog.Run(ctx, core.UniformProbs(c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Prob, want.Prob) || !reflect.DeepEqual(res.Obs, want.Obs) {
		t.Fatal("stored uniform analysis differs from a direct pass")
	}

	events = nil
	again, err := s.Uniform(ctx, circuits.C17(), params, progress)
	if err != nil {
		t.Fatal(err)
	}
	if again != res || events != nil {
		t.Fatalf("warm Uniform from an equal circuit: same %v, events %v; want the shared analysis and no events", again == res, events)
	}

	for _, m := range fault.Models() {
		before := s.Stats().Builds
		tl, err := s.TestLenFor(ctx, c, params, m)
		if err != nil {
			t.Fatal(err)
		}
		if n := s.Stats().Builds - before; n != 2 {
			t.Fatalf("%s: cold TestLenFor built %d artifacts, want 2 (fault list, set)", m, n)
		}
		faults := s.FaultsFor(c, m)
		detect := want.DetectProbs(faults)
		if !reflect.DeepEqual(tl.Set.Probs(), detect) {
			t.Fatalf("%s: stored set holds other probabilities than the analysis", m)
		}
		wantN, wantErr := testlen.RequiredFraction(detect, 1, 0.95)
		if n, err := tl.Set.RequiredFraction(1, 0.95); n != wantN || (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: stored set answers N = %d, %v; want %d, %v", m, n, err, wantN, wantErr)
		}
		for i, p := range detect {
			if p < detect[tl.Hardest] || (p == detect[tl.Hardest] && i < tl.Hardest) {
				t.Fatalf("%s: hardest fault %d, but fault %d is harder or first", m, tl.Hardest, i)
			}
		}
		before = s.Stats().Builds
		if again, err := s.TestLenFor(ctx, c, params, m); err != nil || again != tl {
			t.Fatalf("%s: warm TestLenFor = %v, %v; want the shared set", m, again == tl, err)
		}
		if n := s.Stats().Builds - before; n != 0 {
			t.Fatalf("%s: warm TestLenFor built %d artifacts", m, n)
		}
	}
}

// A circuit fully warm under the three fault models holds 11 entries,
// the count the package doc states.
func TestWarmCircuitEntries(t *testing.T) {
	s := NewStore(DefaultCapacity)
	c := circuits.C17()
	params := core.DefaultParams()
	if _, err := s.Program(c, params); err != nil {
		t.Fatal(err)
	}
	for _, m := range fault.Models() {
		if _, err := s.TestLenFor(context.Background(), c, params, m); err != nil {
			t.Fatal(err)
		}
		s.SimPlanFor(c, m)
	}
	if got := s.Len(); got != 11 {
		t.Fatalf("warm circuit holds %d entries, want 11", got)
	}
}

// A caller whose context is done gets ctx.Err() and starts no build.
func TestUniformCanceledCaller(t *testing.T) {
	s := NewStore(16)
	c := circuits.C17()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Uniform(ctx, c, core.DefaultParams(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Uniform under a canceled context: %v, want context.Canceled", err)
	}
	if _, err := s.TestLenFor(ctx, c, core.DefaultParams(), fault.ModelStuckAt); !errors.Is(err, context.Canceled) {
		t.Fatalf("TestLenFor under a canceled context: %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Builds != 0 {
		t.Fatalf("canceled callers built artifacts: %+v", st)
	}
}

// A uniform build whose first caller is canceled mid-build still
// answers a concurrent caller whose context is live: the pass runs
// under no caller's context, and only the canceled caller sees its
// cancellation.
func TestUniformCanceledFirstCallerSparesLiveCaller(t *testing.T) {
	s := NewStore(16)
	c := circuits.Mult8()
	params := core.DefaultParams()
	first, cancel := context.WithCancel(context.Background())
	type answer struct {
		res *core.Analysis
		err error
	}
	live := make(chan answer, 1)
	s.testHookUniform = func() {
		s.testHookUniform = nil // the live caller waits; it builds nothing
		cancel()
		hits := s.Stats().Hits
		go func() {
			res, err := s.Uniform(context.Background(), c, params, nil)
			live <- answer{res, err}
		}()
		// Keep the build in flight until the live caller waits on it.
		deadline := time.Now().Add(10 * time.Second)
		for s.Stats().Hits == hits && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := s.Uniform(first, c, params, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled first caller: %v, want context.Canceled", err)
	}
	got := <-live
	if got.err != nil || got.res == nil {
		t.Fatalf("live caller: %v, %v; want the analysis", got.res, got.err)
	}
	if st := s.Stats(); st.Builds != 2 || st.BuildErrors != 0 {
		t.Fatalf("stats %+v, want 2 builds (program, analysis) and no failed build", st)
	}
}
