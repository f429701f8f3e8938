package protest

import (
	"context"
	"errors"
	"sync"
	"testing"

	"protest/internal/shard"
)

// TestSimWidthIdenticalResults pins the public width contract: every
// Session-level measurement — detection counts, coverage curves, BIST
// signatures — is bit-identical to the naive oracle's at width 0 (the
// default schedule) and at widths 1 and 8, on pattern budgets that
// end mid-block, fill whole 8-block chunks, or leave a W=1 tail.
func TestSimWidthIdenticalResults(t *testing.T) {
	counts := []int{1, 63, 65, 512, 581, 1088}
	cps := []int{10, 100, 300, 1088}
	for _, name := range BenchmarkNames() {
		c, _ := Benchmark(name)
		ref, err := Open(c, WithSeed(11), WithSimEngine(SimEngineNaive))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		wantSim := make([]*SimResult, len(counts))
		for k, n := range counts {
			if wantSim[k], err = ref.Simulate(ctx, n); err != nil {
				t.Fatal(err)
			}
		}
		wantCurve, err := ref.CoverageCurve(ctx, nil, cps)
		if err != nil {
			t.Fatal(err)
		}
		wantBIST, err := ref.RunBIST(ctx, BISTPlan{Cycles: 300})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, 1, 8} {
			s, err := Open(c, WithSeed(11), WithSimWidth(w))
			if err != nil {
				t.Fatal(err)
			}
			for k, n := range counts {
				sim, err := s.Simulate(ctx, n)
				if err != nil {
					t.Fatal(err)
				}
				if sim.Applied != wantSim[k].Applied {
					t.Fatalf("%s width %d n=%d: applied %d != %d", name, w, n, sim.Applied, wantSim[k].Applied)
				}
				for i := range wantSim[k].Detected {
					if sim.Detected[i] != wantSim[k].Detected[i] {
						t.Fatalf("%s width %d n=%d fault %d: %d != %d", name, w, n, i, sim.Detected[i], wantSim[k].Detected[i])
					}
				}
			}
			curve, err := s.CoverageCurve(ctx, nil, cps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantCurve {
				if curve[i] != wantCurve[i] {
					t.Fatalf("%s width %d: curve point %d = %+v, want %+v", name, w, i, curve[i], wantCurve[i])
				}
			}
			bist, err := s.RunBIST(ctx, BISTPlan{Cycles: 300})
			if err != nil {
				t.Fatal(err)
			}
			if *bist != *wantBIST {
				t.Fatalf("%s width %d: BIST %+v != %+v", name, w, bist, wantBIST)
			}
		}
	}
}

// TestOpenRejectsBadWidth checks unsupported widths, 4 included, fail
// at Open.
func TestOpenRejectsBadWidth(t *testing.T) {
	c, _ := Benchmark("c17")
	for _, w := range []int{3, 4} {
		if _, err := Open(c, WithSimWidth(w)); err == nil {
			t.Fatalf("width %d should be rejected at Open", w)
		}
	}
}

// TestOpenRejectsUnknownEngine checks unknown engines fail at Open, as
// unsupported widths do.
func TestOpenRejectsUnknownEngine(t *testing.T) {
	c, _ := Benchmark("c17")
	if _, err := Open(c, WithSimEngine(5)); err == nil {
		t.Fatal("engine 5 should be rejected at Open")
	}
	if _, err := Open(c, WithSimEngine(SimEngineNaive)); err != nil {
		t.Fatalf("naive engine rejected: %v", err)
	}
}

// TestPipelineSimWidthOverride checks a per-run SimWidth produces the
// same report as the Session default schedule.
func TestPipelineSimWidthOverride(t *testing.T) {
	c, _ := Benchmark("alu")
	s, err := Open(c, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Run(context.Background(), PipelineSpec{SimPatterns: 500})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 8} {
		rep, err := s.Run(context.Background(), PipelineSpec{SimPatterns: 500, SimWidth: w})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Uniform.Simulated.Coverage != ref.Uniform.Simulated.Coverage ||
			rep.Uniform.Simulated.Summary != ref.Uniform.Simulated.Summary {
			t.Fatalf("width %d: simulated report diverged from the default run", w)
		}
	}
	for _, w := range []int{4, 5} {
		if _, err := s.Run(context.Background(), PipelineSpec{SimWidth: w}); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("SimWidth %d: %v, want ErrBadSpec", w, err)
		}
	}
}

// widthRecorder runs shard requests in process and counts the widths
// they carry.
type widthRecorder struct {
	shard.LocalTransport
	mu     sync.Mutex
	widths map[int]int
}

func (r *widthRecorder) Do(ctx context.Context, addr string, req *shard.Request) (*shard.Response, error) {
	r.mu.Lock()
	r.widths[req.SimWidth]++
	r.mu.Unlock()
	return r.LocalTransport.Do(ctx, addr, req)
}

// TestShardedRunsUseRunWidth: a sharded run's shards simulate at the
// run's width, the Session's or a per-run override, for detection
// counts and coverage curves alike.
func TestShardedRunsUseRunWidth(t *testing.T) {
	c, _ := Benchmark("alu")
	for _, tc := range []struct{ session, spec, want int }{{0, 0, 0}, {8, 0, 8}, {8, 1, 1}, {0, 1, 1}} {
		rec := &widthRecorder{LocalTransport: shard.LocalTransport{Exec: shard.NewExecutor()}, widths: map[int]int{}}
		pool := NewShardPool(ShardPoolConfig{Workers: []string{"w"}, Transport: rec})
		defer pool.Close()
		s, err := Open(c, WithSimWidth(tc.session), WithShardPool(pool))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), PipelineSpec{SimPatterns: 600, SimWidth: tc.spec}); err != nil {
			t.Fatal(err)
		}
		if tc.spec == 0 {
			if _, err := s.CoverageCurve(context.Background(), nil, []int{100, 600}); err != nil {
				t.Fatal(err)
			}
		}
		if len(rec.widths) != 1 || rec.widths[tc.want] == 0 {
			t.Fatalf("session width %d, run width %d: shards ran at widths %v, want only %d",
				tc.session, tc.spec, rec.widths, tc.want)
		}
	}
}

// TestValidateSweepAtWidths is the three-oracle acceptance gate of the
// wide kernel: the full validation harness must pass with zero flags
// at every width, and the reports must agree check for check.
func TestValidateSweepAtWidths(t *testing.T) {
	for _, name := range []string{"c17", "alu", "sn7485"} {
		c, _ := Benchmark(name)
		for _, w := range []int{0, 1, 8} {
			s, err := Open(c, WithSeed(2), WithSimWidth(w))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Validate(context.Background(), ValidateSpec{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Flags) != 0 {
				t.Fatalf("%s width %d: %d validation flags, want 0: %+v", name, w, len(rep.Flags), rep.Flags)
			}
		}
	}
}
