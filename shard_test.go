package protest

import (
	"context"
	"reflect"
	"testing"

	"protest/internal/artifact"
	"protest/internal/circuits"
	"protest/internal/shard"
)

// inProcessPool is a shard pool whose workers run in this process.
func inProcessPool(t *testing.T, workers ...string) *ShardPool {
	t.Helper()
	pool := NewShardPool(ShardPoolConfig{Workers: workers, Transport: &shard.LocalTransport{Exec: shard.NewExecutor()}})
	t.Cleanup(pool.Close)
	return pool
}

// TestShardedTableCircuitRunsLocally: a circuit with truth-table gates
// has no .bench form, so a sharded Session runs it locally, with
// healthy workers or none: Simulate, CoverageCurve and Run give the
// unsharded Session's results, and no shard is sent.
func TestShardedTableCircuitRunsLocally(t *testing.T) {
	c := circuits.Tables()

	ctx := context.Background()
	cps := []int{100, 1000}
	spec := PipelineSpec{Optimize: true, SimPatterns: 1000}
	ref, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	wantSim, err := ref.Simulate(ctx, 1000)
	if err != nil {
		t.Fatal(err)
	}
	wantCurve, err := ref.CoverageCurve(ctx, nil, cps)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := ref.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range [][]string{nil, {"w"}} {
		pool := inProcessPool(t, workers...)
		s, err := Open(c, WithShardPool(pool))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := s.Simulate(ctx, 1000)
		if err != nil {
			t.Fatalf("%d workers: Simulate: %v", len(workers), err)
		}
		curve, err := s.CoverageCurve(ctx, nil, cps)
		if err != nil {
			t.Fatalf("%d workers: CoverageCurve: %v", len(workers), err)
		}
		rep, err := s.Run(ctx, spec)
		if err != nil {
			t.Fatalf("%d workers: Run: %v", len(workers), err)
		}
		if !reflect.DeepEqual(sim, wantSim) || !reflect.DeepEqual(curve, wantCurve) || !reflect.DeepEqual(rep, wantRep) {
			t.Fatalf("%d workers: sharded results differ from the unsharded Session's", len(workers))
		}
		if st := pool.Stats(); st.Shards != 0 || st.LocalFallbacks != 0 {
			t.Fatalf("%d workers: shards were sent: %+v", len(workers), st)
		}
	}
}

// TestShardedSimulateAddsNoBuilds: a worker decodes the coordinator's
// circuit node for node, so an in-process worker resolves the
// Session's own interned circuit and plan.  After a local Simulate has
// warmed alu, opening a sharded Session on it and simulating builds no
// artifact at all, and the counts are the local ones.
func TestShardedSimulateAddsNoBuilds(t *testing.T) {
	c, _ := Benchmark("alu")
	ctx := context.Background()
	local, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Simulate(ctx, 2048)
	if err != nil {
		t.Fatal(err)
	}

	pool := inProcessPool(t, "w")
	before := artifact.Default.Stats().Builds
	s, err := Open(c, WithShardPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Simulate(ctx, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if n := artifact.Default.Stats().Builds - before; n != 0 {
		t.Fatalf("the sharded Simulate built %d artifacts, want 0", n)
	}
	if st := pool.Stats(); st.Shards == 0 || st.LocalFallbacks != 0 {
		t.Fatalf("the shards did not all run on the worker: %+v", st)
	}
	if !reflect.DeepEqual(got.Detected, want.Detected) {
		t.Fatal("sharded counts differ from the local ones")
	}
}
