package shard

import (
	"context"
	"testing"

	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/faultsim"
)

// newModelTask builds a Task over a non-stuck-at universe of one
// registry circuit, or nil when the universe is empty there.
func newModelTask(t *testing.T, name string, model fault.Model) *Task {
	t.Helper()
	c, ok := circuits.Lookup(name)
	if !ok {
		t.Fatalf("unknown circuit %q", name)
	}
	faults := model.Faults(c)
	if len(faults) == 0 {
		return nil
	}
	task, err := NewModelTask(faultsim.NewPlan(c, faults), model, testSeed)
	if err != nil {
		t.Fatalf("NewModelTask(%s, %s): %v", name, model, err)
	}
	return task
}

// TestShardedModelMatchesSerial extends the core exactness contract to
// the bridging and transition universes: the merged distributed
// measurement — whose wire requests carry the fault model and whose
// workers re-derive the universe from it — is bit-identical to the
// serial engine on every registry circuit and worker count, including
// a pattern count that is not a multiple of the 64-pattern block size
// (which for transition faults is also a ragged launch/capture
// schedule) and one whose one-worker shards hold whole 8-block chunks
// of the default width schedule (2048).
func TestShardedModelMatchesSerial(t *testing.T) {
	for _, model := range []fault.Model{fault.ModelBridging, fault.ModelTransition} {
		for _, name := range circuits.Names() {
			t.Run(string(model)+"/"+name, func(t *testing.T) {
				task := newModelTask(t, name, model)
				if task == nil {
					t.Skipf("%s has no %s faults", name, model)
				}
				for _, n := range []int{257, 64, 2048} {
					want := serialDetect(t, task, nil, n)
					for _, workers := range []int{1, 3} {
						if workers > 1 && n == 2048 {
							continue // one pool covers the whole-chunk shards
						}
						got, err := localPool(t, workers, nil).MeasureDetection(context.Background(), task, nil, n, 0, nil)
						if err != nil {
							t.Fatal(err)
						}
						sameDetect(t, name, got, want)
					}
				}
			})
		}
	}
}

// TestShardedModelCurveMatchesSerial repeats the coverage-curve merge
// contract on the non-stuck-at universes for a fanout-heavy circuit.
func TestShardedModelCurveMatchesSerial(t *testing.T) {
	cps := []int{10, 100, 257}
	for _, model := range []fault.Model{fault.ModelBridging, fault.ModelTransition} {
		task := newModelTask(t, "alu", model)
		if task == nil {
			t.Fatalf("alu must have %s faults", model)
		}
		p := localPool(t, 3, nil)
		got, err := p.CoverageCurve(context.Background(), task, nil, cps, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameCurve(t, string(model), got, serialCurve(t, task, nil, cps))
	}
}

// TestModelTaskWireFormat pins the backward-compatible wire contract:
// a stuck-at Task serializes the empty fault model (so pre-model
// coordinators and workers interoperate), non-stuck-at Tasks name
// theirs, and the executor rejects a request naming an unknown model.
func TestModelTaskWireFormat(t *testing.T) {
	stuck := newTestTask(t, "c17")
	if got := stuck.wireModel(); got != "" {
		t.Errorf("stuck-at wire model = %q, want empty", got)
	}
	bridge := newModelTask(t, "c17", fault.ModelBridging)
	if got := bridge.wireModel(); got != "bridging" {
		t.Errorf("bridging wire model = %q", got)
	}

	exec := NewExecutor()
	req := Request{Kind: KindDetect, FaultModel: "wombat"}
	if _, err := exec.Run(context.Background(), &req); err == nil {
		t.Error("unknown wire fault model must be rejected")
	}
}
