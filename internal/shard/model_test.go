package shard

import (
	"context"
	"sync"
	"testing"

	"protest/internal/circuits"
	"protest/internal/fault"
)

// TestShardedModelMatchesSerial extends the core exactness contract to
// the bridging and transition universes: the merged distributed
// measurement — whose wire requests carry the fault model and whose
// workers re-derive the universe from it — is bit-identical to the
// serial engine on every registry circuit and worker count, including
// a pattern count that is not a multiple of the 64-pattern block size
// (which for transition faults is also a ragged launch/capture
// schedule) and one whose one-worker shards hold whole 8-block chunks
// (2048).
func TestShardedModelMatchesSerial(t *testing.T) {
	for _, model := range []fault.Model{fault.ModelBridging, fault.ModelTransition} {
		for _, name := range circuits.Names() {
			t.Run(string(model)+"/"+name, func(t *testing.T) {
				run, ok := newModelRun(t, name, model)
				if !ok {
					t.Skipf("%s has no %s faults", name, model)
				}
				for _, n := range []int{257, 64, 2048} {
					want := serialDetect(t, run, nil, n)
					for _, workers := range []int{1, 3} {
						if workers > 1 && n == 2048 {
							continue // one pool covers the whole-chunk shards
						}
						got, err := run.detect(localPool(t, workers, nil), nil, n)
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
		run, ok := newModelRun(t, "alu", model)
		if !ok {
			t.Fatalf("alu must have %s faults", model)
		}
		p := localPool(t, 3, nil)
		got, err := run.curve(p, nil, cps)
		if err != nil {
			t.Fatal(err)
		}
		sameCurve(t, string(model), got, serialCurve(t, run, nil, cps))
	}
}

// TestModelWireFormat: every request names the run's fault model, from
// which workers derive the coordinator's universe, and the executor
// rejects a request naming an unknown model.
func TestModelWireFormat(t *testing.T) {
	for _, model := range []fault.Model{fault.ModelStuckAt, fault.ModelBridging} {
		var mu sync.Mutex
		seen := map[string]int{}
		p := localPool(t, 2, func(cfg *Config) {
			cfg.Transport = &corruptTransport{inner: &LocalTransport{Exec: NewExecutor()}, mutate: func(req *Request, _ *Response) {
				mu.Lock()
				seen[req.FaultModel]++
				mu.Unlock()
			}}
		})
		run, _ := newModelRun(t, "c17", model)
		if _, err := run.detect(p, nil, 128); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 1 || seen[string(model)] == 0 {
			t.Errorf("%s run sent fault models %v", model, seen)
		}
	}

	exec := NewExecutor()
	req := Request{Kind: KindDetect, FaultModel: "wombat"}
	if _, err := exec.Run(context.Background(), &req); err == nil {
		t.Error("unknown wire fault model must be rejected")
	}
}
