package shard

import (
	"context"
	"fmt"
	"testing"
	"time"

	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/faultsim"
)

// BenchmarkShardedDetect records the sharded measurement path —
// coordinator planning, transport round-trips, merge —
// against the serial engine it must match bit-for-bit.  On 1-CPU CI
// the sharded variants mostly price the coordination overhead; on real
// multicore or multi-machine setups they are the scale-out curve.
func BenchmarkShardedDetect(b *testing.B) {
	c, ok := circuits.Lookup("alu")
	if !ok {
		b.Fatal("alu missing from registry")
	}
	plan := faultsim.NewPlan(c, fault.Collapse(c))
	const patterns = 4096

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gen, err := newGenerator(len(c.Inputs), nil, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.MeasureDetection(context.Background(), gen, patterns, faultsim.Options{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers-%d", n), func(b *testing.B) {
			cfg := Config{
				Transport:     &LocalTransport{Exec: NewExecutor()},
				shardTimeout:  time.Minute,
				probeInterval: time.Hour,
			}
			for i := 0; i < n; i++ {
				cfg.Workers = append(cfg.Workers, fmt.Sprintf("w%d", i))
			}
			p := NewPool(cfg)
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.MeasureDetection(context.Background(), plan, fault.ModelStuckAt, 1, nil, patterns, faultsim.Options{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
