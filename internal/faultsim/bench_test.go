package faultsim

import (
	"context"
	"fmt"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/pattern"
)

// benchBlockFFR times one 64-pattern block over the fault list on the
// FFR engine at W=1, the width BIST capture runs at — the unit of work
// the FFR engine and the naive oracle share.
// The FFR engine's per-block cost is O(gates + Σ stem regions) while
// the naive oracle pays O(faults × cone), so the ratio widens with
// circuit size and fanout density.
func benchBlockFFR(b *testing.B, c *circuit.Circuit, faults []fault.Fault) {
	e := NewPlan(c, faults).AcquireWideEngine(1)
	defer e.Release()
	gen := pattern.NewUniform(len(c.Inputs), 1)
	words := make([]uint64, len(c.Inputs))
	det := make([]uint64, len(faults))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.NextBlock(words)
		e.SimulateChunk(words, det, nil)
	}
}

// benchBlockWide times 512 patterns per op through the FFR engine at
// width w — equal work at every width, so per-op times compare
// directly across widths (the plain "ffr" runs time one block).
func benchBlockWide(b *testing.B, c *circuit.Circuit, w int) {
	faults := fault.Collapse(c)
	plan := NewPlan(c, faults)
	e := plan.AcquireWideEngine(w)
	defer e.Release()
	gen := pattern.NewUniform(len(c.Inputs), 1)
	words := make([]uint64, len(c.Inputs)*w)
	det := make([]uint64, len(faults)*w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for blk := 0; blk < 8; blk += w {
			gen.NextBlocks(words, w, w)
			e.SimulateChunk(words, det, nil)
		}
	}
}

func benchBlockNaive(b *testing.B, c *circuit.Circuit, faults []fault.Fault) {
	s := New(c)
	gen := pattern.NewUniform(len(c.Inputs), 1)
	words := make([]uint64, len(c.Inputs))
	det := make([]uint64, len(faults))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.NextBlock(words)
		s.SimulateBlock(words, faults, det)
	}
}

// BenchmarkBlockEngines compares the engines per block on the paper
// circuits and the largest ISCAS-style ones.
func BenchmarkBlockEngines(b *testing.B) {
	c880, _ := circuits.Lookup("c880")
	c1355, _ := circuits.Lookup("c1355")
	for _, c := range []*circuit.Circuit{circuits.Mult8(), circuits.Div16(), circuits.Comp24(), c880, c1355} {
		faults := fault.Collapse(c)
		b.Run(c.Name+"/ffr", func(b *testing.B) { benchBlockFFR(b, c, faults) })
		b.Run(c.Name+"/naive", func(b *testing.B) { benchBlockNaive(b, c, faults) })
		for _, w := range wideWidths {
			b.Run(fmt.Sprintf("%s/wide-w%d", c.Name, w), func(b *testing.B) { benchBlockWide(b, c, w) })
		}
	}
}

// BenchmarkBlockEnginesBridging times the per-block cost of the
// bridging universe on both engines: every bridge fault pays one
// extra AND against its aggressor's fault-free word on top of the
// shared stuck-at reduction, and the universe itself is larger than
// the collapsed stuck-at list, so this tracks the conditional-
// activation overhead the fault-model layer added to the hot kernel.
func BenchmarkBlockEnginesBridging(b *testing.B) {
	for _, mk := range []func() *circuit.Circuit{circuits.Mult8, circuits.Div16, circuits.Comp24} {
		c := mk()
		faults := fault.ModelBridging.Faults(c)
		b.Run(c.Name+"/ffr", func(b *testing.B) { benchBlockFFR(b, c, faults) })
		b.Run(c.Name+"/naive", func(b *testing.B) { benchBlockNaive(b, c, faults) })
	}
}

// BenchmarkBlockFanoutHeavy scales a fanout-heavy random circuit to
// expose the asymptotic separation: the naive engine's per-block cost
// grows with faults × cone while the FFR engine grows with the gate
// count.
func BenchmarkBlockFanoutHeavy(b *testing.B) {
	for _, gates := range []int{250, 1000} {
		c := circuits.Random(circuits.RandomOptions{
			Inputs:   32,
			Gates:    gates,
			Outputs:  8,
			Seed:     42,
			MaxArity: 3,
			Locality: 64,
		})
		faults := fault.Collapse(c)
		b.Run(fmt.Sprintf("gates=%d/ffr", gates), func(b *testing.B) { benchBlockFFR(b, c, faults) })
		b.Run(fmt.Sprintf("gates=%d/naive", gates), func(b *testing.B) { benchBlockNaive(b, c, faults) })
	}
}

// BenchmarkMeasureDetection times a whole stuck-at measurement on the
// default schedule at budgets that end in a partial chunk: 300
// patterns are 5 blocks, 960 are 15, and a 64-pattern run is one
// block in a chunk of eight lanes.
func BenchmarkMeasureDetection(b *testing.B) {
	c880, _ := circuits.Lookup("c880")
	c1355, _ := circuits.Lookup("c1355")
	for _, tc := range []struct {
		c        *circuit.Circuit
		patterns int
	}{
		{circuits.Mult8(), 300}, {circuits.Mult8(), 960},
		{c1355, 300}, {c1355, 960},
		{c880, 64},
	} {
		plan := NewPlan(tc.c, fault.Collapse(tc.c))
		b.Run(fmt.Sprintf("%s/%d", tc.c.Name, tc.patterns), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gen := pattern.NewUniform(len(tc.c.Inputs), 1)
				if _, err := plan.MeasureDetection(context.Background(), gen, tc.patterns, Options{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
