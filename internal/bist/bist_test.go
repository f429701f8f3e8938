package bist

import (
	"context"
	"fmt"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/pattern"
)

func TestMISRBasics(t *testing.T) {
	m, err := NewMISR(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Signature() != 0 {
		t.Error("fresh MISR should hold the seed")
	}
	m.Clock(0xFFFF)
	if m.Signature() == 0 {
		t.Error("clocking input must change the state")
	}
	m.Reset(0xABCD)
	if m.Signature() != 0xABCD {
		t.Error("reset failed")
	}
	if _, err := NewMISR(7, 0); err == nil {
		t.Error("unsupported width must fail")
	}
	if b := m.AliasingBound(); b <= 0 || b > 1.0/65536+1e-12 {
		t.Errorf("aliasing bound %v", b)
	}
}

// The taps of pattern.Taps are primitive: an MISR clocked with zero
// input is the maximal-length LFSR, so from seed 1 it returns to 1
// after exactly 2^w - 1 clocks and no earlier.
func TestMISRZeroInputPeriod(t *testing.T) {
	for _, w := range []uint{4, 8, 16} {
		m, err := NewMISR(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(1)<<w - 1
		var n uint64
		for n = 1; n <= want; n++ {
			m.Clock(0)
			if m.Signature() == 1 {
				break
			}
		}
		if n != want {
			t.Errorf("width %d: seed 1 recurs after %d clocks, want %d", w, n, want)
		}
	}
}

func TestMISRDeterministic(t *testing.T) {
	a, _ := NewMISR(16, 1)
	b, _ := NewMISR(16, 1)
	for i := uint64(0); i < 100; i++ {
		a.Clock(i * 7)
		b.Clock(i * 7)
	}
	if a.Signature() != b.Signature() {
		t.Error("same stream must give same signature")
	}
	c, _ := NewMISR(16, 1)
	for i := uint64(0); i < 100; i++ {
		v := i * 7
		if i == 50 {
			v ^= 1 // single-bit error
		}
		c.Clock(v)
	}
	if c.Signature() == a.Signature() {
		t.Error("single-bit error must change the signature (primitive polynomial)")
	}
}

func TestFoldWideOutputs(t *testing.T) {
	m, _ := NewMISR(4, 0)
	// 8 input bits fold onto 4 stages by XOR.
	m.Clock(0b10011001) // folds to 1001^1001 = 0000
	m2, _ := NewMISR(4, 0)
	m2.Clock(0)
	if m.Signature() != m2.Signature() {
		t.Error("folding XOR semantics violated")
	}
}

// run runs one self test on a fresh Program over (c, faults).
func run(c *circuit.Circuit, faults []fault.Fault, gen *pattern.Generator, plan Plan) (*Result, error) {
	return NewProgram(c, faults, nil).Run(context.Background(), gen, plan, faultsim.EngineFFR, nil)
}

func TestRunC17FullCoverage(t *testing.T) {
	c := circuits.C17()
	faults := fault.Collapse(c)
	gen := pattern.NewUniform(len(c.Inputs), 3)
	res, err := run(c, faults, gen, Plan{Cycles: 512, MISRWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 1 {
		t.Errorf("c17 BIST coverage %.3f < 1 after 512 cycles (aliased: %d)", res.Coverage(), res.Aliased)
	}
	if res.Cycles != 512 || res.Faults != len(faults) {
		t.Error("bookkeeping wrong")
	}
}

// Signature detection can never exceed output detection, and the
// aliasing count is their difference.
func TestRunAliasingAccounting(t *testing.T) {
	c := circuits.ALU74181()
	faults := fault.Collapse(c)
	gen := pattern.NewUniform(len(c.Inputs), 7)
	res, err := run(c, faults, gen, Plan{Cycles: 320, MISRWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected+res.Aliased != res.OutputDetected {
		t.Errorf("accounting: det %d + aliased %d != outputDet %d", res.Detected, res.Aliased, res.OutputDetected)
	}
	if res.OutputDetected > len(faults) {
		t.Error("impossible detection count")
	}
}

// The signature-based detection must agree with plain fault simulation
// up to aliasing: OutputDetected equals the fault simulator's count.
func TestRunMatchesFaultSimulation(t *testing.T) {
	c := circuits.C17()
	faults := fault.Collapse(c)
	cycles := 128
	genA := pattern.NewUniform(len(c.Inputs), 9)
	res, err := run(c, faults, genA, Plan{Cycles: cycles, MISRWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	genB := pattern.NewUniform(len(c.Inputs), 9)
	sim, err := faultsim.NewPlan(c, faults).MeasureDetection(context.Background(), genB, cycles, faultsim.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	simDetected := 0
	for i := range faults {
		if sim.Detected[i] > 0 {
			simDetected++
		}
	}
	if res.OutputDetected != simDetected {
		t.Errorf("BIST output-detected %d != fault-sim %d", res.OutputDetected, simDetected)
	}
}

// Weighted stimulus: an optimized tuple must reach coverage on the
// equality-dominated comparator leaf faster than uniform patterns.
func TestWeightedBeatsUniformOnEqualityLogic(t *testing.T) {
	c := circuits.SN7485()
	faults := fault.Collapse(c)
	cycles := 96
	genU := pattern.NewUniform(len(c.Inputs), 21)
	resU, err := run(c, faults, genU, Plan{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	// Favour equal operands: push the EQIN cascade high and keep data
	// mildly biased (a hand-made weighted tuple).
	weights := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.25, 0.9, 0.25}
	genW, err := pattern.NewWeighted(weights, 21)
	if err != nil {
		t.Fatal(err)
	}
	resW, err := run(c, faults, genW, Plan{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	if resW.Coverage()+0.05 < resU.Coverage() {
		t.Errorf("weighted %.3f clearly worse than uniform %.3f", resW.Coverage(), resU.Coverage())
	}
}

func TestRunValidation(t *testing.T) {
	c := circuits.C17()
	gen := pattern.NewUniform(2, 1)
	if _, err := run(c, fault.Collapse(c), gen, Plan{}); err == nil {
		t.Error("input-count mismatch must fail")
	}
	gen2 := pattern.NewUniform(len(c.Inputs), 1)
	if _, err := run(c, fault.Collapse(c), gen2, Plan{MISRWidth: 9}); err == nil {
		t.Error("unsupported MISR width must fail")
	}
	if _, err := NewProgram(c, fault.Collapse(c), nil).Run(context.Background(), gen2, Plan{}, 9, nil); err == nil {
		t.Error("unknown engine must fail")
	}
}

// TestRunNegativeCycles: a negative cycle count is an error, for both
// engines, and runs no self test.  It used to run the 1024-cycle
// default, as 0 does.
func TestRunNegativeCycles(t *testing.T) {
	c := circuits.C17()
	prog := NewProgram(c, fault.Collapse(c), nil)
	for _, eng := range []faultsim.EngineKind{faultsim.EngineFFR, faultsim.EngineNaive} {
		res, err := prog.Run(context.Background(), pattern.NewUniform(len(c.Inputs), 1), Plan{Cycles: -5}, eng, nil)
		if err == nil || res != nil {
			t.Errorf("%v: Run with -5 cycles = %+v, %v; want an error", eng, res, err)
		}
	}
}

func TestRunDefaults(t *testing.T) {
	c := circuits.C17()
	gen := pattern.NewUniform(len(c.Inputs), 1)
	res, err := run(c, fault.Collapse(c), gen, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 1024 {
		t.Errorf("default cycles = %d", res.Cycles)
	}
}

// checkSignatureIdentity runs the same self-test session on the FFR
// engine and on the naive oracle and requires identical results down
// to the signature: same good signature, same per-category counts.
func checkSignatureIdentity(t *testing.T, c *circuit.Circuit, faults []fault.Fault, cycles []int) {
	t.Helper()
	prog := NewProgram(c, faults, nil)
	for _, n := range cycles {
		plan := Plan{Cycles: n, MISRWidth: 16, MISRSeed: 5}
		naive, err := prog.Run(context.Background(), pattern.NewUniform(len(c.Inputs), 9), plan, faultsim.EngineNaive, nil)
		if err != nil {
			t.Fatal(err)
		}
		ffr, err := prog.Run(context.Background(), pattern.NewUniform(len(c.Inputs), 9), plan, faultsim.EngineFFR, nil)
		if err != nil {
			t.Fatal(err)
		}
		if *ffr != *naive {
			t.Fatalf("%s cycles=%d: FFR result %+v != naive %+v", c.Name, n, ffr, naive)
		}
	}
}

// TestEngineSignatureIdentity pins the FFR engine's self test to the
// naive oracle's on c17, the ALU and a random circuit.  The cycle
// counts fill part of one capture chunk (64, 100, 257), exactly one
// (512), one and one cycle of the next (513), or end mid-block in the
// second chunk (1000).
func TestEngineSignatureIdentity(t *testing.T) {
	for _, build := range []func() *circuit.Circuit{circuits.C17, circuits.ALU74181, func() *circuit.Circuit {
		return circuits.Random(circuits.RandomOptions{Inputs: 10, Gates: 90, Outputs: 5, Seed: 17})
	}} {
		c := build()
		checkSignatureIdentity(t, c, fault.Collapse(c), []int{64, 100, 257, 512, 513, 1000})
	}
}

// TestWideSignatureIdentity pins the chunked capture to the naive
// oracle over the whole registry: the complete self-test result must
// be identical, including cycle counts that end mid-word (100, 257)
// and one full chunk followed by a padded one (600: a 2-block chunk
// whose last block keeps 24 cycles).
func TestWideSignatureIdentity(t *testing.T) {
	for _, name := range circuits.Names() {
		c, _ := circuits.Lookup(name)
		checkSignatureIdentity(t, c, fault.Collapse(c), []int{100, 257, 600})
	}
}

// FuzzSignatures is the differential check of the chunked capture
// loop on random circuits: for a circuits.Random topology (up to 30
// inputs, n-ary gates up to 9 pins, and outputs that also fan out), a
// fault model and a cycle count from 1 to 1,100 drawn from the input,
// the FFR engine's self-test result must equal the naive oracle's.
// The seeds run 1, 64, 65, 511, 512, 513 and 1000 cycles, so plain go
// test covers a single cycle, padded chunks, a chunk whose last block
// is masked, a full chunk and a chunk boundary; run the fuzzer with
//
//	go test -fuzz FuzzSignatures -run '^$' ./internal/bist
func FuzzSignatures(f *testing.F) {
	for i, n := range []uint16{1, 64, 65, 511, 512, 513, 1000} {
		j := uint8(i)
		f.Add(uint64(i+1), 4+3*j, 30+25*j, 7-j, 2+j, 4*j, j, n-1)
	}
	f.Fuzz(func(t *testing.T, seed uint64, inputs, gates, maxArity, outputs, locality, model uint8, cycles uint16) {
		c := circuits.Random(circuits.RandomOptions{
			Inputs:   2 + int(inputs%29),
			Gates:    1 + int(gates),
			MaxArity: 2 + int(maxArity%8),
			Outputs:  int(outputs % 16),
			Seed:     seed,
			Locality: 1 + int(locality%64),
		})
		m := fault.Models()[int(model)%len(fault.Models())]
		checkSignatureIdentity(t, c, m.Faults(c), []int{1 + int(cycles)%1100})
	})
}

// BenchmarkRunBIST times one self test per op, Program.Run from a fresh
// uniform generator on the FFR engine, over the circuits, fault models
// and cycle counts of the optimize-bist benchmark workload.  MISR
// clocking is most of each op.
func BenchmarkRunBIST(b *testing.B) {
	for _, name := range []string{"alu", "cla16", "sn7485", "c432", "c499", "add8"} {
		c, _ := circuits.Lookup(name)
		for _, m := range []fault.Model{fault.ModelStuckAt, fault.ModelTransition} {
			prog := NewProgram(c, m.Faults(c), nil)
			for _, cycles := range []int{1024, 4096} {
				b.Run(fmt.Sprintf("%s/%s/%d", name, m, cycles), func(b *testing.B) {
					run := func() {
						gen := pattern.NewUniform(len(c.Inputs), 1)
						if _, err := prog.Run(context.Background(), gen, Plan{Cycles: cycles}, faultsim.EngineFFR, nil); err != nil {
							b.Fatal(err)
						}
					}
					run() // builds the plan and compiles the circuit
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						run()
					}
				})
			}
		}
	}
}
