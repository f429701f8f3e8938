package pattern

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d equal words out of 100", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed must still produce a live stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestBiasedWordExtremes(t *testing.T) {
	r := NewRNG(1)
	if r.BiasedWord(0) != 0 {
		t.Error("p=0 must give all zeros")
	}
	if r.BiasedWord(1) != ^uint64(0) {
		t.Error("p=1 must give all ones")
	}
}

// Empirical bit frequency of BiasedWord must approach p.
func TestBiasedWordFrequency(t *testing.T) {
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.94} {
		r := NewRNG(uint64(p * 1000))
		ones := 0
		const blocks = 2000
		for i := 0; i < blocks; i++ {
			ones += bits.OnesCount64(r.BiasedWord(p))
		}
		got := float64(ones) / (64 * blocks)
		// 64*2000 = 128000 samples; tolerance ~4 sigma.
		sigma := math.Sqrt(p * (1 - p) / (64 * blocks))
		if math.Abs(got-p) > 4*sigma+1e-9 {
			t.Errorf("p=%v: measured %v (|Δ|=%.5f > %.5f)", p, got, math.Abs(got-p), 4*sigma)
		}
	}
}

func TestGeneratorUniform(t *testing.T) {
	g := NewUniform(3, 9)
	if g.NumInputs() != 3 {
		t.Fatal("NumInputs wrong")
	}
	for _, p := range g.Probs() {
		if p != 0.5 {
			t.Fatal("uniform generator must use 0.5 everywhere")
		}
	}
	words := make([]uint64, 3)
	g.NextBlock(words)
	if words[0] == words[1] && words[1] == words[2] {
		t.Error("input streams should be independent")
	}
}

func TestGeneratorWeightedValidation(t *testing.T) {
	if _, err := NewWeighted([]float64{0.5, 1.5}, 1); err == nil {
		t.Error("p>1 must be rejected")
	}
	if _, err := NewWeighted([]float64{-0.1}, 1); err == nil {
		t.Error("p<0 must be rejected")
	}
	if _, err := NewWeighted([]float64{math.NaN()}, 1); err == nil {
		t.Error("NaN must be rejected")
	}
	g, err := NewWeighted([]float64{0.25, 0.75}, 1)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, 2)
	ones := [2]int{}
	for i := 0; i < 500; i++ {
		g.NextBlock(words)
		ones[0] += bits.OnesCount64(words[0])
		ones[1] += bits.OnesCount64(words[1])
	}
	f0 := float64(ones[0]) / (64 * 500)
	f1 := float64(ones[1]) / (64 * 500)
	if math.Abs(f0-0.25) > 0.02 || math.Abs(f1-0.75) > 0.02 {
		t.Errorf("weighted frequencies %v %v", f0, f1)
	}
}

func TestGeneratorNextBlockPanics(t *testing.T) {
	g := NewUniform(2, 3)
	defer func() {
		if recover() == nil {
			t.Error("NextBlock with wrong length should panic")
		}
	}()
	g.NextBlock(make([]uint64, 1))
}

func TestQuantizeGrid(t *testing.T) {
	in := []float64{0.0, 0.03, 0.5, 0.62, 0.94, 1.0}
	out := QuantizeGrid(in, 16)
	want := []float64{1.0 / 16, 1.0 / 16, 8.0 / 16, 10.0 / 16, 15.0 / 16, 15.0 / 16}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("QuantizeGrid[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestQuantizeGridEdgeGrids(t *testing.T) {
	in := []float64{0.0, 0.03, 0.5, 0.62, 0.94, 1.0}
	cases := []struct {
		name string
		grid int
		want []float64
	}{
		// grid <= 1 has no lattice point inside (0,1): no quantization.
		{"negative", -1, in},
		{"zero", 0, in},
		{"one", 1, in},
		// grid = 2 is the smallest real lattice: everything snaps to 1/2.
		{"two", 2, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}},
		// grid = 16 is the paper's Table 4 lattice.
		{"sixteen", 16, []float64{1.0 / 16, 1.0 / 16, 8.0 / 16, 10.0 / 16, 15.0 / 16, 15.0 / 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := QuantizeGrid(in, tc.grid)
			if len(out) != len(in) {
				t.Fatalf("QuantizeGrid(len %d, grid %d) returned len %d", len(in), tc.grid, len(out))
			}
			for i := range tc.want {
				if math.Abs(out[i]-tc.want[i]) > 1e-12 {
					t.Errorf("QuantizeGrid(grid %d)[%d] = %v, want %v", tc.grid, i, out[i], tc.want[i])
				}
				if math.IsNaN(out[i]) || math.IsInf(out[i], 0) || out[i] < 0 || out[i] > 1 {
					t.Errorf("QuantizeGrid(grid %d)[%d] = %v is not a probability", tc.grid, i, out[i])
				}
			}
			// The result must always be a fresh slice: quantized tuples
			// feed generators and reports that outlive the input.
			if len(in) > 0 && &out[0] == &in[0] {
				t.Errorf("QuantizeGrid(grid %d) aliases its input", tc.grid)
			}
		})
	}
}

func TestQuantizeGridProperty(t *testing.T) {
	f := func(raw uint16) bool {
		p := float64(raw) / 65535
		q := QuantizeGrid([]float64{p}, 16)[0]
		k := q * 16
		return q >= 1.0/16 && q <= 15.0/16 && math.Abs(k-math.Round(k)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
