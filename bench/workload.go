package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"protest"
	"protest/internal/server"
)

// clients is the number of closed-loop clients per workload: one per
// core of the 2-core reference box, each on its own keep-alive
// connection.
const clients = 2

// request is one generated call: the endpoint, the exact body sent, and
// the (circuit, model) it exercises, which the warm-up pass and the
// tests key on.
type request struct {
	Path    string
	Body    []byte
	Circuit string
	Model   string
	// Warm marks the first variant of its (circuit, model) in the
	// canonical combo order, the one the warm-up pass sends.
	Warm bool
}

// workload is one traffic mix.  combos returns one client's block:
// every request variant of the mix once, in a fixed canonical order.
// Seeded draws inside a block (weighted tuples, which request of a
// group goes inline) come from the generator's rng, which then
// shuffles the block, so any whole number of blocks carries the same
// work whatever the seed; a seed changes only the order and the drawn
// values.
type workload struct {
	name    string
	sharded bool
	// gen names the generator stream; pipeline-sharded replays
	// pipeline-sim's stream so the two differ only in the shard layer.
	gen    string
	combos func(g *generator, client int) []request
	// rate is each client's request rate (requests/s): the median over
	// ten seeds on the 2-core reference box.  It sizes the fixed work
	// of a run so that the window lasts about -seconds there.
	rate [clients]float64
}

var models = []string{"stuck-at", "transition", "bridging"}

// workloads lists the benchmark's traffic mixes; README.md gives the
// reason for each.
var workloads = []*workload{
	{
		name:   "analyze-mixed",
		gen:    "analyze-mixed",
		combos: analyzeCombos,
		rate:   [clients]float64{204, 204},
	},
	{
		name:   "pipeline-sim",
		gen:    "pipeline",
		combos: pipelineCombos,
		rate:   [clients]float64{78, 111},
	},
	{
		name:    "pipeline-sharded",
		sharded: true,
		gen:     "pipeline",
		combos:  pipelineCombos,
		rate:    [clients]float64{44, 47},
	},
	{
		name:   "optimize-bist",
		gen:    "optimize-bist",
		combos: optimizeCombos,
		rate:   [clients]float64{2.9, 3.4},
	},
	{
		name:   "validate-mc",
		gen:    "validate-mc",
		combos: validateCombos,
		rate:   [clients]float64{2.8, 3.1},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// minSamples keeps at least ten samples beyond the reported p90.
const minSamples = 100

// generator carries one client's seeded stream plus per-circuit data
// that is costly to rebuild for every block.
type generator struct {
	rng      *rand.Rand
	seed     uint64
	tuples   map[string][][]float64
	netlists map[string]server.CircuitRef
}

func newGenerator(seed uint64, rng *rand.Rand) *generator {
	return &generator{rng: rng, seed: seed, tuples: map[string][][]float64{}, netlists: map[string]server.CircuitRef{}}
}

// canonical returns client's unshuffled block as drawn from a fixed
// stream, the same for every seed except for seeded values.
func (w *workload) canonical(seed uint64, client int) []request {
	return w.combos(newGenerator(seed, rand.New(rand.NewPCG(0, 0))), client)
}

// sequences generates every client's request sequence: whole shuffled
// blocks, as many as the client drains in about seconds at its
// reference rate and at least minSamples requests overall.
// perClient > 0 replaces that sizing with a fixed count (the smoke
// tests send a handful).
func (w *workload) sequences(seed uint64, seconds float64, perClient int) [clients][]request {
	var sizes, blocks [clients]int
	total := 0
	for c := range sizes {
		sizes[c] = len(w.canonical(seed, c))
		if perClient > 0 {
			blocks[c] = (perClient + sizes[c] - 1) / sizes[c]
			continue
		}
		blocks[c] = max(1, int(math.Round(seconds*w.rate[c]/float64(sizes[c]))))
		total += blocks[c] * sizes[c]
	}
	for perClient <= 0 && total < minSamples {
		for c := range blocks {
			blocks[c]++
			total += sizes[c]
		}
	}
	var seqs [clients][]request
	for c := range seqs {
		g := newGenerator(seed, rand.New(rand.NewPCG(seed, streamID(w.gen, c))))
		for range blocks[c] {
			block := w.combos(g, c)
			g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			seqs[c] = append(seqs[c], block...)
		}
		if perClient > 0 {
			seqs[c] = seqs[c][:perClient]
		}
	}
	return seqs
}

// streamID derives a generator stream from the generator name and the
// client, so each client has its own seeded sequence.
func streamID(gen string, client int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", gen, client)
	return h.Sum64()
}

// warmups returns the requests of the warm-up pass for seqs: the
// canonical first variant of every (circuit, model) the sequences use,
// sent by the client whose block holds it.
func (w *workload) warmups(seed uint64, seqs [clients][]request) [clients][]request {
	used := map[[2]string]bool{}
	for _, seq := range seqs {
		for _, q := range seq {
			used[[2]string{q.Circuit, q.Model}] = true
		}
	}
	var out [clients][]request
	for c := range out {
		for _, q := range w.canonical(seed, c) {
			k := [2]string{q.Circuit, q.Model}
			if q.Warm && used[k] {
				out[c] = append(out[c], q)
				delete(used, k)
			}
		}
	}
	return out
}

// markWarm flags the first combo of every (circuit, model); the combo
// functions order each group cheapest first.
func markWarm(qs []request) []request {
	seen := map[[2]string]bool{}
	for i := range qs {
		k := [2]string{qs[i].Circuit, qs[i].Model}
		if !seen[k] {
			seen[k] = true
			qs[i].Warm = true
		}
	}
	return qs
}

func mustBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

func benchmark(name string) *protest.Circuit {
	c, ok := protest.Benchmark(name)
	if !ok {
		panic("unregistered benchmark " + name)
	}
	return c
}

// inline returns the circuit as an inline netlist under its own design
// name, so it resolves to the same interned circuit as the named one.
func (g *generator) inline(name string) server.CircuitRef {
	if ref, ok := g.netlists[name]; ok {
		return ref
	}
	c := benchmark(name)
	src, err := protest.NetlistString(c)
	if err != nil {
		panic(err) // registered circuits always render
	}
	ref := server.CircuitRef{Netlist: src, Name: c.Name}
	g.netlists[name] = ref
	return ref
}

// weighted returns the 8 seeded input-probability tuples of a circuit,
// drawn from the k/16 lattice a hardware generator realizes.  They
// depend on the seed only, so both clients share them.
func (g *generator) weighted(name string) [][]float64 {
	if t, ok := g.tuples[name]; ok {
		return t
	}
	rng := rand.New(rand.NewPCG(g.seed, streamID("tuples/"+name, 0)))
	n := len(benchmark(name).Inputs)
	tuples := make([][]float64, 8)
	for i := range tuples {
		t := make([]float64, n)
		for j := range t {
			t[j] = float64(1+rng.IntN(15)) / 16
		}
		tuples[i] = t
	}
	g.tuples[name] = tuples
	return tuples
}

var analyzeCircuits = []string{"c17", "alu", "c432", "c880", "c1355", "mult"}

// analyzeSlots gives stuck-at 4/6, transition 1/6 and bridging 1/6 of
// the analyze traffic.
var analyzeSlots = []string{"stuck-at", "stuck-at", "stuck-at", "stuck-at", "transition", "bridging"}

// analyzeCombos: per circuit, half the requests uniform (the Session's
// cached analysis) and half one of 8 weighted tuples (a full core
// pass), each half spread over the model slots with one request in six
// sent inline.
func analyzeCombos(g *generator, _ int) []request {
	var out []request
	for _, name := range analyzeCircuits {
		tuples := g.weighted(name)
		for _, weighted := range []bool{false, true} {
			inline := g.rng.IntN(len(analyzeSlots))
			for slot, model := range analyzeSlots {
				req := server.AnalyzeRequest{CircuitRef: server.CircuitRef{Circuit: name}, FaultModel: model}
				if slot == inline {
					req.CircuitRef = g.inline(name)
				}
				if weighted {
					req.InputProbs = tuples[g.rng.IntN(len(tuples))]
				}
				out = append(out, request{Path: "/v1/analyze", Body: mustBody(req), Circuit: name, Model: model})
			}
		}
	}
	return markWarm(out)
}

// pipelineSets are disjoint, so concurrent identical requests (and
// with them coalescing) never occur.
var pipelineSets = [clients][]string{{"alu", "c880", "mult"}, {"c432", "c499", "c1355"}}

func pipelineCombos(_ *generator, client int) []request {
	var out []request
	for _, name := range pipelineSets[client] {
		for _, model := range models {
			for _, conf := range []float64{0.9, 0.95, 0.99} {
				for _, sim := range []int{1024, 0, 2048, 4096} {
					spec := protest.PipelineSpec{FaultModel: protest.FaultModel(model), Confidence: conf, SimPatterns: sim}
					body := mustBody(server.PipelineRequest{CircuitRef: server.CircuitRef{Circuit: name}, Spec: spec})
					out = append(out, request{Path: "/v1/pipeline", Body: body, Circuit: name, Model: model})
				}
			}
		}
	}
	return markWarm(out)
}

// optimizeSets balance the climb cost between the two clients.
var optimizeSets = [clients][]string{{"alu", "cla16", "sn7485"}, {"c432", "c499", "add8"}}

func optimizeCombos(_ *generator, client int) []request {
	var out []request
	for _, name := range optimizeSets[client] {
		for _, model := range models[:2] {
			for _, cycles := range []int{1024, 4096} {
				for _, grid := range []int{8, 16} {
					spec := protest.PipelineSpec{
						FaultModel:   protest.FaultModel(model),
						Optimize:     true,
						QuantizeGrid: grid,
						BIST:         &protest.BISTPlan{Cycles: cycles},
					}
					body := mustBody(server.PipelineRequest{CircuitRef: server.CircuitRef{Circuit: name}, Spec: spec})
					out = append(out, request{Path: "/v1/pipeline", Body: body, Circuit: name, Model: model})
				}
			}
		}
	}
	return markWarm(out)
}

var validateSets = [clients][]string{{"alu", "c880", "add8"}, {"c432", "cla16", "sn7485"}}

// validateFlagged lists the mix entries whose validate report flags at
// the commit that introduced this benchmark.  They are left out of the
// mix, so the check that every report passes stays strict.
var validateFlagged = map[string]bool{
	"c880/transition/32768": true,
	"c880/bridging/65536":   true,
	"add8/bridging/32768":   true,
}

func validateCombos(_ *generator, client int) []request {
	var out []request
	for _, name := range validateSets[client] {
		for _, model := range models {
			for _, minPat := range []int{16384, 32768, 65536} {
				if validateFlagged[fmt.Sprintf("%s/%s/%d", name, model, minPat)] {
					continue
				}
				spec := protest.ValidateSpec{SimWidth: 8, FaultModel: protest.FaultModel(model), MinPatterns: minPat}
				body := mustBody(server.ValidateRequest{CircuitRef: server.CircuitRef{Circuit: name}, Spec: spec})
				out = append(out, request{Path: "/v1/validate", Body: body, Circuit: name, Model: model})
			}
		}
	}
	return markWarm(out)
}
