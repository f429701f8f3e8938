package shard

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"protest/internal/artifact"
	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/pattern"
)

const testSeed = 7

// testRun is a registry circuit's plan over a fault model's universe,
// as a Session hands it to the pool.
type testRun struct {
	plan  *faultsim.Plan
	model fault.Model
}

// newTestRun builds the stuck-at run of one registry circuit.
func newTestRun(t *testing.T, name string) testRun {
	t.Helper()
	run, ok := newModelRun(t, name, fault.ModelStuckAt)
	if !ok {
		t.Fatalf("%s has no faults", name)
	}
	return run
}

// newModelRun builds the run of one registry circuit over a fault
// model's universe; ok is false when the universe is empty there.
func newModelRun(t *testing.T, name string, model fault.Model) (run testRun, ok bool) {
	t.Helper()
	c, found := circuits.Lookup(name)
	if !found {
		t.Fatalf("unknown circuit %q", name)
	}
	faults := model.Faults(c)
	return testRun{faultsim.NewPlan(c, faults), model}, len(faults) > 0
}

// detect runs the sharded detection measurement on p at a width.
func (r testRun) detect(p *Pool, probs []float64, n, width int) (*faultsim.Result, error) {
	return p.MeasureDetection(context.Background(), r.plan, r.model, testSeed, probs, n, faultsim.Options{Width: width}, nil)
}

// curve runs the sharded coverage curve on p at a width.
func (r testRun) curve(p *Pool, probs []float64, cps []int, width int) ([]faultsim.CoveragePoint, error) {
	return p.CoverageCurve(context.Background(), r.plan, r.model, testSeed, probs, cps, faultsim.Options{Width: width}, nil)
}

// netlist returns the run circuit's wire form: its netlist and digest.
func (r testRun) netlist(t *testing.T) (src, digest string) {
	t.Helper()
	w := wireOf(r.plan.Circuit())
	if w.err != nil {
		t.Fatal(w.err)
	}
	return w.netlist, w.digest
}

// localPool builds a Pool over the in-process transport with n
// pretend workers, fast timings, and any extra config applied.
func localPool(t *testing.T, n int, mod func(*Config)) *Pool {
	t.Helper()
	cfg := Config{
		Transport:     &LocalTransport{Exec: NewExecutor()},
		shardTimeout:  5 * time.Second,
		probeInterval: time.Minute, // keep probes out of short tests
	}
	for i := 0; i < n; i++ {
		cfg.Workers = append(cfg.Workers, string(rune('a'+i)))
	}
	if mod != nil {
		mod(&cfg)
	}
	p := NewPool(cfg)
	t.Cleanup(p.Close)
	return p
}

// serialDetect runs the serial in-process engine at width 1, one block
// at a time: the reference faultsim's own tests pin to the naive oracle.
func serialDetect(t *testing.T, run testRun, probs []float64, n int) *faultsim.Result {
	t.Helper()
	gen, err := newGenerator(len(run.plan.Circuit().Inputs), probs, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.plan.MeasureDetection(context.Background(), gen, n, faultsim.Options{Width: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func serialCurve(t *testing.T, run testRun, probs []float64, cps []int) []faultsim.CoveragePoint {
	t.Helper()
	gen, err := newGenerator(len(run.plan.Circuit().Inputs), probs, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	points, err := run.plan.CoverageCurve(context.Background(), gen, cps, faultsim.Options{Width: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func sameDetect(t *testing.T, name string, got, want *faultsim.Result) {
	t.Helper()
	if got.Applied != want.Applied {
		t.Fatalf("%s: applied %d, want %d", name, got.Applied, want.Applied)
	}
	if len(got.Detected) != len(want.Detected) {
		t.Fatalf("%s: %d counts, want %d", name, len(got.Detected), len(want.Detected))
	}
	for i := range want.Detected {
		if got.Detected[i] != want.Detected[i] {
			t.Fatalf("%s: fault %d detected %d times, serial says %d",
				name, i, got.Detected[i], want.Detected[i])
		}
	}
}

func sameCurve(t *testing.T, name string, got, want []faultsim.CoveragePoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Patterns != want[i].Patterns || got[i].Coverage != want[i].Coverage {
			t.Fatalf("%s: point %d = {%d, %v}, serial says {%d, %v}",
				name, i, got[i].Patterns, got[i].Coverage, want[i].Patterns, want[i].Coverage)
		}
	}
}

// TestShardedDetectMatchesSerial is the core exactness contract: the
// merged distributed measurement is bit-identical to the serial
// engine, on every registry circuit, including a pattern count that is
// not a multiple of the 64-pattern block size.
func TestShardedDetectMatchesSerial(t *testing.T) {
	for _, name := range circuits.Names() {
		t.Run(name, func(t *testing.T) {
			run := newTestRun(t, name)
			p := localPool(t, 3, nil)
			for _, n := range []int{257, 64} {
				got, err := run.detect(p, nil, n, 0)
				if err != nil {
					t.Fatal(err)
				}
				sameDetect(t, name, got, serialDetect(t, run, nil, n))
			}
		})
	}
}

// TestShardedDetectWeighted checks the weighted-pattern stream crosses
// the wire types bit-identically (float64 probabilities survive the
// Request round-trip exactly).
func TestShardedDetectWeighted(t *testing.T) {
	run := newTestRun(t, "alu")
	probs := make([]float64, len(run.plan.Circuit().Inputs))
	for i := range probs {
		probs[i] = float64(i%15+1) / 16 // a quantized non-uniform tuple
	}
	p := localPool(t, 3, nil)
	got, err := run.detect(p, probs, 320, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/weighted", got, serialDetect(t, run, probs, 320))
}

// TestShardedCurveMatchesSerial checks coverage curves — first
// detection positions min-merged across shards — stay bit-identical,
// fault dropping and early termination included.
func TestShardedCurveMatchesSerial(t *testing.T) {
	cps := []int{10, 100, 257}
	for _, name := range circuits.Names() {
		t.Run(name, func(t *testing.T) {
			run := newTestRun(t, name)
			p := localPool(t, 3, nil)
			got, err := run.curve(p, nil, cps, 0)
			if err != nil {
				t.Fatal(err)
			}
			sameCurve(t, name, got, serialCurve(t, run, nil, cps))
		})
	}
}

// TestPlanShardsPartition checks the shard planner always produces an
// exact, ordered partition of the block axis into at most the target
// and the cap of ranges, cut only on chunk boundaries: every range
// starts at a multiple of the chunk and ends at one or at the run's
// end.  A run spreads over as many ranges as it has chunks, up to the
// target.
func TestPlanShardsPartition(t *testing.T) {
	for _, tc := range []struct{ blocks, chunk, target, max int }{
		{1, 8, 8, 64}, {5, 1, 12, 64}, {5, 4, 12, 64}, {5, 8, 4, 64},
		{17, 1, 12, 64}, {17, 4, 12, 64}, {17, 8, 12, 64},
		{3, 1, 12, 8}, {3, 8, 12, 8}, {40, 4, 64, 8},
		{100, 1, 200, 64}, {100, 4, 200, 64}, {100, 8, 200, 64},
		{5, 1, 1, 64}, {16, 8, 4, 64}, {22, 8, 4, 64}, {22, 4, 4, 64}, {22, 1, 0, 64},
	} {
		spans := planShards(tc.blocks, tc.chunk, tc.target, tc.max)
		chunks := (tc.blocks + tc.chunk - 1) / tc.chunk
		if want := min(chunks, max(tc.target, 1), tc.max); len(spans) != want {
			t.Fatalf("planShards(%v): %d shards, want %d", tc, len(spans), want)
		}
		next := 0
		for _, sp := range spans {
			if sp.lo != next || sp.lo >= sp.hi {
				t.Fatalf("planShards(%v): span %+v after block %d", tc, sp, next)
			}
			if sp.lo%tc.chunk != 0 || sp.hi%tc.chunk != 0 && sp.hi != tc.blocks {
				t.Fatalf("planShards(%v): span %+v cuts blocks off chunk boundaries", tc, sp)
			}
			next = sp.hi
		}
		if next != tc.blocks {
			t.Fatalf("planShards(%v): spans end at block %d, want %d", tc, next, tc.blocks)
		}
	}
}

// TestShortRunIsOneShard: with one worker a run aims at 4 shards, but
// a run of at most one chunk goes out as exactly one shard, whose
// response vectors, counts and first positions, carry one entry per
// plan fault.
func TestShortRunIsOneShard(t *testing.T) {
	run := newTestRun(t, "alu")
	want := len(run.plan.Faults())
	var mu sync.Mutex
	var resps []*Response
	p := localPool(t, 1, func(cfg *Config) {
		cfg.Transport = &corruptTransport{inner: &LocalTransport{Exec: NewExecutor()}, mutate: func(_ *Request, r *Response) {
			mu.Lock()
			resps = append(resps, r)
			mu.Unlock()
		}}
	})
	cps := []int{10, 100, 300} // 1 + 2 + 4 blocks
	for _, n := range []int{257, 512} {
		got, err := run.detect(p, nil, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameDetect(t, "alu", got, serialDetect(t, run, nil, n))
	}
	curve, err := run.curve(p, nil, cps, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameCurve(t, "alu", curve, serialCurve(t, run, nil, cps))
	if st := p.Stats(); st.Runs != 3 || st.Shards != 3 || len(resps) != 3 {
		t.Fatalf("3 runs of at most one chunk: %d responses, %+v", len(resps), st)
	}
	for i, r := range resps {
		vec := r.Counts // two detection runs, then the curve
		if i == 2 {
			vec = r.First
		}
		if r.Faults != want || len(vec) != want {
			t.Fatalf("response %d: %d faults, %d entries, want %d", i, r.Faults, len(vec), want)
		}
	}
}

// TestEmptyPoolIsPermanentlyDegraded: no workers configured means
// every run executes locally — same results, degraded flagged.
func TestEmptyPoolIsPermanentlyDegraded(t *testing.T) {
	run := newTestRun(t, "c17")
	p := localPool(t, 0, nil)
	if !p.Degraded() {
		t.Fatal("empty pool not degraded")
	}
	got, err := run.detect(p, nil, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "c17/degraded", got, serialDetect(t, run, nil, 200))
	st := p.Stats()
	if st.Runs != 1 || st.DegradedRuns != 1 {
		t.Fatalf("stats = %+v, want runs=1 degraded_runs=1", st)
	}
	if st.Shards != 0 {
		t.Fatalf("degraded run dispatched %d shards", st.Shards)
	}
}

// corruptTransport passes every response through mutate: a worker
// that reconstructed a different fault universe, or a buggy one.
type corruptTransport struct {
	inner  Transport
	mutate func(req *Request, resp *Response)
}

func (c *corruptTransport) Do(ctx context.Context, addr string, req *Request) (*Response, error) {
	resp, err := c.inner.Do(ctx, addr, req)
	if err != nil {
		return nil, err
	}
	c.mutate(req, resp)
	return resp, nil
}

func (c *corruptTransport) Probe(ctx context.Context, addr string) error { return nil }

// TestCorruptResponseRejected: a response with the wrong fault count,
// a vector of the wrong length, or a value no shard can produce must
// never be merged.  The pool treats it as a failure, and the local
// fallback still produces the exact result.  The curve case runs at
// width 1, so every shard has blocks outside it.
func TestCorruptResponseRejected(t *testing.T) {
	const n = 200
	cps := []int{100, n}
	for _, tc := range []struct {
		name   string
		curve  bool
		mutate func(req *Request, resp *Response)
	}{
		{"faults+1", false, func(_ *Request, r *Response) { r.Faults++ }},
		{"dropped count", false, func(_ *Request, r *Response) { r.Counts = r.Counts[:len(r.Counts)-1] }},
		{"appended count", false, func(_ *Request, r *Response) { r.Counts = append(r.Counts, 0) }},
		{"negative count", false, func(_ *Request, r *Response) { r.Counts[0] = -1 }},
		{"count above the shard's patterns", false, func(req *Request, r *Response) {
			own := req.schedule().Range(req.BlockLo, req.BlockHi)
			patterns := 0
			for j := range own.Len() {
				patterns += bits.OnesCount64(own.Block(j).Mask)
			}
			r.Counts[0] = patterns + 1
		}},
		{"first position outside the shard", true, func(req *Request, r *Response) {
			blocks := req.schedule()
			if req.BlockHi < blocks.Len() {
				r.First[0] = blocks.Block(req.BlockHi).End
			} else {
				r.First[0] = blocks.Block(req.BlockLo - 1).End
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := newTestRun(t, "c17")
			p := localPool(t, 2, func(cfg *Config) {
				cfg.Transport = &corruptTransport{inner: &LocalTransport{Exec: NewExecutor()}, mutate: tc.mutate}
				cfg.maxAttempts = 2
				cfg.backoffBase = time.Millisecond
				cfg.backoffMax = 2 * time.Millisecond
			})
			if tc.curve {
				got, err := run.curve(p, nil, cps, 1)
				if err != nil {
					t.Fatal(err)
				}
				sameCurve(t, "c17/corrupt", got, serialCurve(t, run, nil, cps))
			} else {
				got, err := run.detect(p, nil, n, 0)
				if err != nil {
					t.Fatal(err)
				}
				sameDetect(t, "c17/corrupt", got, serialDetect(t, run, nil, n))
			}
			st := p.Stats()
			if st.LocalFallbacks == 0 {
				t.Fatal("corrupt responses merged without local fallback")
			}
			if st.Shards != 0 {
				t.Fatalf("%d corrupt responses recorded as successes", st.Shards)
			}
		})
	}
}

// TestSkipBlocksPositionsStream: SkipBlocks(k) then NextBlock must
// reproduce exactly the k-th block of a fresh generator — the property
// remote workers rely on to join a pattern stream mid-run.
func TestSkipBlocksPositionsStream(t *testing.T) {
	probs := []float64{0.5, 0.25, 1, 0, 0.8125}
	for skip := 0; skip < 4; skip++ {
		ref, err := pattern.NewWeighted(probs, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, len(probs))
		for i := 0; i <= skip; i++ {
			ref.NextBlock(want)
		}
		g, err := pattern.NewWeighted(probs, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		g.SkipBlocks(skip)
		got := make([]uint64, len(probs))
		g.NextBlock(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("skip %d: word %d = %x, want %x", skip, i, got[i], want[i])
			}
		}
	}
}

// TestShardedWideMatchesSerial pins every width of the shard path,
// including the default schedule: runs whose shards simulate at width
// 0, 1 or 8 merge to exactly the serial result for both measurement
// kinds, on every registry circuit.  With one worker a run aims at 4
// shards, so at width 0 the budgets give one shard for a run shorter
// than a chunk (257: 5 blocks), block cuts on chunk boundaries with a
// ragged last range (1088: 17 blocks) and whole 8-block chunks (2048).
func TestShardedWideMatchesSerial(t *testing.T) {
	cps := []int{10, 100, 257, 1088}
	for _, name := range circuits.Names() {
		t.Run(name, func(t *testing.T) {
			run := newTestRun(t, name)
			p := localPool(t, 1, nil)
			wantCurve := serialCurve(t, run, nil, cps)
			for _, n := range []int{257, 1088, 2048} {
				wantDet := serialDetect(t, run, nil, n)
				for _, w := range []int{0, 1, 8} {
					got, err := run.detect(p, nil, n, w)
					if err != nil {
						t.Fatal(err)
					}
					sameDetect(t, name, got, wantDet)
					if n != 257 {
						continue
					}
					curve, err := run.curve(p, nil, cps, w)
					if err != nil {
						t.Fatal(err)
					}
					sameCurve(t, name, curve, wantCurve)
				}
			}
		})
	}
}

// TestRunShardScheduleMatchesNaive drives runShard directly, so plans
// the wire cannot carry are covered too: c1355 (n-ary gates) and a
// truth-table circuit, under all three fault models.  Per-shard counts
// over a split block axis must add up, and first-detection positions
// must min-merge, through faultsim.CurveOf, to the naive oracle's
// counts and curve at every width.
func TestRunShardScheduleMatchesNaive(t *testing.T) {
	c1355, _ := circuits.Lookup("c1355")
	const n = 1408           // 22 blocks: ranges [0,5) and [5,22)
	cps := []int{63, 600, n} // 23 blocks: ranges [0,5) and [5,23)
	for _, c := range []*circuit.Circuit{c1355, circuits.Tables()} {
		for _, model := range []fault.Model{fault.ModelStuckAt, fault.ModelBridging, fault.ModelTransition} {
			faults := model.Faults(c)
			if len(faults) == 0 {
				continue
			}
			plan := faultsim.NewPlan(c, faults)
			wantDet, err := faultsim.MeasureDetectionNaive(context.Background(), c, faults, pattern.NewUniform(len(c.Inputs), testSeed), n, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantCurve, err := faultsim.CoverageCurveNaive(context.Background(), c, faults, pattern.NewUniform(len(c.Inputs), testSeed), cps, nil)
			if err != nil {
				t.Fatal(err)
			}
			curveBlocks := faultsim.CurveBlocks(cps).Len()
			for _, w := range []int{0, 1, 8} {
				counts := make([]int, len(faults))
				first := make([]int, len(faults))
				for i := range first {
					first[i] = -1
				}
				for _, r := range [][2]int{{0, 5}, {5, 22}} {
					req := &Request{Seed: testSeed, Kind: KindDetect, NumPatterns: n,
						BlockLo: r[0], BlockHi: r[1], SimWidth: w}
					resp, err := runShard(context.Background(), plan, req)
					if err != nil {
						t.Fatal(err)
					}
					for i, k := range resp.Counts {
						counts[i] += k
					}
					req.Kind, req.NumPatterns, req.Checkpoints = KindCurve, 0, cps
					if r[1] == 22 {
						req.BlockHi = curveBlocks
					}
					resp, err = runShard(context.Background(), plan, req)
					if err != nil {
						t.Fatal(err)
					}
					for i, f := range resp.First {
						if f >= 0 && (first[i] < 0 || f < first[i]) {
							first[i] = f
						}
					}
				}
				for i := range faults {
					if counts[i] != wantDet.Detected[i] {
						t.Fatalf("%s %s width %d fault %d: shard counts %d, naive %d",
							c.Name, model, w, i, counts[i], wantDet.Detected[i])
					}
				}
				for k, p := range faultsim.CurveOf(first, cps) {
					if p != wantCurve[k] {
						t.Fatalf("%s %s width %d: point %+v, naive %+v", c.Name, model, w, p, wantCurve[k])
					}
				}
			}
		}
	}
}

// TestDegradedWideMatchesSerial checks the zero-worker fallback honours
// the run's width and still reproduces the serial result exactly.
func TestDegradedWideMatchesSerial(t *testing.T) {
	run := newTestRun(t, "alu")
	p := localPool(t, 0, nil)
	if !p.Degraded() {
		t.Fatal("empty pool should be degraded")
	}
	got, err := run.detect(p, nil, 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/degraded-wide", got, serialDetect(t, run, nil, 300))
}

// TestShardWidthValidation checks unsupported widths, 4 included, are
// rejected at the request boundary rather than computed wrong, and by
// the pool before any shard is sent: a worker rejecting them would
// count as failing and could be ejected.
func TestShardWidthValidation(t *testing.T) {
	run := newTestRun(t, "c17")
	p := localPool(t, 1, nil)
	for _, w := range []int{3, 4} {
		req := &Request{
			Seed: testSeed, Kind: KindDetect, NumPatterns: 128,
			BlockLo: 0, BlockHi: 2,
			SimWidth: w,
		}
		if _, err := runShard(context.Background(), run.plan, req); err == nil {
			t.Fatalf("SimWidth %d should be rejected", w)
		}
		if _, err := run.detect(p, nil, 128, w); err == nil {
			t.Fatalf("the pool accepted width %d for detection", w)
		}
		if _, err := run.curve(p, nil, []int{128}, w); err == nil {
			t.Fatalf("the pool accepted width %d for a curve", w)
		}
	}
	if st := p.Stats(); st.Runs != 0 || st.Workers[0].Failures != 0 {
		t.Fatalf("a rejected width reached the workers: %+v", st)
	}
}

// errRejected stands for any error but ErrUnknownCircuit in
// TestExecutorDigests.
var errRejected = errors.New("rejected")

// TestExecutorDigests pins the worker side of content addressing: a
// digest resolves only after a netlist verified against it, a
// digest-only request then returns exactly what the netlist did, and
// a request without a digest of this wire version is rejected.
func TestExecutorDigests(t *testing.T) {
	run := newTestRun(t, "c17")
	src, d := run.netlist(t)
	shardReq := func(d, netlist string) *Request {
		return &Request{Name: "c17", Digest: d, Netlist: netlist, Seed: testSeed,
			Kind: KindDetect, NumPatterns: 128, BlockHi: 2}
	}
	want, err := runShard(context.Background(), run.plan, shardReq("", ""))
	if err != nil {
		t.Fatal(err)
	}
	_, other := newTestRun(t, "add8").netlist(t)
	untagged := strings.TrimPrefix(d, wireVersion)
	type step struct {
		req     *Request
		err     error // nil: the response equals want
		decoded int64 // netlists the executor has decoded after the step
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"digest to a cold executor", []step{
			{shardReq(d, ""), ErrUnknownCircuit, 0},
		}},
		{"netlist then digest", []step{
			{shardReq(d, src), nil, 1},
			{shardReq(d, ""), nil, 1},
			{shardReq(d, ""), nil, 1},
		}},
		{"netlist of a held digest is not decoded again", []step{
			{shardReq(d, src), nil, 1},
			{shardReq(d, src), nil, 1},
			{shardReq(d, src), nil, 1},
		}},
		{"wrong digest is rejected and not cached", []step{
			{shardReq(other, src), errRejected, 0},
			{shardReq(other, ""), ErrUnknownCircuit, 0},
			{shardReq(d, ""), ErrUnknownCircuit, 0},
		}},
		{"wrong digest is rejected for a held circuit", []step{
			{shardReq(d, src), nil, 1},
			{shardReq(other, src), errRejected, 1},
			{shardReq(d, ""), nil, 1},
		}},
		{"netlist without digest", []step{
			{shardReq("", src), errRejected, 0},
			{shardReq(d, ""), ErrUnknownCircuit, 0},
		}},
		{"digest without the wire version", []step{
			{shardReq(untagged, src), errRejected, 0},
			{shardReq(d, src), nil, 1},
			{shardReq(untagged, ""), errRejected, 1},
		}},
		{"neither netlist nor digest", []step{
			{shardReq("", ""), errRejected, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewExecutor()
			for i, st := range tc.steps {
				got, err := e.Run(context.Background(), st.req)
				switch {
				case st.err == nil && err != nil:
					t.Fatalf("step %d: %v", i, err)
				case st.err == nil && !reflect.DeepEqual(got, want):
					t.Fatalf("step %d: response %+v, want %+v", i, got, want)
				case st.err == ErrUnknownCircuit && !errors.Is(err, ErrUnknownCircuit):
					t.Fatalf("step %d: error %v, want ErrUnknownCircuit", i, err)
				case st.err == errRejected && (err == nil || errors.Is(err, ErrUnknownCircuit)):
					t.Fatalf("step %d: error %v, want a rejection", i, err)
				}
				if n := e.circuits.Stats().Builds; n != st.decoded {
					t.Fatalf("step %d: %d netlists decoded, want %d", i, n, st.decoded)
				}
			}
		})
	}
	// All shards of a circuit's first run miss the digest at once and
	// each carries the netlist; they share one decode.  div's netlist
	// decodes slowly enough for the requests to overlap.
	t.Run("concurrent first arrivals share one decode", func(t *testing.T) {
		div := newTestRun(t, "div")
		src, d := div.netlist(t)
		req := &Request{Name: div.plan.Circuit().Name, Digest: d, Netlist: src, Seed: testSeed,
			Kind: KindDetect, NumPatterns: 64, BlockHi: 1}
		want, err := runShard(context.Background(), div.plan, req)
		if err != nil {
			t.Fatal(err)
		}
		e := NewExecutor()
		const n = 8
		errs := make([]error, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got, err := e.Run(context.Background(), req)
				if err == nil && !reflect.DeepEqual(got, want) {
					err = fmt.Errorf("response %+v, want %+v", got, want)
				}
				errs[i] = err
			}(i)
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
		if got := e.circuits.Stats().Builds; got != 1 {
			t.Fatalf("%d netlists decoded for one digest, want 1", got)
		}
	})
}

// TestExecutorBoundsCircuits: the executor holds at most
// artifact.DefaultCapacity circuits, dropping the least recently used.
func TestExecutorBoundsCircuits(t *testing.T) {
	run := newTestRun(t, "c17")
	src, _ := run.netlist(t)
	e := NewExecutor()
	req := func(i int, netlist string) *Request {
		name := fmt.Sprintf("c17-%d", i)
		return &Request{Name: name, Digest: Digest(name, src), Netlist: netlist, Seed: testSeed,
			Kind: KindDetect, NumPatterns: 64, BlockHi: 1}
	}
	for i := 0; i <= artifact.DefaultCapacity; i++ {
		if _, err := e.Run(context.Background(), req(i, src)); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.circuits.Len(); n != artifact.DefaultCapacity {
		t.Fatalf("executor holds %d circuits, want %d", n, artifact.DefaultCapacity)
	}
	if _, err := e.Run(context.Background(), req(0, "")); !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("least recently used circuit still held: %v", err)
	}
	if _, err := e.Run(context.Background(), req(artifact.DefaultCapacity, "")); err != nil {
		t.Fatalf("most recent circuit dropped: %v", err)
	}
}

// editTransport sends every request through edit first.
type editTransport struct {
	inner Transport
	edit  func(req *Request)
}

func (e *editTransport) Do(ctx context.Context, addr string, req *Request) (*Response, error) {
	r := *req
	e.edit(&r)
	return e.inner.Do(ctx, addr, &r)
}

func (e *editTransport) Probe(ctx context.Context, addr string) error { return nil }

// TestOtherWireVersionRunsLocally: workers reject a request whose
// digest lacks the wire version, or that carries none, as from a
// coordinator that numbers shards another way.  Every shard then runs
// locally, and the result is unchanged.
func TestOtherWireVersionRunsLocally(t *testing.T) {
	run := newTestRun(t, "alu")
	want := serialDetect(t, run, nil, 513)
	for name, edit := range map[string]func(*Request){
		"untagged digest": func(r *Request) { r.Digest = strings.TrimPrefix(r.Digest, wireVersion) },
		"no digest":       func(r *Request) { r.Digest = "" },
	} {
		p := localPool(t, 2, func(cfg *Config) {
			cfg.Transport = &editTransport{inner: &LocalTransport{Exec: NewExecutor()}, edit: edit}
			cfg.maxAttempts = 2
			cfg.backoffBase = time.Millisecond
			cfg.backoffMax = 2 * time.Millisecond
		})
		got, err := run.detect(p, nil, 513, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameDetect(t, name, got, want)
		if st := p.Stats(); st.Shards != 0 || st.LocalFallbacks == 0 || st.CircuitMisses != 0 {
			t.Fatalf("%s: %+v, want every shard rejected and run locally", name, st)
		}
	}
}

// TestNoWireFormRunsLocally: a circuit whose rendering does not decode
// to exactly it (a truth-table gate renders to nothing, and an input
// named with a leading blank decodes without it) runs locally with
// healthy workers, sending no shard.
func TestNoWireFormRunsLocally(t *testing.T) {
	b := circuit.NewBuilder("blank")
	x := b.Inputs(" a", "b")
	b.MarkOutputs(b.And("o", x...), b.Xor("p", x...))
	blank, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cps := []int{64, 300}
	for _, c := range []*circuit.Circuit{circuits.Tables(), blank} {
		if wireOf(c).err == nil {
			t.Fatalf("%s has a wire form", c.Name)
		}
		run := testRun{faultsim.NewPlan(c, fault.Collapse(c)), fault.ModelStuckAt}
		p := localPool(t, 2, nil)
		got, err := run.detect(p, nil, 300, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameDetect(t, c.Name, got, serialDetect(t, run, nil, 300))
		curve, err := run.curve(p, nil, cps, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameCurve(t, c.Name, curve, serialCurve(t, run, nil, cps))
		if st := p.Stats(); st.Shards != 0 || st.LocalFallbacks != 0 {
			t.Fatalf("%s: shards were sent: %+v", c.Name, st)
		}
	}
}
