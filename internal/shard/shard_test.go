package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"protest/internal/artifact"
	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/logic"
	"protest/internal/pattern"
)

const testSeed = 7

// newTestTask builds the Task for one registry circuit.
func newTestTask(t *testing.T, name string) *Task {
	t.Helper()
	c, ok := circuits.Lookup(name)
	if !ok {
		t.Fatalf("unknown circuit %q", name)
	}
	plan := faultsim.NewPlan(c, fault.Collapse(c))
	task, err := NewTask(plan, testSeed)
	if err != nil {
		t.Fatalf("NewTask(%s): %v", name, err)
	}
	return task
}

// localPool builds a Pool over the in-process transport with n
// pretend workers, fast timings, and any extra config applied.
func localPool(t *testing.T, n int, mod func(*Config)) *Pool {
	t.Helper()
	cfg := Config{
		Transport:     &LocalTransport{Exec: NewExecutor()},
		ShardTimeout:  5 * time.Second,
		ProbeInterval: time.Minute, // keep probes out of short tests
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

// serialDetect runs the serial in-process narrow engine, one block at a
// time: the reference faultsim's own tests pin to the naive oracle.
func serialDetect(t *testing.T, task *Task, probs []float64, n int) *faultsim.Result {
	t.Helper()
	gen, err := newGenerator(len(task.Plan.Circuit().Inputs), probs, task.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := task.Plan.MeasureDetectionCtx(context.Background(), gen, n, faultsim.Options{Width: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func serialCurve(t *testing.T, task *Task, probs []float64, cps []int) []faultsim.CoveragePoint {
	t.Helper()
	gen, err := newGenerator(len(task.Plan.Circuit().Inputs), probs, task.Seed)
	if err != nil {
		t.Fatal(err)
	}
	points, err := task.Plan.CoverageCurveCtx(context.Background(), gen, cps, faultsim.Options{Width: 1}, nil)
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
			task := newTestTask(t, name)
			p := localPool(t, 3, nil)
			for _, n := range []int{257, 64} {
				got, err := p.MeasureDetection(context.Background(), task, nil, n, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameDetect(t, name, got, serialDetect(t, task, nil, n))
			}
		})
	}
}

// TestShardedDetectWeighted checks the weighted-pattern stream crosses
// the wire types bit-identically (float64 probabilities survive the
// Request round-trip exactly).
func TestShardedDetectWeighted(t *testing.T) {
	task := newTestTask(t, "alu")
	probs := make([]float64, len(task.Plan.Circuit().Inputs))
	for i := range probs {
		probs[i] = float64(i%15+1) / 16 // a quantized non-uniform tuple
	}
	p := localPool(t, 3, nil)
	got, err := p.MeasureDetection(context.Background(), task, probs, 320, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/weighted", got, serialDetect(t, task, probs, 320))
}

// TestShardedCurveMatchesSerial checks coverage curves — first
// detection positions min-merged across shards — stay bit-identical,
// fault dropping and early termination included.
func TestShardedCurveMatchesSerial(t *testing.T) {
	cps := []int{10, 100, 257}
	for _, name := range circuits.Names() {
		t.Run(name, func(t *testing.T) {
			task := newTestTask(t, name)
			p := localPool(t, 3, nil)
			got, err := p.CoverageCurve(context.Background(), task, nil, cps, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameCurve(t, name, got, serialCurve(t, task, nil, cps))
		})
	}
}

// TestPlanShardsPartition checks the shard planner always produces an
// exact partition of the (group × block) grid.
func TestPlanShardsPartition(t *testing.T) {
	for _, tc := range []struct{ groups, blocks, target, max int }{
		{1, 1, 8, 64}, {1, 5, 12, 64}, {7, 1, 12, 64},
		{13, 17, 12, 64}, {100, 3, 12, 8}, {3, 100, 200, 64}, {5, 5, 1, 64},
	} {
		spans := planShards(tc.groups, tc.blocks, tc.target, tc.max)
		if len(spans) > tc.max {
			t.Fatalf("planShards(%v): %d shards over cap %d", tc, len(spans), tc.max)
		}
		seen := make(map[[2]int]int)
		for _, sp := range spans {
			if sp.gLo >= sp.gHi || sp.bLo >= sp.bHi {
				t.Fatalf("planShards(%v): empty span %+v", tc, sp)
			}
			for g := sp.gLo; g < sp.gHi; g++ {
				for b := sp.bLo; b < sp.bHi; b++ {
					seen[[2]int{g, b}]++
				}
			}
		}
		if len(seen) != tc.groups*tc.blocks {
			t.Fatalf("planShards(%v): covered %d cells, want %d", tc, len(seen), tc.groups*tc.blocks)
		}
		for cell, n := range seen {
			if n != 1 {
				t.Fatalf("planShards(%v): cell %v covered %d times", tc, cell, n)
			}
		}
	}
}

// TestEmptyPoolIsPermanentlyDegraded: no workers configured means
// every run executes locally — same results, degraded flagged.
func TestEmptyPoolIsPermanentlyDegraded(t *testing.T) {
	task := newTestTask(t, "c17")
	p := localPool(t, 0, nil)
	if !p.Degraded() {
		t.Fatal("empty pool not degraded")
	}
	got, err := p.MeasureDetection(context.Background(), task, nil, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "c17/degraded", got, serialDetect(t, task, nil, 200))
	st := p.Stats()
	if st.Runs != 1 || st.DegradedRuns != 1 {
		t.Fatalf("stats = %+v, want runs=1 degraded_runs=1", st)
	}
	if st.Shards != 0 {
		t.Fatalf("degraded run dispatched %d shards", st.Shards)
	}
}

// corruptTransport returns responses whose fault count does not match
// the coordinator's plan — a worker that reconstructed a different
// fault universe.
type corruptTransport struct{ inner Transport }

func (c *corruptTransport) Do(ctx context.Context, addr string, req *Request) (*Response, error) {
	resp, err := c.inner.Do(ctx, addr, req)
	if err != nil {
		return nil, err
	}
	resp.Faults++
	return resp, nil
}

func (c *corruptTransport) Probe(ctx context.Context, addr string) error { return nil }

// TestCorruptResponseRejected: a response failing the fault-count
// cross-check must never be merged — the pool treats it as a failure
// and the local fallback still produces the exact result.
func TestCorruptResponseRejected(t *testing.T) {
	task := newTestTask(t, "c17")
	p := localPool(t, 2, func(cfg *Config) {
		cfg.Transport = &corruptTransport{inner: &LocalTransport{Exec: NewExecutor()}}
		cfg.MaxAttempts = 2
		cfg.BackoffBase = time.Millisecond
		cfg.BackoffMax = 2 * time.Millisecond
		cfg.HedgeAfter = -1
	})
	got, err := p.MeasureDetection(context.Background(), task, nil, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "c17/corrupt", got, serialDetect(t, task, nil, 200))
	st := p.Stats()
	if st.LocalFallbacks == 0 {
		t.Fatal("corrupt responses merged without local fallback")
	}
	if st.Shards != 0 {
		t.Fatalf("%d corrupt responses recorded as successes", st.Shards)
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
// including the default schedule: a pool whose shards run at SimWidth
// 0, 1, 4 or 8 merges to exactly the serial result for both
// measurement kinds, on every registry circuit.  With one worker a run
// is cut into 4 block ranges, so the budgets give shards of 1-2 blocks
// (257), 4-5 blocks (1088) and 8 blocks (2048): narrow tails, padded
// wide chunks and whole 8-block chunks.
func TestShardedWideMatchesSerial(t *testing.T) {
	cps := []int{10, 100, 257, 1088}
	for _, name := range circuits.Names() {
		t.Run(name, func(t *testing.T) {
			task := newTestTask(t, name)
			wantCurve := serialCurve(t, task, nil, cps)
			for _, n := range []int{257, 1088, 2048} {
				wantDet := serialDetect(t, task, nil, n)
				for _, w := range []int{0, 1, 4, 8} {
					p := localPool(t, 1, func(c *Config) { c.SimWidth = w })
					got, err := p.MeasureDetection(context.Background(), task, nil, n, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameDetect(t, name, got, wantDet)
					if n != 257 {
						continue
					}
					curve, err := p.CoverageCurve(context.Background(), task, nil, cps, nil)
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
// must min-merge, to the naive oracle's counts and curve at every width.
func TestRunShardScheduleMatchesNaive(t *testing.T) {
	c1355, _ := circuits.Lookup("c1355")
	const n = 1408           // 22 blocks: ranges [0,5) and [5,22)
	cps := []int{63, 600, n} // 23 blocks: ranges [0,5) and [5,23)
	for _, c := range []*circuit.Circuit{c1355, tableCircuit(t)} {
		for _, model := range []fault.Model{fault.ModelStuckAt, fault.ModelBridging, fault.ModelTransition} {
			faults := model.Faults(c)
			if len(faults) == 0 {
				continue
			}
			plan := faultsim.NewPlan(c, faults)
			naive := faultsim.Options{Engine: faultsim.EngineNaive}
			wantDet, err := plan.MeasureDetectionCtx(context.Background(), pattern.NewUniform(len(c.Inputs), testSeed), n, naive, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantCurve, err := plan.CoverageCurveCtx(context.Background(), pattern.NewUniform(len(c.Inputs), testSeed), cps, naive, nil)
			if err != nil {
				t.Fatal(err)
			}
			curveBlocks := len(faultsim.CurveBlocks(cps))
			for _, w := range []int{0, 1, 4, 8} {
				counts := make([]int, len(faults))
				first := make([]int, len(faults))
				for i := range first {
					first[i] = -1
				}
				for _, r := range [][2]int{{0, 5}, {5, 22}} {
					req := &Request{Seed: testSeed, Kind: KindDetect, NumPatterns: n,
						GroupLo: 0, GroupHi: plan.NumGroups(), BlockLo: r[0], BlockHi: r[1], SimWidth: w}
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
				for k, cp := range cps {
					dead := 0
					for _, f := range first {
						if f >= 0 && f <= cp {
							dead++
						}
					}
					if got := 100 * float64(dead) / float64(len(faults)); got != wantCurve[k].Coverage {
						t.Fatalf("%s %s width %d: coverage at %d = %v, naive %v",
							c.Name, model, w, cp, got, wantCurve[k].Coverage)
					}
				}
			}
		}
	}
}

// tableCircuit is a small reconvergent circuit of truth-table cells,
// which the netlist format cannot carry; runShard takes its plan
// directly.
func tableCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	maj, err := logic.TableFromFunc(3, func(in []bool) bool {
		return in[0] && in[1] || in[1] && in[2] || in[0] && in[2]
	})
	if err != nil {
		t.Fatal(err)
	}
	b := circuit.NewBuilder("tables")
	x := b.InputBus("x", 6)
	m0 := b.TableGate("m0", maj, x[0], x[1], x[2])
	m1 := b.TableGate("m1", maj, x[2], x[3], x[4])
	a0 := b.And("a0", m0, x[5])
	b.MarkOutputs(
		b.Xor("o0", m1, a0),
		b.TableGate("o1", maj, m0, m1, a0),
		b.Or("o2", m0, x[3]),
	)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDegradedWideMatchesSerial checks the zero-worker fallback honours
// the pool's width and still reproduces the serial result exactly.
func TestDegradedWideMatchesSerial(t *testing.T) {
	task := newTestTask(t, "alu")
	p := localPool(t, 0, func(c *Config) { c.SimWidth = 8 })
	if !p.Degraded() {
		t.Fatal("empty pool should be degraded")
	}
	got, err := p.MeasureDetection(context.Background(), task, nil, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDetect(t, "alu/degraded-wide", got, serialDetect(t, task, nil, 300))
}

// TestShardWidthValidation checks unsupported widths are rejected at
// the request boundary rather than computed wrong.
func TestShardWidthValidation(t *testing.T) {
	task := newTestTask(t, "c17")
	req := &Request{
		Name: task.Name, Netlist: task.Netlist, Seed: task.Seed,
		Kind: KindDetect, NumPatterns: 128,
		GroupLo: 0, GroupHi: task.Remote.NumGroups(), BlockLo: 0, BlockHi: 2,
		SimWidth: 3,
	}
	if _, err := runShard(context.Background(), task.Remote, req); err == nil {
		t.Fatal("SimWidth 3 should be rejected")
	}
}

// errRejected stands for any error but ErrUnknownCircuit in
// TestExecutorDigests.
var errRejected = errors.New("rejected")

// TestExecutorDigests pins the worker side of content addressing: a
// digest resolves only after a netlist verified against it, and a
// digest-only request then returns exactly what the netlist did.
func TestExecutorDigests(t *testing.T) {
	task := newTestTask(t, "c17")
	shardReq := func(d, netlist string) *Request {
		return &Request{Name: task.Name, Digest: d, Netlist: netlist, Seed: task.Seed,
			Kind: KindDetect, NumPatterns: 128, GroupHi: task.Remote.NumGroups(), BlockHi: 2}
	}
	want, err := runShard(context.Background(), task.Remote, shardReq("", ""))
	if err != nil {
		t.Fatal(err)
	}
	other := newTestTask(t, "add8").Digest
	type step struct {
		req *Request
		err error // nil: the response equals want
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"digest to a cold executor", []step{
			{shardReq(task.Digest, ""), ErrUnknownCircuit},
		}},
		{"netlist then digest", []step{
			{shardReq(task.Digest, task.Netlist), nil},
			{shardReq(task.Digest, ""), nil},
			{shardReq(task.Digest, ""), nil},
		}},
		{"wrong digest is rejected and not cached", []step{
			{shardReq(other, task.Netlist), errRejected},
			{shardReq(other, ""), ErrUnknownCircuit},
			{shardReq(task.Digest, ""), ErrUnknownCircuit},
		}},
		{"netlist without digest", []step{
			{shardReq("", task.Netlist), nil},
			{shardReq(task.Digest, ""), nil},
		}},
		{"neither netlist nor digest", []step{
			{shardReq("", ""), errRejected},
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
			}
		})
	}
}

// TestExecutorBoundsCircuits: the executor holds at most
// artifact.DefaultCapacity circuits, dropping the least recently used.
func TestExecutorBoundsCircuits(t *testing.T) {
	task := newTestTask(t, "c17")
	e := NewExecutor()
	req := func(i int, netlist string) *Request {
		name := fmt.Sprintf("c17-%d", i)
		return &Request{Name: name, Digest: digest(name, task.Netlist), Netlist: netlist, Seed: task.Seed,
			Kind: KindDetect, NumPatterns: 64, GroupHi: task.Remote.NumGroups(), BlockHi: 1}
	}
	for i := 0; i <= artifact.DefaultCapacity; i++ {
		if _, err := e.Run(context.Background(), req(i, task.Netlist)); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.lru.Len(); n != artifact.DefaultCapacity || len(e.circuits) != n {
		t.Fatalf("executor holds %d circuits (%d digests), want %d", n, len(e.circuits), artifact.DefaultCapacity)
	}
	if _, err := e.Run(context.Background(), req(0, "")); !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("least recently used circuit still held: %v", err)
	}
	if _, err := e.Run(context.Background(), req(artifact.DefaultCapacity, "")); err != nil {
		t.Fatalf("most recent circuit dropped: %v", err)
	}
}
