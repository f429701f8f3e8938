package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"protest/internal/faultsim"
	"protest/internal/pattern"
)

// Config tunes a Pool.  The zero value of every field selects the
// documented default, so Config{Workers: addrs} is a working setup.
type Config struct {
	// Workers are the worker addresses shards are dispatched to.  An
	// empty list makes a permanently degraded pool: every run executes
	// locally.
	Workers []string
	// Transport executes shard calls (default: an HTTPTransport that
	// keeps up to MaxShards idle connections per worker).
	Transport Transport
	// ShardTimeout is the per-attempt deadline (default 30s).
	ShardTimeout time.Duration
	// MaxAttempts bounds remote attempts per shard before it falls back
	// to local execution (default 3).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attempts: attempt n waits ~BackoffBase·2ⁿ, jittered over
	// its top half, never more than BackoffMax (defaults 50ms, 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeAfter re-dispatches a shard to a second worker when the
	// first has not answered in this long; the first response wins and
	// the duplicate is discarded.  Default 2s; negative disables.
	HedgeAfter time.Duration
	// EjectAfter is the consecutive-failure count that ejects a worker
	// from dispatch (default 3).  Ejected workers are re-admitted by a
	// successful probe, or by a success from a still-in-flight attempt.
	EjectAfter int
	// ProbeInterval is how often ejected workers are probed for
	// re-admission (default 3s).
	ProbeInterval time.Duration
	// ShardsPerWorker scales the shard count: a run is cut into about
	// healthy-workers × ShardsPerWorker shards (default 4), bounded by
	// MaxShards (default 64), so one slow worker delays at most a
	// fraction of the run and retries move small units.
	ShardsPerWorker int
	MaxShards       int
	// Seed seeds the backoff jitter (default 1; any value is fine —
	// jitter affects timing only, never results).
	Seed uint64
	// SimWidth is the simulation width (faultsim.Options.Width: 1, 4 or
	// 8, or 0 for the engine-chosen schedule) stamped on every shard
	// request and used by degraded-local runs.  Width never changes
	// results, only how fast workers compute them.
	SimWidth int
}

func (c *Config) fill() {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 3 * time.Second
	}
	if c.ShardsPerWorker <= 0 {
		c.ShardsPerWorker = 4
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 64
	}
	if c.Transport == nil {
		// A run sends up to MaxShards shards at once; keeping as many
		// connections per worker alive stops every run from redialing.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = c.MaxShards
		c.Transport = NewHTTPTransport(&http.Client{Transport: tr})
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// worker is the health and accounting state of one worker address.
type worker struct {
	addr string

	ejected     atomic.Bool
	consecFails atomic.Int64

	shards       atomic.Int64 // successful shard responses
	failures     atomic.Int64 // failed attempts (timeouts included)
	retries      atomic.Int64 // attempts beyond a shard's first
	hedges       atomic.Int64 // hedged duplicates dispatched here
	ejections    atomic.Int64
	readmissions atomic.Int64
}

// Pool is the failure-aware coordinator.  Create one with NewPool,
// share it across any number of Sessions (all methods are safe for
// concurrent use), and release the re-admission prober with Close.
type Pool struct {
	cfg     Config
	tr      Transport
	workers []*worker

	rngMu sync.Mutex
	rng   *pattern.RNG

	runs           atomic.Int64
	degradedRuns   atomic.Int64
	shardsTotal    atomic.Int64
	retriesTotal   atomic.Int64
	hedgesTotal    atomic.Int64
	localFallbacks atomic.Int64
	circuitMisses  atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup
}

// NewPool creates a Pool and starts its re-admission prober.
func NewPool(cfg Config) *Pool {
	cfg.fill()
	p := &Pool{
		cfg:  cfg,
		tr:   cfg.Transport,
		rng:  pattern.NewRNG(cfg.Seed),
		stop: make(chan struct{}),
	}
	for _, addr := range cfg.Workers {
		p.workers = append(p.workers, &worker{addr: addr})
	}
	if len(p.workers) > 0 {
		p.probeWG.Add(1)
		go p.probeLoop()
	}
	return p
}

// Close stops the re-admission prober.  In-flight measurements are
// unaffected; the pool stays usable (probing merely stops).
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.probeWG.Wait()
}

// healthy counts workers currently eligible for dispatch.
func (p *Pool) healthy() int {
	n := 0
	for _, w := range p.workers {
		if !w.ejected.Load() {
			n++
		}
	}
	return n
}

// Degraded reports whether the pool currently has no healthy worker,
// i.e. runs execute locally in-process.
func (p *Pool) Degraded() bool { return p.healthy() == 0 }

// probeLoop periodically probes ejected workers and re-admits the ones
// that answer.
func (p *Pool) probeLoop() {
	defer p.probeWG.Done()
	tick := time.NewTicker(p.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			for _, w := range p.workers {
				if !w.ejected.Load() {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ShardTimeout)
				err := p.tr.Probe(ctx, w.addr)
				cancel()
				if err == nil {
					p.readmit(w)
				}
			}
		}
	}
}

// readmit marks a worker healthy again.
func (p *Pool) readmit(w *worker) {
	w.consecFails.Store(0)
	if w.ejected.CompareAndSwap(true, false) {
		w.readmissions.Add(1)
	}
}

// recordSuccess resets the worker's failure streak.  A success from a
// worker ejected meanwhile (the attempt was in flight) re-admits it —
// the worker has just proven itself.
func (p *Pool) recordSuccess(w *worker) {
	w.shards.Add(1)
	p.shardsTotal.Add(1)
	p.readmit(w)
}

// recordFailure accounts one failed attempt, ejecting the worker after
// EjectAfter consecutive failures.  Failures caused by the caller's
// own cancellation are not held against the worker.
func (p *Pool) recordFailure(parent context.Context, w *worker) {
	if parent.Err() != nil {
		return
	}
	w.failures.Add(1)
	if w.consecFails.Add(1) >= int64(p.cfg.EjectAfter) && w.ejected.CompareAndSwap(false, true) {
		w.ejections.Add(1)
	}
}

// pickWorker returns the first healthy worker scanning from start
// (shard index + attempt, so consecutive attempts rotate), or nil.
func (p *Pool) pickWorker(start int) *worker {
	n := len(p.workers)
	if n == 0 {
		return nil
	}
	if start < 0 {
		start = -start
	}
	for i := 0; i < n; i++ {
		if w := p.workers[(start+i)%n]; !w.ejected.Load() {
			return w
		}
	}
	return nil
}

// pickHedge returns a healthy worker other than the primary, or nil.
func (p *Pool) pickHedge(primary *worker) *worker {
	for _, w := range p.workers {
		if w != primary && !w.ejected.Load() {
			return w
		}
	}
	return nil
}

// backoff returns the pre-retry wait for attempt n (0-based): capped
// exponential, jittered over its top half so synchronized retries
// spread out.
func (p *Pool) backoff(attempt int) time.Duration {
	d := p.cfg.BackoffBase
	for i := 0; i < attempt && d < p.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > p.cfg.BackoffMax {
		d = p.cfg.BackoffMax
	}
	half := d / 2
	p.rngMu.Lock()
	j := time.Duration(p.rng.Uint64() % uint64(half+1))
	p.rngMu.Unlock()
	return half + j
}

// sleep waits d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// span is one shard's rectangle of the (group × block) grid.
type span struct {
	gLo, gHi, bLo, bHi int
}

// planShards cuts the grid into about `target` rectangles: the block
// axis is split first (block splits duplicate no good-circuit work),
// then the group axis.  The spans partition the grid exactly.
func planShards(numGroups, numBlocks, target, maxShards int) []span {
	if target > maxShards {
		target = maxShards
	}
	if target < 1 {
		target = 1
	}
	bp := numBlocks
	if bp > target {
		bp = target
	}
	gp := (target + bp - 1) / bp
	if gp*bp > maxShards {
		gp = maxShards / bp
		if gp < 1 {
			gp = 1
		}
	}
	if gp > numGroups {
		gp = numGroups
	}
	out := make([]span, 0, gp*bp)
	for gi := 0; gi < gp; gi++ {
		gLo, gHi := gi*numGroups/gp, (gi+1)*numGroups/gp
		for bi := 0; bi < bp; bi++ {
			bLo, bHi := bi*numBlocks/bp, (bi+1)*numBlocks/bp
			out = append(out, span{gLo, gHi, bLo, bHi})
		}
	}
	return out
}

// attempt runs one remote attempt of a shard against primary, hedging
// onto a second worker when the primary stalls past HedgeAfter.  The
// first valid response wins; a late duplicate lands in the buffered
// channel and is discarded, so the merge sees each shard exactly once,
// and a loser cancelled mid-flight never poisons its worker's health.
func (p *Pool) attempt(ctx context.Context, primary *worker, t *Task, req *Request) (*Response, error) {
	actx, cancel := context.WithTimeout(ctx, p.cfg.ShardTimeout)
	defer cancel()

	type result struct {
		resp *Response
		err  error
		w    *worker
	}
	ch := make(chan result, 2)
	launch := func(w *worker) {
		go func() {
			resp, err := p.send(actx, w, t, req)
			ch <- result{resp, err, w}
		}()
	}
	launch(primary)
	inFlight := 1

	var hedgeC <-chan time.Time
	if p.cfg.HedgeAfter > 0 {
		tm := time.NewTimer(p.cfg.HedgeAfter)
		defer tm.Stop()
		hedgeC = tm.C
	}

	want := t.faultsIn(req.GroupLo, req.GroupHi)
	var firstErr error
	for {
		select {
		case r := <-ch:
			inFlight--
			if r.err == nil && r.resp.Faults != want {
				r.err = fmt.Errorf("shard: worker %s returned %d faults for groups [%d,%d), want %d",
					r.w.addr, r.resp.Faults, req.GroupLo, req.GroupHi, want)
			}
			if r.err == nil {
				p.recordSuccess(r.w)
				return r.resp, nil
			}
			p.recordFailure(ctx, r.w)
			if firstErr == nil {
				firstErr = r.err
			}
			if inFlight == 0 {
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if h := p.pickHedge(primary); h != nil {
				p.hedgesTotal.Add(1)
				h.hedges.Add(1)
				inFlight++
				launch(h)
			}
		}
	}
}

// send runs req on w.  A worker that does not hold the request's
// circuit (it never received it, restarted, or evicted it) gets the
// shard once more with the netlist, under the same deadline, so a miss
// costs one round trip and never a retry.
func (p *Pool) send(ctx context.Context, w *worker, t *Task, req *Request) (*Response, error) {
	resp, err := p.tr.Do(ctx, w.addr, req)
	if !errors.Is(err, ErrUnknownCircuit) {
		return resp, err
	}
	p.circuitMisses.Add(1)
	full := *req
	full.Netlist = t.Netlist
	return p.tr.Do(ctx, w.addr, &full)
}

// runShardRemote drives one shard to completion: rotate attempts over
// healthy workers with backoff between them, and when every remote
// avenue is exhausted (attempts spent, or no healthy worker left),
// execute the shard locally — the result is bit-identical either way.
func (p *Pool) runShardRemote(ctx context.Context, t *Task, si int, req *Request) (*Response, error) {
	for attempt := 0; attempt < p.cfg.MaxAttempts; attempt++ {
		w := p.pickWorker(si + attempt)
		if w == nil {
			break
		}
		if attempt > 0 {
			p.retriesTotal.Add(1)
			w.retries.Add(1)
		}
		resp, err := p.attempt(ctx, w, t, req)
		if err == nil {
			return resp, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt+1 < p.cfg.MaxAttempts {
			if err := sleep(ctx, p.backoff(attempt)); err != nil {
				return nil, err
			}
		}
	}
	p.localFallbacks.Add(1)
	return runShard(ctx, t.Remote, req)
}

// dispatch fans the shards out concurrently and collects responses in
// shard order.  progress receives (completed shards, total shards).
func (p *Pool) dispatch(ctx context.Context, t *Task, base Request, shards []span, progress faultsim.Progress) ([]*Response, error) {
	resps := make([]*Response, len(shards))
	errs := make([]error, len(shards))
	var done atomic.Int64
	var wg sync.WaitGroup
	for si := range shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			req := base
			sp := shards[si]
			req.GroupLo, req.GroupHi, req.BlockLo, req.BlockHi = sp.gLo, sp.gHi, sp.bLo, sp.bHi
			resps[si], errs[si] = p.runShardRemote(ctx, t, si, &req)
			if progress != nil {
				progress(int(done.Add(1)), len(shards))
			}
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// MeasureDetection runs the P_SIM measurement (detection counts over
// numPatterns patterns) sharded across the pool's workers, returning a
// Result bit-identical to the serial in-process engine.  With zero
// healthy workers it degrades to a local serial run.
func (p *Pool) MeasureDetection(ctx context.Context, t *Task, probs []float64, numPatterns int, progress faultsim.Progress) (*faultsim.Result, error) {
	p.runs.Add(1)
	plan := t.Plan
	blocks := faultsim.DetectBlocks(numPatterns)
	healthy := p.healthy()
	if healthy == 0 || len(blocks) == 0 {
		if healthy == 0 {
			p.degradedRuns.Add(1)
		}
		gen, err := newGenerator(len(plan.Circuit().Inputs), probs, t.Seed)
		if err != nil {
			return nil, err
		}
		return plan.MeasureDetectionCtx(ctx, gen, numPatterns, faultsim.Options{Width: p.cfg.SimWidth}, progress)
	}

	shards := planShards(t.Remote.NumGroups(), len(blocks), healthy*p.cfg.ShardsPerWorker, p.cfg.MaxShards)
	base := Request{
		Name: t.Name, Digest: t.Digest, FaultModel: t.wireModel(),
		Seed: t.Seed, Probs: probs,
		Kind: KindDetect, NumPatterns: numPatterns, SimWidth: p.cfg.SimWidth,
	}
	resps, err := p.dispatch(ctx, t, base, shards, progress)
	if err != nil {
		return nil, err
	}

	// Responses are in the remote plan's fault order; t.perm routes each
	// count to its fault in the native plan.
	res := &faultsim.Result{
		Faults:   plan.Faults(),
		Detected: make([]int, len(plan.Faults())),
		Applied:  numPatterns,
	}
	for si, sp := range shards {
		k := 0
		for j := range t.perm {
			if g := t.Remote.GroupOf(j); g >= sp.gLo && g < sp.gHi {
				res.Detected[t.perm[j]] += resps[si].Counts[k]
				k++
			}
		}
	}
	return res, nil
}

// CoverageCurve runs the fault-dropping coverage measurement sharded
// across the pool's workers: each fault's first-detection position is
// min-merged over shards, and the curve computed from the merged
// positions is bit-identical to the serial engine's.
func (p *Pool) CoverageCurve(ctx context.Context, t *Task, probs []float64, checkpoints []int, progress faultsim.Progress) ([]faultsim.CoveragePoint, error) {
	p.runs.Add(1)
	plan := t.Plan
	blocks := faultsim.CurveBlocks(checkpoints)
	healthy := p.healthy()
	if healthy == 0 || len(blocks) == 0 {
		if healthy == 0 {
			p.degradedRuns.Add(1)
		}
		gen, err := newGenerator(len(plan.Circuit().Inputs), probs, t.Seed)
		if err != nil {
			return nil, err
		}
		return plan.CoverageCurveCtx(ctx, gen, checkpoints, faultsim.Options{Width: p.cfg.SimWidth}, progress)
	}

	shards := planShards(t.Remote.NumGroups(), len(blocks), healthy*p.cfg.ShardsPerWorker, p.cfg.MaxShards)
	base := Request{
		Name: t.Name, Digest: t.Digest, FaultModel: t.wireModel(),
		Seed: t.Seed, Probs: probs,
		Kind: KindCurve, Checkpoints: checkpoints, SimWidth: p.cfg.SimWidth,
	}
	resps, err := p.dispatch(ctx, t, base, shards, progress)
	if err != nil {
		return nil, err
	}

	// First-detection positions arrive in remote fault order; min-merge
	// them through t.perm into native order.
	total := len(plan.Faults())
	first := make([]int, total)
	for i := range first {
		first[i] = -1
	}
	for si, sp := range shards {
		k := 0
		for j := range t.perm {
			if g := t.Remote.GroupOf(j); g >= sp.gLo && g < sp.gHi {
				i := t.perm[j]
				if f := resps[si].First[k]; f >= 0 && (first[i] < 0 || f < first[i]) {
					first[i] = f
				}
				k++
			}
		}
	}

	// The curve from merged first positions: a fault is dead at
	// checkpoint cp iff its first detection lies at or before cp —
	// exactly the serial loop's drop accounting, including the float
	// expression.
	cps := append([]int(nil), checkpoints...)
	sortInts(cps)
	var out []faultsim.CoveragePoint
	for _, cp := range cps {
		dead := 0
		for _, f := range first {
			if f >= 0 && f <= cp {
				dead++
			}
		}
		out = append(out, faultsim.CoveragePoint{Patterns: cp, Coverage: 100 * float64(dead) / float64(total)})
	}
	return out, nil
}

// WorkerStats is one worker's health and traffic snapshot.
type WorkerStats struct {
	Addr         string `json:"addr"`
	Healthy      bool   `json:"healthy"`
	Shards       int64  `json:"shards"`
	Failures     int64  `json:"failures"`
	Retries      int64  `json:"retries"`
	Hedges       int64  `json:"hedges"`
	Ejections    int64  `json:"ejections"`
	Readmissions int64  `json:"readmissions"`
}

// Stats is a snapshot of the pool's counters; /healthz embeds it.
type Stats struct {
	// Degraded is true while no worker is healthy: runs execute
	// locally until a probe re-admits one.
	Degraded bool `json:"degraded"`
	// Runs counts sharded measurements; DegradedRuns the subset that
	// ran fully local for lack of healthy workers.
	Runs         int64 `json:"runs"`
	DegradedRuns int64 `json:"degraded_runs"`
	// Shards counts successful remote shard responses; Retries,
	// Hedges and LocalFallbacks the robustness-layer activations.
	Shards         int64 `json:"shards"`
	Retries        int64 `json:"retries"`
	Hedges         int64 `json:"hedges"`
	LocalFallbacks int64 `json:"local_fallbacks"`
	// CircuitMisses counts shards resent with their netlist because
	// the worker did not hold the circuit's digest.
	CircuitMisses int64         `json:"circuit_misses"`
	Workers       []WorkerStats `json:"workers"`
}

// Stats returns a snapshot of the pool's counters.  Counters are read
// individually, so a snapshot under traffic is approximate.
func (p *Pool) Stats() Stats {
	st := Stats{
		Degraded:       p.Degraded(),
		Runs:           p.runs.Load(),
		DegradedRuns:   p.degradedRuns.Load(),
		Shards:         p.shardsTotal.Load(),
		Retries:        p.retriesTotal.Load(),
		Hedges:         p.hedgesTotal.Load(),
		LocalFallbacks: p.localFallbacks.Load(),
		CircuitMisses:  p.circuitMisses.Load(),
	}
	for _, w := range p.workers {
		st.Workers = append(st.Workers, WorkerStats{
			Addr:         w.addr,
			Healthy:      !w.ejected.Load(),
			Shards:       w.shards.Load(),
			Failures:     w.failures.Load(),
			Retries:      w.retries.Load(),
			Hedges:       w.hedges.Load(),
			Ejections:    w.ejections.Load(),
			Readmissions: w.readmissions.Load(),
		})
	}
	return st
}

// sortInts is sort.Ints without dragging sort into every caller.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
