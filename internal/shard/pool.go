package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"protest/internal/circuit"
	"protest/internal/fault"
	"protest/internal/faultsim"
	"protest/internal/netlist"
	"protest/internal/pattern"
)

// Config configures a Pool.  Config{Workers: addrs} is a working
// setup; the deadline, retry, ejection and probe timings are fixed
// (see the package's Robustness section).
type Config struct {
	// Workers are the worker addresses shards are dispatched to.  An
	// empty list makes a permanently degraded pool: every run executes
	// locally.
	Workers []string
	// Transport executes shard calls (default: an HTTPTransport that
	// keeps up to 64 idle connections per worker, as many as one run
	// sends at once).
	Transport Transport
	// Seed seeds the backoff jitter (default 1; any value is fine —
	// jitter affects timing only, never results).
	Seed uint64

	// The pool's timings.  Zero selects the default; only this
	// package's tests shorten them.
	shardTimeout            time.Duration // per-attempt deadline (30s)
	maxAttempts             int           // remote attempts per shard before it runs locally (3)
	backoffBase, backoffMax time.Duration // bounds of the pre-retry wait (50ms, 2s; see backoff)
	ejectAfter              int           // consecutive failures that eject a worker (3)
	probeInterval           time.Duration // how often ejected workers are probed for re-admission (3s)
}

// A run is cut into about healthy-workers × shardsPerWorker shards, at
// most maxShards, so one slow worker delays at most a fraction of the
// run and retries move small units.
const (
	shardsPerWorker = 4
	maxShards       = 64
)

func (c *Config) fill() {
	if c.shardTimeout <= 0 {
		c.shardTimeout = 30 * time.Second
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = 3
	}
	if c.backoffBase <= 0 {
		c.backoffBase = 50 * time.Millisecond
	}
	if c.backoffMax <= 0 {
		c.backoffMax = 2 * time.Second
	}
	if c.ejectAfter <= 0 {
		c.ejectAfter = 3
	}
	if c.probeInterval <= 0 {
		c.probeInterval = 3 * time.Second
	}
	if c.Transport == nil {
		// A run sends up to maxShards shards at once; keeping as many
		// connections per worker alive stops every run from redialing.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = maxShards
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
	tick := time.NewTicker(p.cfg.probeInterval)
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
				ctx, cancel := context.WithTimeout(context.Background(), p.cfg.shardTimeout)
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
// ejectAfter consecutive failures.  Failures caused by the caller's
// own cancellation are not held against the worker.
func (p *Pool) recordFailure(parent context.Context, w *worker) {
	if parent.Err() != nil {
		return
	}
	w.failures.Add(1)
	if w.consecFails.Add(1) >= int64(p.cfg.ejectAfter) && w.ejected.CompareAndSwap(false, true) {
		w.ejections.Add(1)
	}
}

// pickWorker returns the first healthy worker scanning from start
// (shard index + attempt, so consecutive attempts rotate), or nil.
func (p *Pool) pickWorker(start int) *worker {
	n := len(p.workers)
	for i := 0; i < n; i++ {
		if w := p.workers[(start+i)%n]; !w.ejected.Load() {
			return w
		}
	}
	return nil
}

// backoff returns the pre-retry wait for attempt n (0-based): capped
// exponential, jittered over its top half so synchronized retries
// spread out.
func (p *Pool) backoff(attempt int) time.Duration {
	d := p.cfg.backoffBase
	for i := 0; i < attempt && d < p.cfg.backoffMax; i++ {
		d *= 2
	}
	if d > p.cfg.backoffMax {
		d = p.cfg.backoffMax
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

// span is one shard's half-open range of the run's block schedule.
type span struct{ lo, hi int }

// planShards cuts numBlocks blocks into about target ranges, at most
// maxShards, and only at multiples of faultsim.ChunkBlocks, the blocks
// of one measurement chunk, so the shards simulate exactly the chunks
// a local run would.  A cut inside a chunk would instead simulate its
// blocks in two padded chunks, each costing about as much as a full
// one.  The spans partition the blocks in order.
func planShards(numBlocks, target, maxShards int) []span {
	const chunk = faultsim.ChunkBlocks
	chunks := (numBlocks + chunk - 1) / chunk
	n := min(chunks, max(target, 1), maxShards)
	out := make([]span, n)
	for i := range out {
		out[i] = span{chunk * (i * chunks / n), min(chunk*((i+1)*chunks/n), numBlocks)}
	}
	return out
}

// wire is a circuit's form on the shard wire: the netlist workers
// decode and the digest requests name it by.  err is set when the
// circuit has none.
type wire struct {
	netlist, digest string
	err             error
}

// wireKey keys the wire form among a circuit's derived values.
type wireKey struct{}

// wireOf returns the circuit's wire form, rendered once per circuit and
// shared by every fault model's runs.  Workers merge by the
// coordinator's fault index, so the form exists only when the
// rendering decodes to exactly c.
func wireOf(c *circuit.Circuit) *wire {
	return c.Derived(wireKey{}, func() any {
		src, err := netlist.String(c)
		if err == nil {
			var d *circuit.Circuit
			if d, err = netlist.Decode(src, c.Name); err == nil && !circuit.Equal(d, c) {
				err = errors.New("netlist: rendering does not decode to the circuit")
			}
		}
		if err != nil {
			return &wire{err: err}
		}
		return &wire{netlist: src, digest: Digest(c.Name, src)}
	}).(*wire)
}

// attempt runs one remote attempt of a shard on w under the
// per-attempt deadline.  A response that fails Response.check against
// the run's blocks and the plan's want faults is a failed attempt.
func (p *Pool) attempt(ctx context.Context, w *worker, src string, blocks faultsim.Schedule, req *Request, want int) (*Response, error) {
	actx, cancel := context.WithTimeout(ctx, p.cfg.shardTimeout)
	defer cancel()
	resp, err := p.send(actx, w, src, req)
	if err == nil {
		if err = resp.check(req, want, blocks); err != nil {
			err = fmt.Errorf("shard: worker %s: bad response for blocks [%d,%d): %w", w.addr, req.BlockLo, req.BlockHi, err)
		}
	}
	if err != nil {
		p.recordFailure(ctx, w)
		return nil, err
	}
	p.recordSuccess(w)
	return resp, nil
}

// send runs req on w.  A worker that does not hold the request's
// circuit (it never received it, restarted, or evicted it) gets the
// shard once more with the netlist src, under the same deadline, so a
// miss costs one round trip and never a retry.
func (p *Pool) send(ctx context.Context, w *worker, src string, req *Request) (*Response, error) {
	resp, err := p.tr.Do(ctx, w.addr, req)
	if !errors.Is(err, ErrUnknownCircuit) {
		return resp, err
	}
	p.circuitMisses.Add(1)
	full := *req
	full.Netlist = src
	return p.tr.Do(ctx, w.addr, &full)
}

// runShardRemote drives one shard to completion: rotate attempts over
// healthy workers with backoff between them, and when every remote
// avenue is exhausted (attempts spent, or no healthy worker left),
// execute the shard locally — the result is bit-identical either way.
func (p *Pool) runShardRemote(ctx context.Context, plan *faultsim.Plan, src string, blocks faultsim.Schedule, si int, req *Request) (*Response, error) {
	for attempt := 0; attempt < p.cfg.maxAttempts; attempt++ {
		w := p.pickWorker(si + attempt)
		if w == nil {
			break
		}
		if attempt > 0 {
			p.retriesTotal.Add(1)
			w.retries.Add(1)
		}
		resp, err := p.attempt(ctx, w, src, blocks, req, len(plan.Faults()))
		if err == nil {
			return resp, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt+1 < p.cfg.maxAttempts {
			if err := sleep(ctx, p.backoff(attempt)); err != nil {
				return nil, err
			}
		}
	}
	p.localFallbacks.Add(1)
	return runShard(ctx, plan, req)
}

// start opens a measurement of numBlocks blocks over circuit c.  It
// returns c's wire form and the number of healthy workers to shard
// the run across, or 0 when the run must execute locally: no healthy
// worker, no blocks, or a circuit without a wire form.
func (p *Pool) start(c *circuit.Circuit, numBlocks int) (*wire, int) {
	p.runs.Add(1)
	healthy := p.healthy()
	if healthy == 0 {
		p.degradedRuns.Add(1)
	}
	w := wireOf(c)
	if numBlocks == 0 || w.err != nil {
		return w, 0
	}
	return w, healthy
}

// dispatch cuts a run of blocks into shards, fans them out
// concurrently and collects the responses in shard order.  src is the
// netlist sent to workers that miss the circuit's digest; progress
// receives (completed shards, total shards).
func (p *Pool) dispatch(ctx context.Context, plan *faultsim.Plan, src string, base Request, blocks faultsim.Schedule, healthy int, progress faultsim.Progress) ([]*Response, error) {
	shards := planShards(blocks.Len(), healthy*shardsPerWorker, maxShards)
	resps := make([]*Response, len(shards))
	errs := make([]error, len(shards))
	var done atomic.Int64
	var wg sync.WaitGroup
	for si, sp := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := base
			req.BlockLo, req.BlockHi = sp.lo, sp.hi
			resps[si], errs[si] = p.runShardRemote(ctx, plan, src, blocks, si, &req)
			if progress != nil {
				progress(int(done.Add(1)), len(shards))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// measure runs req's measurement over its whole block schedule and
// returns the responses to merge: one per shard, or, with zero healthy
// workers or for a circuit without a wire form, one from a local run
// with opt.  It fills req's circuit fields.
func (p *Pool) measure(ctx context.Context, plan *faultsim.Plan, req Request, opt faultsim.Options, progress faultsim.Progress) ([]*Response, error) {
	c := plan.Circuit()
	blocks := req.schedule()
	w, healthy := p.start(c, blocks.Len())
	if healthy == 0 {
		gen, err := newGenerator(len(c.Inputs), req.Probs, req.Seed)
		if err != nil {
			return nil, err
		}
		resp, err := measureBody(ctx, plan, req.Kind, gen, blocks, opt, progress)
		if err != nil {
			return nil, err
		}
		return []*Response{resp}, nil
	}
	req.Name, req.Digest = c.Name, w.digest
	return p.dispatch(ctx, plan, w.netlist, req, blocks, healthy, progress)
}

// MeasureDetection runs the P_SIM measurement (detection counts over
// numPatterns patterns of the seed's stream, weighted by probs when
// non-nil) of a plan over model's universe sharded across the pool's
// workers, returning a Result bit-identical to the in-process engine.
// The plan must enumerate model's universe of its circuit (normalized,
// as artifact.Store.SimPlanFor builds it): workers derive their plan
// from the circuit and model, and the merge adds their counts by fault
// index.  opt is the run's faultsim.Options: shards simulate
// serially, also when one falls back to local execution, since shards
// already run concurrently.  With zero healthy workers, or for a
// circuit without a wire form, the whole run executes locally with
// opt.
func (p *Pool) MeasureDetection(ctx context.Context, plan *faultsim.Plan, model fault.Model, seed uint64, probs []float64, numPatterns int, opt faultsim.Options, progress faultsim.Progress) (*faultsim.Result, error) {
	resps, err := p.measure(ctx, plan, Request{
		FaultModel: string(model), Seed: seed, Probs: probs, Kind: KindDetect, NumPatterns: numPatterns,
	}, opt, progress)
	if err != nil {
		return nil, err
	}
	counts := resps[0].Counts
	for _, r := range resps[1:] {
		for i, n := range r.Counts {
			counts[i] += n
		}
	}
	return &faultsim.Result{Faults: plan.Faults(), Detected: counts, Applied: numPatterns}, nil
}

// CoverageCurve runs the fault-dropping coverage measurement sharded
// across the pool's workers: each fault's first-detection position is
// min-merged over shards, and faultsim.CurveOf turns the merged
// positions into the curve, bit-identical to the in-process engine's.
// The arguments and the local cases are those of MeasureDetection.
func (p *Pool) CoverageCurve(ctx context.Context, plan *faultsim.Plan, model fault.Model, seed uint64, probs []float64, checkpoints []int, opt faultsim.Options, progress faultsim.Progress) ([]faultsim.CoveragePoint, error) {
	resps, err := p.measure(ctx, plan, Request{
		FaultModel: string(model), Seed: seed, Probs: probs, Kind: KindCurve, Checkpoints: checkpoints,
	}, opt, progress)
	if err != nil {
		return nil, err
	}
	first := resps[0].First
	for _, r := range resps[1:] {
		for i, f := range r.First {
			if f >= 0 && (first[i] < 0 || f < first[i]) {
				first[i] = f
			}
		}
	}
	return faultsim.CurveOf(first, checkpoints), nil
}

// WorkerStats is one worker's health and traffic snapshot.
type WorkerStats struct {
	Addr         string `json:"addr"`
	Healthy      bool   `json:"healthy"`
	Shards       int64  `json:"shards"`
	Failures     int64  `json:"failures"`
	Retries      int64  `json:"retries"`
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
	// Shards counts successful remote shard responses; Retries and
	// LocalFallbacks the robustness-layer activations.
	Shards         int64 `json:"shards"`
	Retries        int64 `json:"retries"`
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
			Ejections:    w.ejections.Load(),
			Readmissions: w.readmissions.Load(),
		})
	}
	return st
}
