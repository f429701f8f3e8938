package shard

import (
	"context"
	"fmt"
	"sync"
)

// Policy describes the faults ChaosTransport injects for one worker
// address.  Counters are per-address and 1-based: ErrEvery = 3 fails
// calls 3, 6, 9, …  The zero Policy injects nothing.
type Policy struct {
	// ErrEvery fails every n-th call with an injected error (0 = never).
	ErrEvery int
	// DropEvery swallows every n-th call: it blocks until the caller's
	// context expires and returns its error — a black-holed request the
	// per-attempt deadline has to catch (0 = never).
	DropEvery int
	// CrashAfter kills the worker after n successful-or-not calls: from
	// then on every call AND probe fails, like a dead process
	// (0 = never).
	CrashAfter int
	// RecoverAfter revives a crashed worker after n failed probes —
	// exercising ejection followed by probed re-admission (0 = stays
	// down).
	RecoverAfter int
}

// addrState is the per-address chaos bookkeeping.
type addrState struct {
	calls       int
	crashed     bool
	probesSince int // failed probes since the crash
}

// ChaosTransport wraps a Transport with deterministic fault injection,
// driven entirely by per-address call counts — no randomness, no
// timing sensitivity — so chaos tests reproduce exactly.
type ChaosTransport struct {
	// Inner handles the calls that survive injection.
	Inner Transport

	mu       sync.Mutex
	policies map[string]*Policy
	state    map[string]*addrState
}

// NewChaosTransport wraps inner with no policies installed.
func NewChaosTransport(inner Transport) *ChaosTransport {
	return &ChaosTransport{
		Inner:    inner,
		policies: make(map[string]*Policy),
		state:    make(map[string]*addrState),
	}
}

// SetPolicy installs (or replaces) the fault policy for addr and resets
// its counters.
func (c *ChaosTransport) SetPolicy(addr string, p Policy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policies[addr] = &p
	c.state[addr] = &addrState{}
}

// admitCall advances addr's call counter and decides this call's fate.
// It returns (drop, err): either block until ctx ends (drop), fail with
// err, or pass through.
func (c *ChaosTransport) admitCall(addr string) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.policies[addr]
	if p == nil {
		return false, nil
	}
	st := c.state[addr]
	st.calls++
	if p.CrashAfter > 0 && st.calls > p.CrashAfter && !st.crashed {
		st.crashed = true
	}
	if st.crashed {
		return false, fmt.Errorf("chaos: worker %s crashed", addr)
	}
	if p.DropEvery > 0 && st.calls%p.DropEvery == 0 {
		return true, nil
	}
	if p.ErrEvery > 0 && st.calls%p.ErrEvery == 0 {
		return false, fmt.Errorf("chaos: injected error on %s (call %d)", addr, st.calls)
	}
	return false, nil
}

// Do implements Transport.
func (c *ChaosTransport) Do(ctx context.Context, addr string, req *Request) (*Response, error) {
	drop, err := c.admitCall(addr)
	if drop {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return c.Inner.Do(ctx, addr, req)
}

// Probe implements Transport.  Probes of a crashed worker fail until
// RecoverAfter of them have, then the worker revives (counters reset).
func (c *ChaosTransport) Probe(ctx context.Context, addr string) error {
	c.mu.Lock()
	p := c.policies[addr]
	if p == nil {
		c.mu.Unlock()
		return c.Inner.Probe(ctx, addr)
	}
	st := c.state[addr]
	if st.crashed {
		st.probesSince++
		if p.RecoverAfter > 0 && st.probesSince >= p.RecoverAfter {
			*st = addrState{} // revived: fresh counters, next probe succeeds
		}
		c.mu.Unlock()
		return fmt.Errorf("chaos: worker %s crashed", addr)
	}
	c.mu.Unlock()
	return c.Inner.Probe(ctx, addr)
}
