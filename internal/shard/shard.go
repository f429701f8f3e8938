// Package shard distributes PROTEST fault simulation across worker
// processes without ever changing a result: a coordinator (Pool)
// splits one measurement into (FFR-group × pattern-block) shards,
// dispatches them to workers over a pluggable Transport, and merges
// the responses into exactly the Result or coverage curve the
// in-process serial engine produces.
//
// # Exactness
//
// Every quantity the engines measure decomposes over the shard grid:
//
//   - detection counts are sums of per-block popcounts, so disjoint
//     block ranges add and disjoint group ranges concatenate;
//   - a coverage curve is determined by each fault's first-detection
//     position (the cumulative pattern count of the block that first
//     detects it), which merges across shards by minimum;
//   - the pattern stream itself is positionable: block k of a seeded
//     generator is reproduced remotely by seeding the same generator
//     and skipping k blocks (pattern.Generator.SkipBlocks), and the
//     per-block valid masks derive from faultsim.DetectBlocks /
//     CurveBlocks on both sides.
//
// Workers reconstruct the coordinator's exact fault universe from the
// circuit netlist alone: fault collapse and FFR partitioning are
// deterministic functions of the circuit, so fault order, group
// numbering and block schedule agree without negotiation.
//
// Requests are content-addressed: they name the circuit by a digest of
// its name and netlist, and a worker that has never seen (or has
// evicted) that digest answers ErrUnknownCircuit, whereupon the
// coordinator resends the shard once with the netlist.  Workers verify
// the digest of every netlist they receive, so a circuit cached under a
// digest is the one that digest names.
//
// # Robustness
//
// The Pool assumes workers fail: every shard attempt runs under its
// own deadline, failures retry on the next healthy worker with capped
// exponential backoff plus jitter, stragglers are hedged onto a second
// worker (first response wins, the duplicate is discarded), workers
// accumulating consecutive failures are ejected and probed back in,
// and a shard that exhausts its remote attempts falls back to local
// in-process execution.  With zero healthy workers the whole run
// degrades to the local serial engine — callers always get an exact
// answer, merely slower.  ChaosTransport injects drop/delay/error/
// crash-after-N faults deterministically for the tests that prove all
// of this keeps results bit-identical.
package shard

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/bits"

	"protest/internal/faultsim"
	"protest/internal/pattern"
	"protest/internal/widesim"
)

// Kind selects the measurement a shard request contributes to.
type Kind string

// The measurement kinds.
const (
	// KindDetect counts detecting patterns per fault (P_SIM).
	KindDetect Kind = "detect"
	// KindCurve finds each fault's first-detection position for a
	// fault-dropping coverage curve.
	KindCurve Kind = "curve"
)

// Request is one shard of a measurement — the body of POST /v1/shard.
// The run-level fields (circuit, seed, probs, pattern budget or
// checkpoints) are identical across every shard of a run; GroupLo/Hi
// and BlockLo/Hi select this shard's rectangle of the (FFR group ×
// pattern block) grid.  Both halves are half-open ranges.
type Request struct {
	// Name and Netlist identify the circuit; the worker reconstructs
	// fault list, FFR partition and simulation plan from them.  Digest
	// is the content address of the pair (see digest): a worker that
	// holds it needs no Netlist, so a Pool sends the netlist only after
	// the worker answered ErrUnknownCircuit.  A worker rejects a netlist
	// that does not match a Digest sent with it; a request without a
	// Digest (from a coordinator predating digests) must carry the
	// netlist.
	Name    string `json:"name"`
	Digest  string `json:"digest,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	// Seed seeds the pattern stream; Probs are the per-input pattern
	// probabilities (nil = uniform p = 0.5).  JSON round-trips float64
	// exactly, so weighted streams stay bit-identical across the wire.
	Seed  uint64    `json:"seed"`
	Probs []float64 `json:"probs,omitempty"`

	// FaultModel names the fault universe of the run ("stuck-at",
	// "bridging", "transition"); empty means stuck-at, so pre-model
	// coordinators and workers interoperate unchanged.  The worker
	// re-derives the universe deterministically from the netlist, and
	// fault names — which survive the netlist round-trip — stay the
	// merge key.
	FaultModel string `json:"fault_model,omitempty"`

	Kind Kind `json:"kind"`
	// NumPatterns is the run's total pattern budget (KindDetect).
	NumPatterns int `json:"num_patterns,omitempty"`
	// Checkpoints are the run's coverage checkpoints (KindCurve).
	Checkpoints []int `json:"checkpoints,omitempty"`

	GroupLo int `json:"group_lo"`
	GroupHi int `json:"group_hi"`
	BlockLo int `json:"block_lo"`
	BlockHi int `json:"block_hi"`

	// SimWidth is the simulation width (faultsim.Options.Width): 0 lets
	// the worker pick its chunk schedule, 1, 4 or 8 force that many
	// blocks per sweep.  Width is a local execution detail — every
	// width computes bit-identical counts — so coordinator and workers
	// may even disagree on it without changing a merged result.
	SimWidth int `json:"sim_width,omitempty"`
}

// Response is one shard's partial result.  Faults is the number of
// faults in the shard's group range — the coordinator cross-checks it
// against its own plan, so a worker that reconstructed a different
// fault universe is rejected rather than merged.
type Response struct {
	Faults int `json:"faults"`
	// Counts (KindDetect) is the number of valid patterns within the
	// shard's blocks detecting each fault of the group range, in
	// ascending fault-index order.
	Counts []int `json:"counts,omitempty"`
	// First (KindCurve) is each fault's first-detection position — the
	// cumulative pattern count of the earliest shard block detecting it
	// — or -1 when the shard's blocks never detect it.
	First []int `json:"first,omitempty"`
}

// digest is the content address of a circuit on the wire: the hex
// SHA-256 of its name and netlist, each prefixed by its length, so no
// two (name, netlist) pairs share an encoding.
func digest(name, netlist string) string {
	h := sha256.New()
	var n [8]byte
	for _, s := range []string{name, netlist} {
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// validate checks a request's shard geometry against the schedule its
// run-level fields imply.
func (req *Request) validate(plan *faultsim.Plan, blocks []faultsim.BlockSpan) error {
	switch req.Kind {
	case KindDetect, KindCurve:
	default:
		return fmt.Errorf("shard: unknown kind %q", req.Kind)
	}
	if req.GroupLo < 0 || req.GroupHi > plan.NumGroups() || req.GroupLo >= req.GroupHi {
		return fmt.Errorf("shard: group range [%d,%d) outside %d groups", req.GroupLo, req.GroupHi, plan.NumGroups())
	}
	if req.BlockLo < 0 || req.BlockHi > len(blocks) || req.BlockLo >= req.BlockHi {
		return fmt.Errorf("shard: block range [%d,%d) outside %d blocks", req.BlockLo, req.BlockHi, len(blocks))
	}
	if err := widesim.CheckWidth(req.SimWidth); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// schedule derives the run's block schedule from the request.
func (req *Request) schedule() []faultsim.BlockSpan {
	if req.Kind == KindCurve {
		return faultsim.CurveBlocks(req.Checkpoints)
	}
	return faultsim.DetectBlocks(req.NumPatterns)
}

// generator builds the run's seeded pattern source for a circuit with
// nInputs inputs.
func newGenerator(nInputs int, probs []float64, seed uint64) (*pattern.Generator, error) {
	if probs == nil {
		return pattern.NewUniform(nInputs, seed), nil
	}
	if len(probs) != nInputs {
		return nil, fmt.Errorf("shard: %d probabilities for %d inputs", len(probs), nInputs)
	}
	return pattern.NewWeighted(probs, seed)
}

// groupFaults returns the indices of the plan's faults whose FFR group
// lies in [lo, hi), in ascending fault order — the order Response
// slices use.
func groupFaults(plan *faultsim.Plan, lo, hi int) []int {
	var idx []int
	for i := range plan.Faults() {
		if g := plan.GroupOf(i); g >= lo && g < hi {
			idx = append(idx, i)
		}
	}
	return idx
}

// runShard executes one shard request against a resolved plan — the
// worker's core, shared by the coordinator's local fallback so a shard
// computes the same bits wherever it runs.
func runShard(ctx context.Context, plan *faultsim.Plan, req *Request) (*Response, error) {
	blocks := req.schedule()
	if err := req.validate(plan, blocks); err != nil {
		return nil, err
	}
	c := plan.Circuit()
	gen, err := newGenerator(len(c.Inputs), req.Probs, req.Seed)
	if err != nil {
		return nil, err
	}
	gen.SkipBlocks(req.BlockLo)

	idx := groupFaults(plan, req.GroupLo, req.GroupHi)
	resp := &Response{Faults: len(idx)}
	if len(idx) == 0 {
		return resp, nil // only empty FFR groups in range
	}

	live := make([]bool, plan.NumGroups())
	var visit faultsim.BlockVisitor
	switch req.Kind {
	case KindDetect:
		for g := req.GroupLo; g < req.GroupHi; g++ {
			live[g] = true
		}
		counts := make([]int, len(idx))
		visit = func(j int, det []uint64, stride, lane int) bool {
			mask := blocks[req.BlockLo+j].Mask
			for k, i := range idx {
				counts[k] += bits.OnesCount64(det[i*stride+lane] & mask)
			}
			return true
		}
		resp.Counts = counts

	case KindCurve:
		// Fault dropping at FFR granularity, restricted to this shard's
		// faults: once every in-range fault of a group has a first
		// position the group is skipped, exactly like the serial loop.
		// (A fault another shard detected earlier stays "live" here; the
		// extra work is invisible after the min-merge.)  A chunk runs
		// against the live set of its start, which only skips work:
		// a fault whose group died mid-chunk already has its first
		// position.
		liveCount := make([]int, plan.NumGroups())
		for _, i := range idx {
			g := plan.GroupOf(i)
			liveCount[g]++
			live[g] = true
		}
		first := make([]int, len(idx))
		for k := range first {
			first[k] = -1
		}
		remaining := len(idx)
		visit = func(j int, det []uint64, stride, lane int) bool {
			blk := blocks[req.BlockLo+j]
			for k, i := range idx {
				if first[k] >= 0 || det[i*stride+lane]&blk.Mask == 0 {
					continue
				}
				first[k] = blk.End
				remaining--
				g := plan.GroupOf(i)
				liveCount[g]--
				if liveCount[g] == 0 {
					live[g] = false
				}
			}
			return remaining > 0
		}
		resp.First = first
	}
	if err := plan.RunBlocks(ctx, gen, req.BlockHi-req.BlockLo, req.SimWidth, 1, live, visit); err != nil {
		return nil, err
	}
	return resp, nil
}
