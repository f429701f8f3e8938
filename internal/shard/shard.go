// Package shard distributes PROTEST fault simulation across worker
// processes without ever changing a result: a coordinator (Pool)
// cuts one measurement's block schedule into ranges of 64-pattern
// blocks, dispatches them to workers over a pluggable Transport, and
// merges the responses into exactly the Result or coverage curve the
// in-process engine produces.
//
// # Exactness
//
// A shard runs the local measurement's own body over its block range:
// faultsim.Plan.DetectionCounts for detection counts,
// faultsim.Plan.FirstDetections for a coverage curve.  Both quantities
// decompose over block ranges:
//
//   - detection counts are sums of per-block popcounts, so the counts
//     of disjoint block ranges add;
//   - a coverage curve is determined by each fault's first-detection
//     position (the cumulative pattern count of the block that first
//     detects it), which merges across ranges by minimum, and
//     faultsim.CurveOf turns the merged positions into the curve;
//   - the pattern stream itself is positionable: block k of a seeded
//     generator is reproduced remotely by seeding the same generator
//     and skipping k blocks (pattern.Generator.SkipBlocks), and the
//     per-block valid masks derive from faultsim.DetectBlocks /
//     CurveBlocks on both sides.
//
// Workers reconstruct the coordinator's exact circuit from its netlist:
// netlist.Write renders nodes in node-ID order and netlist.Decode
// numbers them in statement order, so the worker's circuit is
// circuit.Equal to the coordinator's.  Fault enumeration is a
// deterministic function of the circuit, so fault order and block
// schedule agree without negotiation, and every response vector has
// one entry per fault of the coordinator's plan, in its order.  A
// circuit whose rendering does not decode to exactly it (a truth-table
// gate, a node name the syntax cannot carry) has no wire form, and its
// runs stay local.
//
// # Cost
//
// A shard should cost what its simulation costs.  Block ranges are cut
// only at multiples of the measurement chunk (faultsim.ChunkBlocks),
// so shards simulate exactly the chunks a local run would.  Two
// consequences are accepted: a run of at most one chunk is one shard,
// so a short run does not spread over several workers; and a curve
// shard after the first re-detects faults that an earlier range
// already found, extra work the min-merge hides.  Responses carry
// their per-fault vectors packed (Vector), so the coordinator decodes
// one base64 string per shard instead of one JSON number per fault.
//
// Requests are content-addressed: they name the circuit by a digest of
// its name and netlist, and a worker that has never seen (or has
// evicted) that digest answers ErrUnknownCircuit, whereupon the
// coordinator resends the shard once with the netlist.  Workers verify
// the digest of every netlist they receive, so a circuit cached under a
// digest is the one that digest names.  Every digest starts with the
// wire version, and workers reject requests without it, so peers that
// cut shards differently never merge each other's responses.
//
// # Robustness
//
// The Pool assumes workers fail: every shard attempt is one call under
// its own deadline, failures retry on the next healthy worker with
// capped exponential backoff plus jitter, workers accumulating
// consecutive failures are ejected and probed back in, and a shard
// that exhausts its remote attempts falls back to local in-process
// execution of the same body.  With zero healthy workers the whole run
// degrades to the local engine — callers always get an exact answer,
// merely slower.  A response that does not decode, or whose vector or
// values no correct worker could send (Response.check), is a failed
// attempt like any other.  A caller's own cancellation is never held
// against a worker.  The package's tests inject dropped calls, errors
// and crashes deterministically to prove all of this keeps results
// bit-identical.
package shard

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"

	"protest/internal/faultsim"
	"protest/internal/pattern"
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
// checkpoints) are identical across every shard of a run; BlockLo and
// BlockHi select this shard's half-open range of the run's block
// schedule.
type Request struct {
	// Name and Netlist identify the circuit; the worker decodes the
	// netlist and derives fault list, FFR partition and simulation plan
	// from it.  Digest is the content address of the pair (see Digest)
	// and every request carries one: a worker that holds it needs no
	// Netlist, so a Pool sends the netlist only after the worker
	// answered ErrUnknownCircuit.  A worker rejects a request without a
	// digest of its wire version, and a netlist that does not match
	// its digest.
	Name    string `json:"name"`
	Digest  string `json:"digest,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	// Seed seeds the pattern stream; Probs are the per-input pattern
	// probabilities (nil = uniform p = 0.5).  JSON round-trips float64
	// exactly, so weighted streams stay bit-identical across the wire.
	Seed  uint64    `json:"seed"`
	Probs []float64 `json:"probs,omitempty"`

	// FaultModel names the fault universe of the run ("stuck-at",
	// "bridging", "transition"; empty means stuck-at).  The worker
	// re-derives the universe deterministically from the circuit.
	FaultModel string `json:"fault_model,omitempty"`

	Kind Kind `json:"kind"`
	// NumPatterns is the run's total pattern budget (KindDetect).
	NumPatterns int `json:"num_patterns,omitempty"`
	// Checkpoints are the run's coverage checkpoints (KindCurve).
	Checkpoints []int `json:"checkpoints,omitempty"`

	BlockLo int `json:"block_lo"`
	BlockHi int `json:"block_hi"`
}

// Response is one shard's partial result.  Faults is the number of
// faults in the worker's plan.  The coordinator merges a response only
// if it passes check against its own plan, so a worker that
// reconstructed a different fault universe, or sent a vector of the
// wrong length or with values no shard can produce, is rejected rather
// than merged.
type Response struct {
	Faults int `json:"faults"`
	// Counts (KindDetect) is the number of valid patterns within the
	// shard's blocks detecting each fault, in plan order.
	Counts Vector `json:"counts,omitempty"`
	// First (KindCurve) is each fault's first-detection position — the
	// cumulative pattern count (BlockSpan.End) of the earliest shard
	// block detecting it — or -1 when the shard's blocks never detect
	// it.
	First Vector `json:"first,omitempty"`
}

// Vector is an int vector packed for the wire: every entry a zigzag
// varint (binary.AppendVarint), the bytes one standard base64 JSON
// string.  Decoding it costs a fraction of decoding a JSON array of
// numbers.  Any int, negative or large, round-trips, so range checks
// see exactly what a worker sent.  A peer that still sends or expects
// a JSON array fails to decode the other side's body, and the pool
// treats that as a failed attempt.
type Vector []int

// MarshalText implements encoding.TextMarshaler.
func (v Vector) MarshalText() ([]byte, error) {
	raw := make([]byte, 0, 2*len(v)) // counts under 8192 take two bytes
	for _, x := range v {
		raw = binary.AppendVarint(raw, int64(x))
	}
	out := make([]byte, base64.StdEncoding.EncodedLen(len(raw)))
	base64.StdEncoding.Encode(out, raw)
	return out, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.  An empty text
// decodes to a nil Vector, as an empty one encodes to nothing.
func (v *Vector) UnmarshalText(text []byte) error {
	raw, err := base64.StdEncoding.AppendDecode(nil, text)
	if err != nil {
		return fmt.Errorf("shard: vector: %w", err)
	}
	n := 0 // a varint's last byte is its only one below 0x80
	for _, b := range raw {
		if b < 0x80 {
			n++
		}
	}
	var out Vector
	if n > 0 {
		out = make(Vector, 0, n)
	}
	for len(raw) > 0 {
		x, k := binary.Varint(raw)
		if k <= 0 || int64(int(x)) != x {
			return errors.New("shard: vector: malformed varint")
		}
		out = append(out, int(x))
		raw = raw[k:]
	}
	*v = out
	return nil
}

// check reports why resp cannot answer req, or nil when it can.  The
// coordinator's plan holds want faults and the request's blocks index
// the run's schedule.  The fault count must match, the kind's vector
// must have one entry per fault, every count must lie in [0, the
// shard's valid patterns], and every first position must be -1 or the
// End of a block of the shard.
func (resp *Response) check(req *Request, want int, blocks faultsim.Schedule) error {
	if resp.Faults != want {
		return fmt.Errorf("%d faults, want %d", resp.Faults, want)
	}
	own := blocks.Range(req.BlockLo, req.BlockHi)
	switch req.Kind {
	case KindDetect:
		if len(resp.Counts) != want {
			return fmt.Errorf("%d counts for %d faults", len(resp.Counts), want)
		}
		patterns := own.Block(own.Len() - 1).End
		if req.BlockLo > 0 {
			patterns -= blocks.Block(req.BlockLo - 1).End
		}
		for _, n := range resp.Counts {
			if n < 0 || n > patterns {
				return fmt.Errorf("count %d outside [0, %d]", n, patterns)
			}
		}
	case KindCurve:
		if len(resp.First) != want {
			return fmt.Errorf("%d first positions for %d faults", len(resp.First), want)
		}
		for _, f := range resp.First {
			if f == -1 {
				continue
			}
			if j := sort.Search(own.Len(), func(j int) bool { return own.Block(j).End >= f }); j == own.Len() || own.Block(j).End != f {
				return fmt.Errorf("first position %d ends no block of the shard", f)
			}
		}
	}
	return nil
}

// wireVersion starts every digest.  It names the wire's circuit
// encoding, nodes in node-ID order (netlist.Decode), on which the
// merge by fault index rests, and the shard geometry, block ranges cut
// on faultsim.ChunkBlocks with one vector entry per plan fault.  v4
// requests carry no simulation width: every shard runs the one
// measurement schedule.
const wireVersion = "v4:"

// Digest is the content address of a circuit on the wire: the wire
// version followed by the hex SHA-256 of its name and netlist, each
// prefixed by its length, so no two (name, netlist) pairs share an
// encoding.
func Digest(name, netlist string) string {
	h := sha256.New()
	var n [8]byte
	for _, s := range []string{name, netlist} {
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	return wireVersion + hex.EncodeToString(h.Sum(nil))
}

// validate checks a request's kind and block range against the
// schedule its run-level fields imply.
func (req *Request) validate(blocks faultsim.Schedule) error {
	switch req.Kind {
	case KindDetect, KindCurve:
	default:
		return fmt.Errorf("shard: unknown kind %q", req.Kind)
	}
	if req.BlockLo < 0 || req.BlockHi > blocks.Len() || req.BlockLo >= req.BlockHi {
		return fmt.Errorf("shard: block range [%d,%d) outside %d blocks", req.BlockLo, req.BlockHi, blocks.Len())
	}
	return nil
}

// schedule derives the run's block schedule from the request.
func (req *Request) schedule() faultsim.Schedule {
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

// runShard executes one shard request against a resolved plan: the
// measurement's faultsim body over the shard's block range, serially.
// Workers and the coordinator's local fallback both run it, so a shard
// computes the same bits wherever it runs.
func runShard(ctx context.Context, plan *faultsim.Plan, req *Request) (*Response, error) {
	blocks := req.schedule()
	if err := req.validate(blocks); err != nil {
		return nil, err
	}
	gen, err := newGenerator(len(plan.Circuit().Inputs), req.Probs, req.Seed)
	if err != nil {
		return nil, err
	}
	gen.SkipBlocks(req.BlockLo)
	return measureBody(ctx, plan, req.Kind, gen, blocks.Range(req.BlockLo, req.BlockHi), faultsim.Options{}, nil)
}

// measureBody runs the faultsim body of a measurement kind over a
// stretch of its block schedule, drawn from gen, which stands at the
// stretch's first block.
func measureBody(ctx context.Context, plan *faultsim.Plan, kind Kind, gen *pattern.Generator, blocks faultsim.Schedule, opt faultsim.Options, progress faultsim.Progress) (*Response, error) {
	resp := &Response{Faults: len(plan.Faults())}
	var err error
	if kind == KindCurve {
		resp.First, err = plan.FirstDetections(ctx, gen, blocks, opt, progress)
	} else {
		resp.Counts, err = plan.DetectionCounts(ctx, gen, blocks, opt, progress)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}
