package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"protest/internal/circuit"
	"protest/internal/circuits"
	"protest/internal/fault"
	"protest/internal/netlist"
)

// FuzzResponseDecode fuzzes the shard response wire format.  Decoding
// any bytes into a Response must not panic, and a body that decodes
// must re-encode to one that decodes to the same value.  The same
// bytes, read as little-endian 64-bit words, are an int vector that
// must survive the Vector codec however negative or large its entries
// are.  The seed corpus under testdata/fuzz/FuzzResponseDecode holds
// real c17 and alu detect and curve responses, extreme values and a
// body in the array format from before packed vectors; it runs with
// plain go test.  Run the fuzzer with
//
//	go test -fuzz FuzzResponseDecode -run '^$' ./internal/shard
func FuzzResponseDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp Response
		if json.Unmarshal(body, &resp) == nil {
			again, err := json.Marshal(&resp)
			if err != nil {
				t.Fatalf("re-encoding %+v: %v", resp, err)
			}
			var back Response
			if err := json.Unmarshal(again, &back); err != nil || !reflect.DeepEqual(back, resp) {
				t.Fatalf("%q decoded to %+v, re-encoded to %s, decoded to %+v (%v)", body, resp, again, back, err)
			}
		}

		var v Vector
		for ; len(body) >= 8; body = body[8:] {
			v = append(v, int(int64(binary.LittleEndian.Uint64(body))))
		}
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("encoding %v: %v", v, err)
		}
		var back Vector
		if err := back.UnmarshalText(text); err != nil || !slices.Equal(back, v) {
			t.Fatalf("%v encoded to %s, decoded to %v (%v)", v, text, back, err)
		}
	})
}

// FuzzRequest fuzzes the shard request, the wire input that reaches
// the fault simulator on a worker.  Any body is decoded as the
// worker's handler decodes it, refusing unknown fields, and run through
// Executor.Run: digest check, netlist decode, validation, schedule and
// the measurement body.  Run must not panic, and every request it
// accepts must answer a Response that passes Response.check against
// the request's own plan and block schedule.  Requests that would run
// more than 64 blocks or skip more than 4096 are left out, so each
// input runs in milliseconds: bounding the work a request may ask for
// is not this test's property.  The seeds (requestSeeds) run with plain
// go test; run the fuzzer with
//
//	go test -fuzz FuzzRequest -run '^$' ./internal/shard
func FuzzRequest(f *testing.F) {
	exec := NewExecutor()
	for _, body := range requestSeeds(f, exec) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		if req.BlockHi-req.BlockLo > 64 || req.BlockLo > 4096 {
			return
		}
		resp, err := exec.Run(context.Background(), &req)
		if err != nil {
			return
		}
		c, ok := exec.circuits.Peek(req.Digest)
		if !ok {
			t.Fatalf("%s: answered, but the executor holds no circuit under its digest", body)
		}
		m, _ := fault.ParseModel(req.FaultModel)
		want := len(exec.store.SimPlanFor(c, m).Faults())
		if err := resp.check(&req, want, req.schedule()); err != nil {
			t.Fatalf("%s: the response fails its own check: %v", body, err)
		}
	})
}

// requestSeeds returns FuzzRequest's seed bodies: detect and curve
// requests for c17 and alu with and without the netlist, under each
// fault model over the whole run, a chunk-aligned tail and a range
// that starts and ends inside a chunk, with weighted probabilities, a
// mismatched digest and an empty and a reversed block range.  It runs
// one request per circuit on exec first, so that requests without the
// netlist find their digest.
func requestSeeds(f *testing.F, exec *Executor) [][]byte {
	var seeds [][]byte
	add := func(req Request) {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	var other string
	for _, c := range []*circuit.Circuit{circuits.C17(), circuits.ALU74181()} {
		src, err := netlist.String(c)
		if err != nil {
			f.Fatal(err)
		}
		digest := Digest(c.Name, src)
		detect := Request{Name: c.Name, Digest: digest, Netlist: src, Seed: 3, Kind: KindDetect, NumPatterns: 1000, BlockHi: 16}
		if _, err := exec.Run(context.Background(), &detect); err != nil {
			f.Fatal(err)
		}
		curve := detect
		curve.Kind, curve.NumPatterns, curve.Checkpoints = KindCurve, 0, []int{64, 300, 1000}
		for _, model := range []string{"", "bridging", "transition"} {
			for _, r := range [][2]int{{0, 16}, {8, 16}, {3, 13}} {
				for _, req := range []Request{detect, curve} {
					req.FaultModel, req.BlockLo, req.BlockHi = model, r[0], r[1]
					add(req)
				}
			}
		}
		for _, req := range []Request{detect, curve} {
			req.Netlist = ""
			add(req)
			req.BlockLo, req.BlockHi = 8, 13
			add(req)
			req.BlockLo, req.BlockHi = 5, 5
			add(req)
			req.BlockLo, req.BlockHi = 6, 2
			add(req)
		}
		weighted := detect
		weighted.Probs = make([]float64, len(c.Inputs))
		for i := range weighted.Probs {
			weighted.Probs[i] = float64(i+1) / float64(len(c.Inputs)+1)
		}
		add(weighted)
		mismatched := detect
		mismatched.Digest, other = other, digest
		add(mismatched)
	}
	return seeds
}
