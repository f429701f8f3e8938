package shard

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
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
