package fastjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/transport/wire"
)

// stdCompact is the reference encoding: json.Marshal.
func stdCompact(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return b
}

// stdStrictUnmarshal is the reference strict decode: DisallowUnknownFields
// plus json.Unmarshal's trailing-data rejection (which Decoder alone
// does not provide).
func stdStrictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var trailing any
	if err := dec.Decode(&trailing); err != io.EOF {
		return &SyntaxError{Msg: "trailing data"}
	}
	return nil
}

// TestGoldenIdentity proves the fast encoder byte-identical to
// encoding/json on every frozen golden fixture of both schema
// versions, and the fast decoder value-identical to json.Unmarshal on
// the same documents.
func TestGoldenIdentity(t *testing.T) {
	for _, dir := range []string{"../../testdata/wire", "../../testdata/wire/v1"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir(%s): %v", dir, err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
				continue
			}
			name := strings.TrimSuffix(e.Name(), ".json")
			if name == "health" {
				continue // health has no fast codec (cold path)
			}
			path := filepath.Join(dir, e.Name())
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			t.Run(path, func(t *testing.T) {
				switch {
				case strings.HasPrefix(name, "run_request"):
					var std, fast wire.RunRequest
					checkFixture(t, raw, &std, &fast, DecodeRunRequest, func(v *wire.RunRequest) ([]byte, error) {
						return AppendRunRequest(nil, v)
					})
				case strings.HasPrefix(name, "run_response"):
					var std, fast wire.RunResponse
					checkFixture(t, raw, &std, &fast, DecodeRunResponse, func(v *wire.RunResponse) ([]byte, error) {
						return AppendRunResponse(nil, v)
					})
				case strings.HasPrefix(name, "batch_request"):
					var std, fast wire.BatchRequest
					checkFixture(t, raw, &std, &fast, DecodeBatchRequest, func(v *wire.BatchRequest) ([]byte, error) {
						return AppendBatchRequest(nil, v)
					})
				case strings.HasPrefix(name, "batch_response"):
					var std, fast wire.BatchResponse
					checkFixture(t, raw, &std, &fast, DecodeBatchResponse, func(v *wire.BatchResponse) ([]byte, error) {
						return AppendBatchResponse(nil, v)
					})
				case strings.HasPrefix(name, "error"):
					var std, fast wire.Error
					checkFixture(t, raw, &std, &fast, DecodeError, func(v *wire.Error) ([]byte, error) {
						return AppendError(nil, v), nil
					})
				default:
					t.Fatalf("unrecognized fixture %s", name)
				}
			})
		}
	}
}

func checkFixture[T any](t *testing.T, raw []byte, std, fast *T,
	dec func([]byte, *T, bool) error, enc func(*T) ([]byte, error)) {
	t.Helper()
	if err := json.Unmarshal(raw, std); err != nil {
		t.Fatalf("json.Unmarshal fixture: %v", err)
	}
	if err := dec(raw, fast, false); err != nil {
		t.Fatalf("fast decode fixture: %v", err)
	}
	if !reflect.DeepEqual(std, fast) {
		t.Fatalf("decode mismatch:\n std=%+v\nfast=%+v", std, fast)
	}
	want := stdCompact(t, std)
	got, err := enc(fast)
	if err != nil {
		t.Fatalf("fast encode: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("encode mismatch:\n std=%s\nfast=%s", want, got)
	}
}

// encodeCases are adversarial values exercising every escape class,
// float format boundary, and omitempty combination.
func encodeRunResponses() []wire.RunResponse {
	return []wire.RunResponse{
		{},
		{SchemaVersion: 2, Index: -1, Shard: 3, ShardIndex: -7, Time: math.MaxUint64, Mispredictions: 42},
		{Tenant: "a<b>&c\"d\\e\nf\rg\th\x01\x1f", LeakageBits: 0.001},
		{Tenant: "héllo\u2028w\u2029orld\ufffd", LeakageBits: 1e-7},
		{Tenant: string([]byte{0xff, 0xfe, 'a'}), LeakageBits: 1e21},
		{LeakageBits: 9.99e20},
		{LeakageBits: -1e-9},
		{LeakageBits: 12.5, Epoch: -3},
		{LeakageBits: math.SmallestNonzeroFloat64},
		{LeakageBits: math.MaxFloat64},
		{Trace: []wire.Event{}, Mitigations: []wire.MitRecord{}},
		{Trace: []wire.Event{{Var: "x", Value: -9, Time: 1}, {Var: "\u00e9", Value: math.MaxInt64, Time: 0}}},
		{Mitigations: []wire.MitRecord{{ID: 1, Duration: 2, Elapsed: 3, Start: 4, Mispredicted: true}, {}}},
	}
}

func TestEncodeStdIdentity(t *testing.T) {
	for i, v := range encodeRunResponses() {
		v := v
		got, err := AppendRunResponse(nil, &v)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := stdCompact(t, &v)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n std=%s\nfast=%s", i, want, got)
		}
	}

	reqs := []wire.RunRequest{
		{},
		{SchemaVersion: 1},
		{Tenant: "t", Inputs: map[string]int64{"z": 1, "a": -2, "m<": 3}, Trace: true, Mitigations: true},
		{Inputs: map[string]int64{}},
		{Inputs: map[string]int64{"only": math.MinInt64}},
	}
	for i, v := range reqs {
		v := v
		got, err := AppendRunRequest(nil, &v)
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		if want := stdCompact(t, &v); !bytes.Equal(got, want) {
			t.Errorf("req %d:\n std=%s\nfast=%s", i, want, got)
		}
	}

	batches := []wire.BatchRequest{
		{},
		{SchemaVersion: 2, Requests: []wire.RunRequest{}},
		{Requests: []wire.RunRequest{{Tenant: "a"}, {}}},
	}
	for i, v := range batches {
		v := v
		got, err := AppendBatchRequest(nil, &v)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if want := stdCompact(t, &v); !bytes.Equal(got, want) {
			t.Errorf("batch %d:\n std=%s\nfast=%s", i, want, got)
		}
	}

	results := []wire.BatchResponse{
		{},
		{SchemaVersion: 2, Results: []wire.BatchResult{}},
		{Results: []wire.BatchResult{
			{Response: &wire.RunResponse{SchemaVersion: 2, Time: 77}},
			{Error: &wire.Error{Code: wire.CodeOverloaded, Message: "busy", RetryAfterMS: 250}},
			{},
		}},
	}
	for i, v := range results {
		v := v
		got, err := AppendBatchResponse(nil, &v)
		if err != nil {
			t.Fatalf("results %d: %v", i, err)
		}
		if want := stdCompact(t, &v); !bytes.Equal(got, want) {
			t.Errorf("results %d:\n std=%s\nfast=%s", i, want, got)
		}
	}

	env, err := AppendErrorEnvelope(nil, &wire.Error{Code: "internal", Message: "<boom>"})
	if err != nil {
		t.Fatal(err)
	}
	wantEnv := stdCompact(t, struct {
		Error *wire.Error `json:"error"`
	}{&wire.Error{Code: "internal", Message: "<boom>"}})
	if !bytes.Equal(env, wantEnv) {
		t.Errorf("envelope:\n std=%s\nfast=%s", wantEnv, env)
	}
}

// TestEncodeNonFinite confirms the encoder refuses what Marshal
// refuses.
func TestEncodeNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := wire.RunResponse{LeakageBits: f}
		if _, err := AppendRunResponse(nil, &v); err == nil {
			t.Errorf("LeakageBits=%v: want error", f)
		}
		if _, err := json.Marshal(&v); err == nil {
			t.Errorf("std accepted %v", f)
		}
	}
}

// decodeDocs are adversarial documents exercising std decode
// semantics: case folding, nulls, duplicates, merge, overflow,
// trailing data, escapes, surrogates.
var decodeDocs = []string{
	`{}`,
	`null`,
	`{"schema_version":2,"tenant":"alice","inputs":{"h":42},"trace":true,"mitigations":true}`,
	`{"SCHEMA_VERSION":1,"Tenant":"x"}`,
	`{"leakage_bits":12.5,"workers":1}`,
	"{\"leakage_bit\u0073\":1}",
	"{\"leakage_bitſ\":1.5}",
	"{\"miſpredictions\":3,\"ſhard\":2}",
	"{\"worKers\":1}",
	`{"\u0074enant":"esc-key"}`,
	"{\"inputſ\":{\"a\":1}}",
	`{"tenant":null,"inputs":null,"trace":null}`,
	`{"inputs":{"a":1,"a":2,"b":null}}`,
	`{"inputs":{}}`,
	`{"trace":[],"mitigations":[]}`,
	`{"trace":[{"var":"x","value":1,"time":2},{"VAR":"y"}]}`,
	`{"trace":null}`,
	`{"time":18446744073709551615}`,
	`{"time":18446744073709551616}`,
	`{"time":-1}`,
	`{"value":9223372036854775807}`,
	`{"epoch":9223372036854775808}`,
	`{"epoch":92233720368547758080}`,
	`{"epoch":-9223372036854775808}`,
	`{"epoch":-9223372036854775809}`,
	`{"epoch":1e3}`,
	`{"epoch":1.5}`,
	`{"epoch":-0}`,
	`{"leakage_bits":1e999}`,
	`{"leakage_bits":-0.0}`,
	`{"leakage_bits":2.2250738585072011e-308}`,
	`{"leakage_bits":0.30000000000000004}`,
	`{"tenant":"\u0041\u00e9\ud83d\ude00"}`,
	`{"tenant":"\ud800"}`,
	`{"tenant":"\ud800\udc00"}`,
	`{"tenant":"\ud800\ud800"}`,
	`{"tenant":"a` + "\x7f" + `b"}`,
	`{"tenant":"a` + "\xff" + `b"}`,
	`{"tenant":"a\/b"}`,
	`{"tenant":"a\xb"}`,
	`{"tenant":"a` + "\x01" + `"}`,
	`{"unknown":{"deep":[1,"two",{"three":null},true,false]}}`,
	`{"unknown":01}`,
	`{"unknown":"\uzzzz"}`,
	`{"requests":[{"tenant":"a"},{}]}`,
	`{"requests":null}`,
	`{"results":[{"response":{"time":1}},{"error":{"code":"x","message":"y"}},{"response":null}]}`,
	`{} `,
	` {"trace":true}`,
	`{}x`,
	`{}{}`,
	``,
	`   `,
	`[1,2]`,
	`"str"`,
	`123`,
	`{"trace":tru}`,
	`{"trace":truex}`,
	`{"trace":"yes"}`,
	`{"tenant":42}`,
	`{"inputs":[1]}`,
	`{"trace":{"a":1}}`,
	`{"a":1,}`,
	`{"a":1 "b":2}`,
	`{"a"}`,
	`{"a":}`,
	`{1:2}`,
	`{"inputs":{"a":1},"inputs":{"b":2}}`,
	`{"inputs":{"a":1},"inputs":null}`,
	`{"tenant":"a","tenant":"b"}`,
}

// refDecode decodes with encoding/json under json.Unmarshal semantics
// (lenient) or the strict reference.
func refDecode(data []byte, v any, strict bool) error {
	if strict {
		return stdStrictUnmarshal(data, v)
	}
	return json.Unmarshal(data, v)
}

func TestDecodeStdSemantics(t *testing.T) {
	for _, strict := range []bool{false, true} {
		for i, doc := range decodeDocs {
			var stdReq, fastReq wire.RunRequest
			stdErr := refDecode([]byte(doc), &stdReq, strict)
			fastErr := DecodeRunRequest([]byte(doc), &fastReq, strict)
			if (stdErr == nil) != (fastErr == nil) {
				t.Errorf("RunRequest strict=%v doc %d %q: std err=%v fast err=%v", strict, i, doc, stdErr, fastErr)
				continue
			}
			if stdErr == nil && !reflect.DeepEqual(stdReq, fastReq) {
				t.Errorf("RunRequest strict=%v doc %d %q:\n std=%+v\nfast=%+v", strict, i, doc, stdReq, fastReq)
			}

			var stdResp, fastResp wire.RunResponse
			stdErr = refDecode([]byte(doc), &stdResp, strict)
			fastErr = DecodeRunResponse([]byte(doc), &fastResp, strict)
			if (stdErr == nil) != (fastErr == nil) {
				t.Errorf("RunResponse strict=%v doc %d %q: std err=%v fast err=%v", strict, i, doc, stdErr, fastErr)
				continue
			}
			if stdErr == nil && !reflect.DeepEqual(stdResp, fastResp) {
				t.Errorf("RunResponse strict=%v doc %d %q:\n std=%+v\nfast=%+v", strict, i, doc, stdResp, fastResp)
			}

			var stdBReq, fastBReq wire.BatchRequest
			stdErr = refDecode([]byte(doc), &stdBReq, strict)
			fastErr = DecodeBatchRequest([]byte(doc), &fastBReq, strict)
			if (stdErr == nil) != (fastErr == nil) {
				t.Errorf("BatchRequest strict=%v doc %d %q: std err=%v fast err=%v", strict, i, doc, stdErr, fastErr)
				continue
			}
			if stdErr == nil && !reflect.DeepEqual(stdBReq, fastBReq) {
				t.Errorf("BatchRequest strict=%v doc %d %q:\n std=%+v\nfast=%+v", strict, i, doc, stdBReq, fastBReq)
			}

			var stdBResp, fastBResp wire.BatchResponse
			stdErr = refDecode([]byte(doc), &stdBResp, strict)
			fastErr = DecodeBatchResponse([]byte(doc), &fastBResp, strict)
			if (stdErr == nil) != (fastErr == nil) {
				t.Errorf("BatchResponse strict=%v doc %d %q: std err=%v fast err=%v", strict, i, doc, stdErr, fastErr)
				continue
			}
			if stdErr == nil && !reflect.DeepEqual(stdBResp, fastBResp) {
				t.Errorf("BatchResponse strict=%v doc %d %q:\n std=%+v\nfast=%+v", strict, i, doc, stdBResp, fastBResp)
			}
		}
	}
}

// TestDecodeUnknownFieldError pins the strict-mode error message to
// contain the offending field name, which the transport layer's 400
// responses rely on.
func TestDecodeUnknownFieldError(t *testing.T) {
	var v wire.RunRequest
	err := DecodeRunRequest([]byte(`{"exfiltrate":1}`), &v, true)
	if err == nil || !strings.Contains(err.Error(), "exfiltrate") {
		t.Fatalf("want unknown-field error naming the field, got %v", err)
	}
}

// TestDecodeMerge pins json.Unmarshal's merge-into-existing semantics,
// which the pooled server scratch relies on being identical.
func TestDecodeMerge(t *testing.T) {
	mk := func() wire.RunRequest {
		return wire.RunRequest{
			SchemaVersion: 9,
			Tenant:        "keep",
			Inputs:        map[string]int64{"old": 7},
			Trace:         true,
		}
	}
	doc := []byte(`{"inputs":{"new":1},"mitigations":true}`)
	std, fast := mk(), mk()
	if err := json.Unmarshal(doc, &std); err != nil {
		t.Fatal(err)
	}
	if err := DecodeRunRequest(doc, &fast, false); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(std, fast) {
		t.Fatalf("merge mismatch:\n std=%+v\nfast=%+v", std, fast)
	}

	// Slice reuse within capacity, truncation to the array's length.
	sresp := wire.RunResponse{Trace: []wire.Event{{Var: "a", Value: 1}, {Var: "b", Value: 2}, {Var: "c", Value: 3}}}
	fresp := wire.RunResponse{Trace: []wire.Event{{Var: "a", Value: 1}, {Var: "b", Value: 2}, {Var: "c", Value: 3}}}
	doc2 := []byte(`{"trace":[{"time":9}]}`)
	if err := json.Unmarshal(doc2, &sresp); err != nil {
		t.Fatal(err)
	}
	if err := DecodeRunResponse(doc2, &fresp, false); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sresp, fresp) {
		t.Fatalf("slice merge mismatch:\n std=%+v\nfast=%+v", sresp, fresp)
	}
}

// TestDecodeMaxDepth pins the nesting limit to encoding/json's.
func TestDecodeMaxDepth(t *testing.T) {
	// 9998 unknown-value arrays inside the top-level object = 9999
	// containers: accepted. One more: rejected, by both codecs.
	for _, extra := range []int{0, 2} {
		n := 9998 + extra
		doc := `{"unknown":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
		var stdV, fastV wire.RunRequest
		stdErr := json.Unmarshal([]byte(doc), &stdV)
		fastErr := DecodeRunRequest([]byte(doc), &fastV, false)
		if (stdErr == nil) != (fastErr == nil) {
			t.Errorf("depth %d: std err=%v fast err=%v", n+1, stdErr, fastErr)
		}
	}
}

// roundTrip re-encodes a decoded value and confirms identity with the
// std encoder — decode(enc(v)) composed both ways.
func TestRoundTrip(t *testing.T) {
	for i, v := range encodeRunResponses() {
		v := v
		b, err := AppendRunResponse(nil, &v)
		if err != nil {
			continue // non-finite cases
		}
		var back wire.RunResponse
		if err := DecodeRunResponse(b, &back, true); err != nil {
			t.Fatalf("case %d: decode(encode): %v", i, err)
		}
		var stdBack wire.RunResponse
		if err := json.Unmarshal(b, &stdBack); err != nil {
			t.Fatalf("case %d: std decode: %v", i, err)
		}
		if !reflect.DeepEqual(back, stdBack) {
			t.Fatalf("case %d:\nfast=%+v\n std=%+v", i, back, stdBack)
		}
	}
}

// TestAllocsEncode pins the encode hot path at zero steady-state
// allocations given a pre-sized buffer.
func TestAllocsEncode(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc counting")
	}
	resp := wire.RunResponse{
		SchemaVersion: 2, Index: 12345, Shard: 3, ShardIndex: 99, Time: 987654321,
		Mispredictions: 2, Tenant: "tenant-42", Epoch: 17, LeakageBits: 12.5,
		Trace:       []wire.Event{{Var: "reply", Value: 1, Time: 64}},
		Mitigations: []wire.MitRecord{{ID: 1, Duration: 64, Elapsed: 33, Start: 0, Mispredicted: true}},
	}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() {
		b, err := AppendRunResponse(buf[:0], &resp)
		if err != nil || len(b) == 0 {
			t.Fatal("encode failed")
		}
	}); n != 0 {
		t.Errorf("AppendRunResponse: %v allocs/op, want 0", n)
	}

	req := wire.RunRequest{SchemaVersion: 2, Tenant: "alice", Inputs: map[string]int64{"h": 42}, Trace: true}
	if n := testing.AllocsPerRun(200, func() {
		b, err := AppendRunRequest(buf[:0], &req)
		if err != nil || len(b) == 0 {
			t.Fatal("encode failed")
		}
	}); n != 0 {
		t.Errorf("AppendRunRequest (single input): %v allocs/op, want 0", n)
	}
}

// TestAllocsDecodeBatchTenants pins the bytes one 64-item batch decode
// allocates when the items' tenants cycle through 4,096 names, more
// than the intern table's bound of 1,024, so a pooled decoder passes
// the bound every 17 batches. The destination is reused, so what
// remains is the tenant strings themselves (64 allocations, about 1 KB
// per batch). Emptying the table in place keeps its capacity;
// replacing it with a fresh map made the decoder regrow it through
// seven doublings each time (about 11 KB per batch).
func TestAllocsDecodeBatchTenants(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc counting")
	}
	const tenants, items, budget = 4096, 64, 2 << 10
	docs := make([][]byte, tenants/items)
	for k := range docs {
		req := wire.BatchRequest{SchemaVersion: wire.SchemaVersion}
		for i := 0; i < items; i++ {
			req.Requests = append(req.Requests, wire.RunRequest{
				Tenant: fmt.Sprintf("tenant-%04d", k*items+i),
				Inputs: map[string]int64{"h": int64(i)},
			})
		}
		var err error
		if docs[k], err = json.Marshal(req); err != nil {
			t.Fatal(err)
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		var req wire.BatchRequest
		for i := 0; i < b.N; i++ {
			if err := DecodeBatchRequest(docs[i%len(docs)], &req, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("DecodeBatchRequest over %d tenants: %d B/op, %d allocs/op (budget %d B/op)",
		tenants, res.AllocedBytesPerOp(), res.AllocsPerOp(), budget)
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Errorf("decoding a %d-item batch allocates %d B, budget %d: the intern table is regrowing", items, got, budget)
	}
}

// TestAllocsDecode pins the decode hot path at zero steady-state
// allocations once destinations carry capacity and the intern cache is
// warm.
func TestAllocsDecode(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc counting")
	}
	reqDoc := []byte(`{"schema_version":2,"tenant":"alice","inputs":{"h":42,"k":7},"trace":true,"mitigations":true}`)
	var req wire.RunRequest
	if err := DecodeRunRequest(reqDoc, &req, true); err != nil { // warm intern cache + map
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeRunRequest(reqDoc, &req, true); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeRunRequest: %v allocs/op, want 0", n)
	}

	respDoc := []byte(`{"schema_version":2,"index":12345,"shard":3,"shard_index":99,"time":987654321,` +
		`"mispredictions":2,"tenant":"tenant-42","epoch":17,"leakage_bits":12.5,` +
		`"trace":[{"var":"reply","value":1,"time":64}],` +
		`"mitigations":[{"id":1,"duration":64,"elapsed":33,"start":0,"mispredicted":true}]}`)
	var resp wire.RunResponse
	if err := DecodeRunResponse(respDoc, &resp, true); err != nil { // warm slices
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeRunResponse(respDoc, &resp, true); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeRunResponse: %v allocs/op, want 0", n)
	}
}
