package fastjson

import (
	"reflect"
	"testing"

	"repro/internal/lang/parser"
	"repro/internal/sem/mem"
	"repro/internal/transport/wire"
)

// slotProgram declares the scalars the slot sink resolves against. Its
// array is not a scalar, so an input naming it is unknown, as in the
// server.
const slotProgram = `
var a : L;
var h : H;
var inputs : L;
var Tenant : H;
array t[4] : H;
a := 1;
`

// slotDocs exercise the slot sink's merge semantics on top of
// decodeDocs: duplicate keys, null values, "inputs": null, unknown
// names, and repeated "requests" keys.
var slotDocs = []string{
	`{"inputs":{"h":1,"a":2,"h":3}}`,
	`{"inputs":{"h":null,"a":5}}`,
	`{"inputs":{"h":1},"inputs":null,"inputs":{"a":2}}`,
	`{"inputs":{"zz":1,"h":2,"yy":3}}`,
	`{"inputs":{"zz":1},"inputs":null}`,
	`{"inputs":{"t":1,"H":2,"inputs":3,"Tenant":4}}`,
	`{"inputs":{"h\u0000":1,"h":2}}`,
	`{"requests":[{"tenant":"a","inputs":{"h":1}},{"inputs":{"zz":2}}],"requests":[{"inputs":{"a":3}}]}`,
	`{"requests":[{"tenant":"a"},{"tenant":"b"}],"requests":[],"requests":[{},{},{"inputs":{"h":1}}]}`,
	`{"requests":[{"tenant":"a","inputs":{"h":9}}],"requests":null,"requests":[{"inputs":{"a":1}}]}`,
	`{"requests":[null,{"inputs":null}],"requests":[{"inputs":{"h":1}},null]}`,
	`{"schema_version":2,"requests":[{"schema_version":1,"trace":true,"mitigations":true}]}`,
	`{"requests":[{"inputs":{"h":1}},]}`,
	`{"requests":{}}`,
}

// slotMemory returns a zeroed memory over slotProgram and its resolver.
func slotMemory(t *testing.T) (*mem.Memory, func([]byte) int) {
	t.Helper()
	p, err := parser.Parse(slotProgram)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(p)
	return m, func(name []byte) int { return m.ScalarSlot(string(name)) }
}

// FuzzSlotDecode is the differential oracle for the slot sink: every
// document must be accepted or rejected alike by DecodeRunRequest and
// DecodeSlotRequest, and by DecodeBatchRequest and DecodeSlotBatch. On
// accept, the non-input fields must be equal, setting the slot pairs in
// order on a zeroed memory must equal setting the map's declared names,
// and an unknown name must be reported exactly when the map holds an
// undeclared name.
func FuzzSlotDecode(f *testing.F) {
	for _, docs := range [][]string{decodeDocs, slotDocs} {
		for _, doc := range docs {
			f.Add([]byte(doc), false)
			f.Add([]byte(doc), true)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, strict bool) {
		m, resolve := slotMemory(t)
		var req wire.RunRequest
		var sr SlotRequest
		errMap := DecodeRunRequest(data, &req, strict)
		errSlot := DecodeSlotRequest(data, &sr, strict, resolve)
		if (errMap == nil) != (errSlot == nil) {
			t.Fatalf("RunRequest strict=%v accept mismatch on %q: map=%v slot=%v", strict, data, errMap, errSlot)
		}
		if errMap == nil {
			checkSlots(t, m, &req, &sr)
		}

		var batch wire.BatchRequest
		var items []*SlotRequest
		elem := func(i int) *SlotRequest {
			for len(items) <= i {
				items = append(items, &SlotRequest{Unknown: "stale", HasUnknown: true, Slots: []SlotInput{{Slot: 0, Value: 99}}})
			}
			return items[i]
		}
		errMap = DecodeBatchRequest(data, &batch, strict)
		version, n, errSlot := DecodeSlotBatch(data, strict, resolve, elem)
		if (errMap == nil) != (errSlot == nil) {
			t.Fatalf("BatchRequest strict=%v accept mismatch on %q: map=%v slot=%v", strict, data, errMap, errSlot)
		}
		if errMap != nil {
			return
		}
		if version != batch.SchemaVersion || n != len(batch.Requests) {
			t.Fatalf("batch %q: slot decode read version %d, %d requests; map decode %d, %d",
				data, version, n, batch.SchemaVersion, len(batch.Requests))
		}
		for i := range batch.Requests {
			checkSlots(t, m, &batch.Requests[i], items[i])
		}
	})
}

// checkSlots compares one request decoded both ways.
func checkSlots(t *testing.T, m *mem.Memory, req *wire.RunRequest, sr *SlotRequest) {
	t.Helper()
	head := *req
	head.Inputs = nil
	if !reflect.DeepEqual(head, sr.RunRequest) {
		t.Fatalf("fields differ:\n map=%+v\nslot=%+v", head, sr.RunRequest)
	}
	undeclared := false
	m.ZeroScalars()
	for name, v := range req.Inputs {
		if !m.HasScalar(name) {
			undeclared = true
			continue
		}
		m.Set(name, v)
	}
	want := m.Clone()
	m.ZeroScalars()
	for _, in := range sr.Slots {
		m.SetSlot(in.Slot, in.Value)
	}
	if !m.Equal(want) {
		t.Fatalf("inputs %v and slots %v set different memories", req.Inputs, sr.Slots)
	}
	if undeclared != sr.HasUnknown {
		t.Fatalf("inputs %v: slot decode reported unknown name %v %q", req.Inputs, sr.HasUnknown, sr.Unknown)
	}
	if sr.HasUnknown {
		if _, ok := req.Inputs[sr.Unknown]; !ok || m.HasScalar(sr.Unknown) {
			t.Fatalf("inputs %v: reported unknown name %q is not an undeclared input", req.Inputs, sr.Unknown)
		}
	}
}

// TestSlotDecodeMerge pins the slot sink's merge semantics on the
// documents that exercise it.
func TestSlotDecodeMerge(t *testing.T) {
	_, resolve := slotMemory(t)
	cases := []struct {
		doc        string
		slots      []SlotInput
		hasUnknown bool
		unknown    string
	}{
		{`{"inputs":{"h":1,"a":2,"h":3}}`, []SlotInput{{1, 1}, {0, 2}, {1, 3}}, false, ""},
		{`{"inputs":{"h":null}}`, []SlotInput{{1, 0}}, false, ""},
		{`{"inputs":{"zz":1,"h":2},"inputs":null,"inputs":{"a":4}}`, []SlotInput{{0, 4}}, false, ""},
		{`{"inputs":{"zz":1,"h":2,"yy":3}}`, []SlotInput{{1, 2}}, true, "zz"},
		{`{"inputs":{"t":1}}`, nil, true, "t"},
		{`{"inputs":{"":1}}`, nil, true, ""},
	}
	for _, c := range cases {
		var sr SlotRequest
		if err := DecodeSlotRequest([]byte(c.doc), &sr, true, resolve); err != nil {
			t.Fatalf("%s: %v", c.doc, err)
		}
		if len(sr.Slots) != len(c.slots) || (len(c.slots) > 0 && !reflect.DeepEqual(sr.Slots, c.slots)) ||
			sr.Unknown != c.unknown || sr.HasUnknown != c.hasUnknown {
			t.Errorf("%s: slots %v unknown %q, want %v %q", c.doc, sr.Slots, sr.Unknown, c.slots, c.unknown)
		}
	}
}

// TestAllocsDecodeSlots pins the slot decode of a request with declared
// inputs, and of a batch into reused elements, at zero allocations.
func TestAllocsDecodeSlots(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc counting")
	}
	_, resolve := slotMemory(t)
	doc := []byte(`{"schema_version":2,"tenant":"alice","inputs":{"h":42,"a":7},"trace":true}`)
	var sr SlotRequest
	if n := testing.AllocsPerRun(200, func() {
		sr.Reset()
		if err := DecodeSlotRequest(doc, &sr, true, resolve); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeSlotRequest: %v allocs/op, want 0", n)
	}
	batch := []byte(`{"requests":[{"tenant":"alice","inputs":{"h":1}},{"inputs":{"h":2,"a":3}},{"tenant":"bob","inputs":{"a":4}}]}`)
	items := make([]SlotRequest, 3)
	elem := func(i int) *SlotRequest { return &items[i] }
	if n := testing.AllocsPerRun(200, func() {
		if _, n, err := DecodeSlotBatch(batch, true, resolve, elem); err != nil || n != 3 {
			t.Fatal(n, err)
		}
	}); n != 0 {
		t.Errorf("DecodeSlotBatch: %v allocs/op, want 0", n)
	}
}
