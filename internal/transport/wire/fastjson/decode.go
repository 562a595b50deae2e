package fastjson

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/transport/wire"
)

// decoder is the reusable parse state: the input, a cursor, an
// unquoting scratch, and a string-interning cache so the steady state
// (same field keys, same tenants request after request) allocates
// nothing. Obtain one from the pool via get/put.
type decoder struct {
	data   []byte
	off    int
	strict bool // unknown object keys are errors (DisallowUnknownFields)
	// scratch backs unquoted strings that contain escapes.
	scratch []byte
	// interned maps recently seen string bytes to a single shared
	// string, so map keys and tenant names stop allocating after the
	// first occurrence. Bounded: emptied wholesale when oversized.
	interned map[string]string
	// depth tracks open containers, bounded at maxDepth to match
	// encoding/json's scanner limit (and to keep skipValue's recursion
	// on deeply nested unknown values from exhausting the stack).
	depth int
	// resolve maps an input name to its scalar slot, or -1, for the
	// slot sink (DecodeSlotRequest, DecodeSlotBatch).
	resolve func(name []byte) int
}

// maxDepth mirrors encoding/json's maxNestingDepth: documents nested
// deeper are rejected, so the differential fuzz target sees identical
// accept/reject decisions on pathological inputs.
const maxDepth = 10000

func (d *decoder) push() error {
	d.depth++
	if d.depth > maxDepth {
		return d.syntax("exceeded max depth")
	}
	return nil
}

var decPool = sync.Pool{New: func() any {
	return &decoder{interned: make(map[string]string, 16)}
}}

func getDecoder(data []byte, strict bool) *decoder {
	d := decPool.Get().(*decoder)
	d.data, d.off, d.strict, d.depth = data, 0, strict, 0
	return d
}

func putDecoder(d *decoder) {
	if len(d.interned) > 1024 {
		clear(d.interned) // keeps the capacity: a busy decoder refills it
	}
	d.data, d.resolve = nil, nil
	decPool.Put(d)
}

// SyntaxError reports a malformed document or a type mismatch; the
// offset is the byte position the parse failed at.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("fastjson: %s (at offset %d)", e.Msg, e.Offset)
}

// UnknownFieldError is returned in strict mode for an object key no
// struct field matches, mirroring json.Decoder.DisallowUnknownFields.
type UnknownFieldError struct{ Field string }

func (e *UnknownFieldError) Error() string {
	return fmt.Sprintf("fastjson: unknown field %q", e.Field)
}

func (d *decoder) syntax(msg string) error { return &SyntaxError{Offset: d.off, Msg: msg} }

// skipWS advances past JSON whitespace.
func (d *decoder) skipWS() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the next non-whitespace byte without consuming it.
func (d *decoder) peek() (byte, error) {
	d.skipWS()
	if d.off >= len(d.data) {
		return 0, d.syntax("unexpected end of JSON input")
	}
	return d.data[d.off], nil
}

// expect consumes the next non-whitespace byte, requiring it to be c.
func (d *decoder) expect(c byte) error {
	b, err := d.peek()
	if err != nil {
		return err
	}
	if b != c {
		return d.syntax(fmt.Sprintf("expected %q, found %q", c, b))
	}
	d.off++
	return nil
}

// literal consumes a named literal (true/false/null) already
// identified by its first byte.
func (d *decoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return d.syntax("invalid literal")
	}
	d.off += len(lit)
	return nil
}

// trailing verifies only whitespace remains, matching json.Unmarshal's
// rejection of trailing data.
func (d *decoder) trailing() error {
	d.skipWS()
	if d.off != len(d.data) {
		return d.syntax("invalid character after top-level value")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Strings

// parseStringBytes consumes a string literal and returns its unquoted
// bytes. The fast path (no escapes, ASCII) aliases the input; the slow
// path decodes into d.scratch. The returned slice is valid until the
// next parseStringBytes call.
func (d *decoder) parseStringBytes() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.off
	for i := d.off; i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			d.off = i + 1
			return d.data[start:i], nil
		}
		if c == '\\' || c >= utf8.RuneSelf {
			return d.parseStringSlow(start, i)
		}
		if c < 0x20 {
			d.off = i
			return nil, d.syntax("invalid control character in string literal")
		}
	}
	d.off = len(d.data)
	return nil, d.syntax("unexpected end of string literal")
}

// parseStringSlow handles escapes and non-ASCII: it decodes the rest
// of the literal into d.scratch, applying the same transformations as
// encoding/json's unquote (escape decoding, surrogate pairing, U+FFFD
// substitution for invalid UTF-8 and lone surrogates).
func (d *decoder) parseStringSlow(start, i int) ([]byte, error) {
	buf := append(d.scratch[:0], d.data[start:i]...)
	data := d.data
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			d.scratch = buf
			return buf, nil
		case c < 0x20:
			d.off = i
			return nil, d.syntax("invalid control character in string literal")
		case c == '\\':
			i++
			if i >= len(data) {
				d.off = i
				return nil, d.syntax("unexpected end of string literal")
			}
			switch data[i] {
			case '"':
				buf = append(buf, '"')
			case '\\':
				buf = append(buf, '\\')
			case '/':
				buf = append(buf, '/')
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, err := d.hex4(data, i+1)
				if err != nil {
					return nil, err
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// Try to pair with a following \uXXXX; unpaired
					// surrogates become U+FFFD, as in encoding/json.
					if i+6 < len(data) && data[i+1] == '\\' && data[i+2] == 'u' {
						r2, err := d.hex4(data, i+3)
						if err == nil {
							if dec := utf16.DecodeRune(r, r2); dec != unicode_replacement {
								buf = utf8.AppendRune(buf, dec)
								i += 6
								break
							}
						}
					}
					buf = utf8.AppendRune(buf, unicode_replacement)
					break
				}
				buf = utf8.AppendRune(buf, r)
			default:
				d.off = i
				return nil, d.syntax("invalid escape in string literal")
			}
			i++
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, unicode_replacement)
			} else {
				buf = append(buf, data[i:i+size]...)
			}
			i += size
		}
	}
	d.off = len(data)
	return nil, d.syntax("unexpected end of string literal")
}

const unicode_replacement = '�'

// hex4 parses the four hex digits of a \uXXXX escape starting at p.
func (d *decoder) hex4(data []byte, p int) (rune, error) {
	if p+4 > len(data) {
		d.off = len(data)
		return 0, d.syntax("invalid \\u escape")
	}
	var r rune
	for _, c := range data[p : p+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			d.off = p
			return 0, d.syntax("invalid \\u escape")
		}
		r = r*16 + rune(c)
	}
	return r, nil
}

// intern returns a string for b, reusing a previously allocated copy
// when the same bytes were seen before.
func (d *decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.interned[string(b)]; ok { // no alloc: map lookup on []byte conversion
		return s
	}
	s := string(b)
	d.interned[s] = s
	return s
}

// ---------------------------------------------------------------------------
// Numbers

// scanNumber consumes a number literal per the JSON grammar and
// reports whether it carries a fraction or exponent part.
func (d *decoder) scanNumber() (lit []byte, isInt bool, err error) {
	d.skipWS()
	start := d.off
	i := d.off
	data := d.data
	isInt = true
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	default:
		d.off = i
		return nil, false, d.syntax("invalid number literal")
	}
	if i < len(data) && data[i] == '.' {
		isInt = false
		i++
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.off = i
			return nil, false, d.syntax("invalid number literal")
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		isInt = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.off = i
			return nil, false, d.syntax("invalid number literal")
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	d.off = i
	return data[start:i], isInt, nil
}

// parseInt64 parses a number into an int64 with json semantics: a
// fraction or exponent (or overflow) is an error, as in json.Unmarshal
// into an integer field.
func (d *decoder) parseInt64() (int64, error) {
	lit, isInt, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	if !isInt {
		return 0, d.syntax("cannot unmarshal non-integer number into integer field")
	}
	neg := false
	i := 0
	if lit[0] == '-' {
		neg = true
		i = 1
	}
	var u uint64
	for ; i < len(lit); i++ {
		// Guard the multiply before it can wrap uint64: past this bound
		// u*10+digit exceeds 1<<63 regardless of the digit.
		if u > (1<<63)/10 {
			return 0, d.syntax("integer overflow")
		}
		u = u*10 + uint64(lit[i]-'0')
		if u > 1<<63 {
			return 0, d.syntax("integer overflow")
		}
	}
	if neg {
		return -int64(u), nil
	}
	if u == 1<<63 {
		return 0, d.syntax("integer overflow")
	}
	return int64(u), nil
}

// parseUint64 parses a number into a uint64 (negatives are errors).
func (d *decoder) parseUint64() (uint64, error) {
	lit, isInt, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	if !isInt || lit[0] == '-' {
		return 0, d.syntax("cannot unmarshal number into unsigned integer field")
	}
	var u uint64
	for _, c := range lit {
		hi := u
		u = u*10 + uint64(c-'0')
		if u/10 != hi {
			return 0, d.syntax("unsigned integer overflow")
		}
	}
	return u, nil
}

// pow10tab holds the powers of ten exactly representable in float64,
// backing the fast float path.
var pow10tab = [...]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// fastFloat converts a grammar-validated number literal via the
// Clinger fast path: when the mantissa fits 53 bits exactly and the
// decimal exponent is within ±22, a single multiply or divide by an
// exact power of ten is correctly rounded — identical to ParseFloat —
// without allocating. Out-of-range shapes report ok=false.
func fastFloat(lit []byte) (f float64, ok bool) {
	i := 0
	neg := false
	if lit[i] == '-' {
		neg = true
		i++
	}
	var mant uint64
	nd, exp := 0, 0
	for ; i < len(lit) && lit[i] >= '0' && lit[i] <= '9'; i++ {
		if nd >= 19 {
			return 0, false
		}
		mant = mant*10 + uint64(lit[i]-'0')
		nd++
	}
	if i < len(lit) && lit[i] == '.' {
		i++
		for ; i < len(lit) && lit[i] >= '0' && lit[i] <= '9'; i++ {
			if nd >= 19 {
				return 0, false
			}
			mant = mant*10 + uint64(lit[i]-'0')
			nd++
			exp--
		}
	}
	if i < len(lit) && (lit[i] == 'e' || lit[i] == 'E') {
		i++
		esign := 1
		if lit[i] == '+' {
			i++
		} else if lit[i] == '-' {
			esign = -1
			i++
		}
		e := 0
		for ; i < len(lit); i++ {
			if e > 10000 {
				return 0, false
			}
			e = e*10 + int(lit[i]-'0')
		}
		exp += esign * e
	}
	if mant >= 1<<53 || exp < -22 || exp > 22 {
		return 0, false
	}
	f = float64(mant)
	if exp > 0 {
		f *= pow10tab[exp]
	} else if exp < 0 {
		f /= pow10tab[-exp]
	}
	if neg {
		f = -f
	}
	return f, true
}

// parseFloat64 parses any JSON number into a float64 with ParseFloat
// semantics; the common short-decimal shapes take the allocation-free
// fast path.
func (d *decoder) parseFloat64() (float64, error) {
	lit, _, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	if f, ok := fastFloat(lit); ok {
		return f, nil
	}
	f, perr := strconv.ParseFloat(string(lit), 64)
	if perr != nil {
		return 0, d.syntax("number out of range")
	}
	return f, nil
}

// parseInt parses into a plain int.
func (d *decoder) parseInt() (int, error) {
	v, err := d.parseInt64()
	return int(v), err
}

// ---------------------------------------------------------------------------
// Generic values

// skipValue consumes (and grammar-validates) one JSON value of any
// shape — the lenient-mode treatment of unknown fields.
func (d *decoder) skipValue() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		d.off++
		if err := d.push(); err != nil {
			return err
		}
		first := true
		for {
			b, err := d.peek()
			if err != nil {
				return err
			}
			if b == '}' {
				d.off++
				d.depth--
				return nil
			}
			if !first {
				if err := d.expect(','); err != nil {
					return err
				}
			}
			first = false
			if _, err := d.parseStringBytes(); err != nil {
				return err
			}
			if err := d.expect(':'); err != nil {
				return err
			}
			if err := d.skipValue(); err != nil {
				return err
			}
		}
	case '[':
		d.off++
		if err := d.push(); err != nil {
			return err
		}
		first := true
		for {
			b, err := d.peek()
			if err != nil {
				return err
			}
			if b == ']' {
				d.off++
				d.depth--
				return nil
			}
			if !first {
				if err := d.expect(','); err != nil {
					return err
				}
			}
			first = false
			if err := d.skipValue(); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.parseStringBytes()
		return err
	case 't':
		d.off++
		return d.literal("rue")
	case 'f':
		d.off++
		return d.literal("alse")
	case 'n':
		d.off++
		return d.literal("ull")
	default:
		_, _, err := d.scanNumber()
		return err
	}
}

// tryNull consumes a null literal if one is next, reporting whether it
// did. Callers use it to implement json's null semantics (no-op for
// scalars, nil assignment for maps/slices/pointers).
func (d *decoder) tryNull() (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	if c != 'n' {
		return false, nil
	}
	d.off++
	if err := d.literal("ull"); err != nil {
		return false, err
	}
	return true, nil
}

// Typed field parsers: each implements "null leaves the destination
// unchanged" for scalars, as json.Unmarshal does.

func (d *decoder) fieldInt(dst *int) error {
	if null, err := d.tryNull(); null || err != nil {
		return err
	}
	v, err := d.parseInt()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func (d *decoder) fieldInt64(dst *int64) error {
	if null, err := d.tryNull(); null || err != nil {
		return err
	}
	v, err := d.parseInt64()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func (d *decoder) fieldUint64(dst *uint64) error {
	if null, err := d.tryNull(); null || err != nil {
		return err
	}
	v, err := d.parseUint64()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func (d *decoder) fieldFloat64(dst *float64) error {
	if null, err := d.tryNull(); null || err != nil {
		return err
	}
	v, err := d.parseFloat64()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func (d *decoder) fieldBool(dst *bool) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 't':
		d.off++
		if err := d.literal("rue"); err != nil {
			return err
		}
		*dst = true
	case 'f':
		d.off++
		if err := d.literal("alse"); err != nil {
			return err
		}
		*dst = false
	case 'n':
		d.off++
		return d.literal("ull")
	default:
		return d.syntax("cannot unmarshal value into bool field")
	}
	return nil
}

func (d *decoder) fieldString(dst *string) error {
	if null, err := d.tryNull(); null || err != nil {
		return err
	}
	b, err := d.parseStringBytes()
	if err != nil {
		return err
	}
	*dst = d.intern(b)
	return nil
}

// fieldInputs decodes the inputs field into the map[string]int64 of a
// wire.RunRequest (sr nil) — null sets the map nil, an object allocates
// on demand and merges entries (the last duplicate key wins), exactly
// as json.Unmarshal — or, when sr is non-nil, into sr's slot sink.
func (d *decoder) fieldInputs(dst *map[string]int64, sr *SlotRequest) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		d.off++
		if err := d.literal("ull"); err != nil {
			return err
		}
		if sr != nil {
			sr.Slots, sr.Unknown, sr.HasUnknown = sr.Slots[:0], "", false
		} else {
			*dst = nil
		}
		return nil
	}
	if c != '{' {
		return d.syntax("cannot unmarshal value into inputs map")
	}
	d.off++
	if err := d.push(); err != nil {
		return err
	}
	if sr == nil && *dst == nil {
		*dst = make(map[string]int64, 4)
	}
	m := *dst
	first := true
	for {
		b, err := d.peek()
		if err != nil {
			return err
		}
		if b == '}' {
			d.off++
			d.depth--
			return nil
		}
		if !first {
			if err := d.expect(','); err != nil {
				return err
			}
		}
		first = false
		key, err := d.parseStringBytes()
		if err != nil {
			return err
		}
		var name string
		slot := -1
		if sr == nil {
			name = d.intern(key)
		} else if slot = d.resolve(key); slot < 0 && !sr.HasUnknown {
			sr.Unknown, sr.HasUnknown = string(key), true
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		var v int64
		hadNull, err := d.tryNull()
		if err != nil {
			return err
		}
		if !hadNull {
			if v, err = d.parseInt64(); err != nil {
				return err
			}
		}
		switch {
		case sr == nil:
			m[name] = v
		case slot >= 0:
			sr.Slots = append(sr.Slots, SlotInput{Slot: slot, Value: v})
		}
	}
}

// ---------------------------------------------------------------------------
// Struct decoders

// objectShape drives one struct decode: returns false immediately when
// the value is null (leaving dst untouched, as json does for structs),
// otherwise iterates "key": value pairs calling field for each.
func (d *decoder) object(kind string, field func(key []byte) (bool, error)) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		d.off++
		return d.literal("ull")
	}
	if c != '{' {
		return d.syntax("cannot unmarshal value into " + kind)
	}
	d.off++
	if err := d.push(); err != nil {
		return err
	}
	first := true
	for {
		b, err := d.peek()
		if err != nil {
			return err
		}
		if b == '}' {
			d.off++
			d.depth--
			return nil
		}
		if !first {
			if err := d.expect(','); err != nil {
				return err
			}
			if b, err = d.peek(); err != nil {
				return err
			}
			if b == '}' {
				return d.syntax("trailing comma in object")
			}
		}
		first = false
		key, err := d.parseStringBytes()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		known, err := field(key)
		if err != nil {
			return err
		}
		if !known {
			if d.strict {
				return &UnknownFieldError{Field: string(key)}
			}
			if err := d.skipValue(); err != nil {
				return err
			}
		}
	}
}

// keyIs matches an unquoted object key against a field name with
// json's rules: exact bytes first, then Unicode case folding.
func keyIs(key []byte, name string) bool {
	if string(key) == name { // no alloc: compiler-recognized comparison
		return true
	}
	return strings.EqualFold(string(key), name)
}

func (d *decoder) runRequest(v *wire.RunRequest) error { return d.request(v, nil) }

func (d *decoder) slotRequest(v *SlotRequest) error { return d.request(&v.RunRequest, v) }

// request is the one RunRequest field walker. Its inputs go to the map
// sink, v.Inputs, or, when sr is non-nil, to sr's slot sink (v is then
// &sr.RunRequest).
func (d *decoder) request(v *wire.RunRequest, sr *SlotRequest) error {
	return d.object("RunRequest", func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "schema_version"):
			return true, d.fieldInt(&v.SchemaVersion)
		case keyIs(key, "tenant"):
			return true, d.fieldString(&v.Tenant)
		case keyIs(key, "inputs"):
			return true, d.fieldInputs(&v.Inputs, sr)
		case keyIs(key, "trace"):
			return true, d.fieldBool(&v.Trace)
		case keyIs(key, "mitigations"):
			return true, d.fieldBool(&v.Mitigations)
		}
		return false, nil
	})
}

func (d *decoder) event(v *wire.Event) error {
	return d.object("Event", func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "var"):
			return true, d.fieldString(&v.Var)
		case keyIs(key, "value"):
			return true, d.fieldInt64(&v.Value)
		case keyIs(key, "time"):
			return true, d.fieldUint64(&v.Time)
		}
		return false, nil
	})
}

func (d *decoder) mitRecord(v *wire.MitRecord) error {
	return d.object("MitRecord", func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "id"):
			return true, d.fieldInt(&v.ID)
		case keyIs(key, "duration"):
			return true, d.fieldUint64(&v.Duration)
		case keyIs(key, "elapsed"):
			return true, d.fieldUint64(&v.Elapsed)
		case keyIs(key, "start"):
			return true, d.fieldUint64(&v.Start)
		case keyIs(key, "mispredicted"):
			return true, d.fieldBool(&v.Mispredicted)
		}
		return false, nil
	})
}

func (d *decoder) runResponse(v *wire.RunResponse) error {
	return d.object("RunResponse", func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "schema_version"):
			return true, d.fieldInt(&v.SchemaVersion)
		case keyIs(key, "index"):
			return true, d.fieldInt(&v.Index)
		case keyIs(key, "shard"):
			return true, d.fieldInt(&v.Shard)
		case keyIs(key, "shard_index"):
			return true, d.fieldInt(&v.ShardIndex)
		case keyIs(key, "time"):
			return true, d.fieldUint64(&v.Time)
		case keyIs(key, "mispredictions"):
			return true, d.fieldInt(&v.Mispredictions)
		case keyIs(key, "tenant"):
			return true, d.fieldString(&v.Tenant)
		case keyIs(key, "epoch"):
			return true, d.fieldInt(&v.Epoch)
		case keyIs(key, "leakage_bits"):
			return true, d.fieldFloat64(&v.LeakageBits)
		case keyIs(key, "trace"):
			return true, decodeSlice(d, &v.Trace, (*decoder).event)
		case keyIs(key, "mitigations"):
			return true, decodeSlice(d, &v.Mitigations, (*decoder).mitRecord)
		}
		return false, nil
	})
}

func (d *decoder) wireError(v *wire.Error) error {
	return d.object("Error", func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "code"):
			return true, d.fieldString(&v.Code)
		case keyIs(key, "message"):
			return true, d.fieldString(&v.Message)
		case keyIs(key, "retry_after_ms"):
			return true, d.fieldInt64(&v.RetryAfterMS)
		}
		return false, nil
	})
}

func (d *decoder) batchRequest(v *wire.BatchRequest) error {
	return d.object("BatchRequest", func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "schema_version"):
			return true, d.fieldInt(&v.SchemaVersion)
		case keyIs(key, "requests"):
			return true, decodeSlice(d, &v.Requests, (*decoder).runRequest)
		}
		return false, nil
	})
}

func (d *decoder) batchResult(v *wire.BatchResult) error {
	return d.object("BatchResult", func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "response"):
			return true, decodePtr(d, &v.Response, (*decoder).runResponse)
		case keyIs(key, "error"):
			return true, decodePtr(d, &v.Error, (*decoder).wireError)
		}
		return false, nil
	})
}

func (d *decoder) batchResponse(v *wire.BatchResponse) error {
	return d.object("BatchResponse", func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "schema_version"):
			return true, d.fieldInt(&v.SchemaVersion)
		case keyIs(key, "results"):
			return true, decodeSlice(d, &v.Results, (*decoder).batchResult)
		}
		return false, nil
	})
}

// array walks one JSON array value, calling elem for its elements in
// order; a null array calls null instead.
func (d *decoder) array(null func(), elem func(i int) error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		d.off++
		if err := d.literal("ull"); err != nil {
			return err
		}
		null()
		return nil
	}
	if c != '[' {
		return d.syntax("cannot unmarshal value into slice field")
	}
	d.off++
	if err := d.push(); err != nil {
		return err
	}
	for i := 0; ; i++ {
		b, err := d.peek()
		if err != nil {
			return err
		}
		if b == ']' {
			d.off++
			d.depth--
			return nil
		}
		if i > 0 {
			if err := d.expect(','); err != nil {
				return err
			}
		}
		if err := elem(i); err != nil {
			return err
		}
	}
}

// decodeSlice decodes a JSON array into *dst with json.Unmarshal's
// reuse semantics: null sets the slice nil, elements within capacity
// are decoded in place (merging into stale values exactly as the
// stdlib does), and the final length equals the array's.
func decodeSlice[T any](d *decoder, dst *[]T, elem func(*decoder, *T) error) error {
	s, null := (*dst)[:0], false
	err := d.array(func() { null = true }, func(int) error {
		if len(s) < cap(s) {
			s = s[:len(s)+1]
		} else {
			var zero T
			s = append(s, zero)
		}
		return elem(d, &s[len(s)-1])
	})
	switch {
	case null:
		s = nil
	case s == nil:
		s = make([]T, 0)
	}
	*dst = s
	return err
}

// decodePtr decodes into a pointer field: null sets it nil, an object
// allocates the pointee on demand and merges into it otherwise.
func decodePtr[T any](d *decoder, dst **T, obj func(*decoder, *T) error) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		d.off++
		if err := d.literal("ull"); err != nil {
			return err
		}
		*dst = nil
		return nil
	}
	if *dst == nil {
		*dst = new(T)
	}
	return obj(d, *dst)
}

// ---------------------------------------------------------------------------
// Public decode API

// decodeTop runs one full document decode with trailing-data checking,
// managing the pooled decoder.
func decodeTop[T any](data []byte, v *T, strict bool, f func(*decoder, *T) error) error {
	d := getDecoder(data, strict)
	err := f(d, v)
	if err == nil {
		err = d.trailing()
	}
	putDecoder(d)
	return err
}

// DecodeRunRequest parses data into v. Strict mode rejects unknown
// fields (the server's DisallowUnknownFields semantics); either way
// trailing non-whitespace is an error. v is merged into, not reset:
// pass a zero value (or a recycled, cleared scratch) for a fresh
// decode.
func DecodeRunRequest(data []byte, v *wire.RunRequest, strict bool) error {
	return decodeTop(data, v, strict, (*decoder).runRequest)
}

// DecodeRunResponse parses data into v.
func DecodeRunResponse(data []byte, v *wire.RunResponse, strict bool) error {
	return decodeTop(data, v, strict, (*decoder).runResponse)
}

// DecodeBatchRequest parses data into v.
func DecodeBatchRequest(data []byte, v *wire.BatchRequest, strict bool) error {
	return decodeTop(data, v, strict, (*decoder).batchRequest)
}

// DecodeBatchResponse parses data into v.
func DecodeBatchResponse(data []byte, v *wire.BatchResponse, strict bool) error {
	return decodeTop(data, v, strict, (*decoder).batchResponse)
}

// DecodeBatchResult parses one batch item outcome (a /v1/stream
// response line) into v.
func DecodeBatchResult(data []byte, v *wire.BatchResult, strict bool) error {
	return decodeTop(data, v, strict, (*decoder).batchResult)
}

// DecodeError parses a bare wire error object into v.
func DecodeError(data []byte, v *wire.Error, strict bool) error {
	return decodeTop(data, v, strict, (*decoder).wireError)
}

// SlotInput is one request input resolved to a scalar slot of the
// served program (see mem.Memory.ScalarSlot).
type SlotInput struct {
	Slot  int
	Value int64
}

// SlotRequest is a RunRequest decoded for serving, by the same field
// walker as DecodeRunRequest, with its inputs resolved at decode to
// (slot, value) pairs in document order (its Inputs map stays nil).
// Setting the pairs in order gives the memory the map's declared names
// would: the last duplicate wins, null is 0, "inputs": null clears
// them. HasUnknown is set, and Unknown is the first name the resolver
// rejected, exactly when the map would hold an undeclared name.
type SlotRequest struct {
	wire.RunRequest
	Slots      []SlotInput
	Unknown    string
	HasUnknown bool
}

// Reset empties r for a fresh decode, keeping the capacity of Slots.
func (r *SlotRequest) Reset() { *r = SlotRequest{Slots: r.Slots[:0]} }

// DecodeSlotRequest parses a RunRequest document into v with the slot
// sink: resolve maps an input name to its scalar slot, or -1 for a
// name the program does not declare. Like DecodeRunRequest it merges
// into v; Reset it for a fresh decode.
func DecodeSlotRequest(data []byte, v *SlotRequest, strict bool, resolve func(name []byte) int) error {
	return decodeTop(data, v, strict, func(d *decoder, v *SlotRequest) error {
		d.resolve = resolve
		return d.slotRequest(v)
	})
}

// DecodeSlotBatch parses a BatchRequest document with the slot sink.
// Request i is decoded into elem(i), which is Reset before its first
// use in the document; a repeated "requests" key merges into the
// requests an earlier one decoded, and "requests": null forgets them,
// as DecodeBatchRequest does. It returns the batch's schema_version and
// the length of its (last) requests array.
func DecodeSlotBatch(data []byte, strict bool, resolve func(name []byte) int, elem func(i int) *SlotRequest) (version, n int, err error) {
	d := getDecoder(data, strict)
	d.resolve = resolve
	high := 0
	err = d.object("BatchRequest", func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "schema_version"):
			return true, d.fieldInt(&version)
		case keyIs(key, "requests"):
			return true, d.slotRequests(elem, &n, &high)
		}
		return false, nil
	})
	if err == nil {
		err = d.trailing()
	}
	putDecoder(d)
	return version, n, err
}

// slotRequests decodes a requests array into elem(0), elem(1), ... with
// decodeSlice's reuse semantics: an element below *high, decoded by an
// earlier "requests" key of the document, is merged into; a higher one
// is Reset first; null forgets them all. *n is the array's length.
func (d *decoder) slotRequests(elem func(int) *SlotRequest, n, high *int) error {
	*n = 0
	return d.array(func() { *high = 0 }, func(i int) error {
		v := elem(i)
		if i >= *high {
			v.Reset()
			*high = i + 1
		}
		*n = i + 1
		return d.slotRequest(v)
	})
}

// errorEnvelope parses the top-level {"error":{...}} failure body.
func (d *decoder) errorEnvelope(v *wire.Error) error {
	return d.object("ErrorEnvelope", func(key []byte) (bool, error) {
		if keyIs(key, "error") {
			null, err := d.tryNull()
			if null || err != nil {
				return true, err
			}
			return true, d.wireError(v)
		}
		return false, nil
	})
}

// DecodeErrorEnvelope parses a non-2xx response body {"error":{...}}
// into v; a missing or null error member leaves v untouched.
func DecodeErrorEnvelope(data []byte, v *wire.Error, strict bool) error {
	return decodeTop(data, v, strict, (*decoder).errorEnvelope)
}
