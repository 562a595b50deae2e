// Package fastjson is the hand-rolled wire codec for the mitigation
// service's hot message types: RunRequest, RunResponse, BatchRequest,
// BatchResponse, BatchResult, and the error envelope. It is the only
// codec the transport handler and the client SDK run; encoding/json is
// the reference its tests compare against.
//
// The encoders are append-style (they grow a caller-owned []byte, so a
// pooled buffer makes the steady state allocation-free) and the
// decoders parse in place with an interning scratch, pinned at zero
// steady-state allocations by the AllocsPerRun tests. Both directions
// are proven equivalent to encoding/json: the encoders byte-identical
// on every frozen golden fixture and under the FuzzWireCodecIdentity
// differential fuzz target, the decoders accept/reject the same
// documents and produce deeply equal values.
//
// encoding/json behaviors deliberately replicated, because they are
// observable in the bytes or in accept/reject decisions:
//
//   - HTML-escaping of <, >, & (Marshal's default),  /
//     escapes, and U+FFFD substitution for invalid UTF-8;
//   - map keys sorted lexicographically;
//   - the float format (%f between 1e-6 and 1e21, else %e with the
//     exponent's leading zero trimmed);
//   - omitempty semantics per field, nil slices as null;
//   - case-insensitive field matching on decode (exact match first),
//     null handling (no-op for scalars, nil for maps/slices/pointers),
//     merge semantics into non-zero destinations, and rejection of
//     trailing data (json.Unmarshal semantics, not Decoder's).
package fastjson

import (
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/transport/wire"
)

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal, byte-identical to
// encoding/json's Marshal (escapeHTML = true).
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safeSet(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control characters (and <, >, & under HTML escaping)
				// become \u00xx exactly as encoding/json writes them.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// safeSet reports whether an ASCII byte passes through unescaped under
// encoding/json's HTML-escaping string encoder.
func safeSet(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// appendFloat appends f in encoding/json's float64 format: %f for
// magnitudes in [1e-6, 1e21), otherwise %e with a trimmed exponent.
// Non-finite values return ok=false (Marshal errors on them).
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" to "e-9", as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// appendInputs appends the inputs map with keys sorted, matching
// encoding/json's deterministic map ordering. The small-N sort runs on
// a scratch key slice owned by the caller-passed buffer to stay
// allocation-free for typical request shapes.
func appendInputs(dst []byte, m map[string]int64) []byte {
	dst = append(dst, '{')
	switch len(m) {
	case 0:
	case 1:
		for k, v := range m {
			dst = appendString(dst, k)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, v, 10)
		}
	default:
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, k)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, m[k], 10)
		}
	}
	return append(dst, '}')
}

// AppendRunRequest appends v's compact JSON encoding to dst, byte-
// identical to json.Marshal(v).
func AppendRunRequest(dst []byte, v *wire.RunRequest) ([]byte, error) {
	dst = append(dst, '{')
	comma := false
	if v.SchemaVersion != 0 {
		dst = append(dst, `"schema_version":`...)
		dst = strconv.AppendInt(dst, int64(v.SchemaVersion), 10)
		comma = true
	}
	if v.Tenant != "" {
		if comma {
			dst = append(dst, ',')
		}
		dst = append(dst, `"tenant":`...)
		dst = appendString(dst, v.Tenant)
		comma = true
	}
	if len(v.Inputs) != 0 {
		if comma {
			dst = append(dst, ',')
		}
		dst = append(dst, `"inputs":`...)
		dst = appendInputs(dst, v.Inputs)
		comma = true
	}
	if v.Trace {
		if comma {
			dst = append(dst, ',')
		}
		dst = append(dst, `"trace":true`...)
		comma = true
	}
	if v.Mitigations {
		if comma {
			dst = append(dst, ',')
		}
		dst = append(dst, `"mitigations":true`...)
	}
	return append(dst, '}'), nil
}

// AppendRunResponse appends v's compact JSON encoding to dst.
func AppendRunResponse(dst []byte, v *wire.RunResponse) ([]byte, error) {
	dst = append(dst, `{"schema_version":`...)
	dst = strconv.AppendInt(dst, int64(v.SchemaVersion), 10)
	dst = append(dst, `,"index":`...)
	dst = strconv.AppendInt(dst, int64(v.Index), 10)
	dst = append(dst, `,"shard":`...)
	dst = strconv.AppendInt(dst, int64(v.Shard), 10)
	dst = append(dst, `,"shard_index":`...)
	dst = strconv.AppendInt(dst, int64(v.ShardIndex), 10)
	dst = append(dst, `,"time":`...)
	dst = strconv.AppendUint(dst, v.Time, 10)
	dst = append(dst, `,"mispredictions":`...)
	dst = strconv.AppendInt(dst, int64(v.Mispredictions), 10)
	if v.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = appendString(dst, v.Tenant)
	}
	if v.Epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendInt(dst, int64(v.Epoch), 10)
	}
	if v.LeakageBits != 0 {
		dst = append(dst, `,"leakage_bits":`...)
		var ok bool
		if dst, ok = appendFloat(dst, v.LeakageBits); !ok {
			return dst, &wire.Error{Code: wire.CodeInternal, Message: "fastjson: non-finite leakage_bits"}
		}
	}
	if len(v.Trace) != 0 {
		dst = append(dst, `,"trace":[`...)
		for i := range v.Trace {
			if i > 0 {
				dst = append(dst, ',')
			}
			e := &v.Trace[i]
			dst = append(dst, `{"var":`...)
			dst = appendString(dst, e.Var)
			dst = append(dst, `,"value":`...)
			dst = strconv.AppendInt(dst, e.Value, 10)
			dst = append(dst, `,"time":`...)
			dst = strconv.AppendUint(dst, e.Time, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(v.Mitigations) != 0 {
		dst = append(dst, `,"mitigations":[`...)
		for i := range v.Mitigations {
			if i > 0 {
				dst = append(dst, ',')
			}
			m := &v.Mitigations[i]
			dst = append(dst, `{"id":`...)
			dst = strconv.AppendInt(dst, int64(m.ID), 10)
			dst = append(dst, `,"duration":`...)
			dst = strconv.AppendUint(dst, m.Duration, 10)
			dst = append(dst, `,"elapsed":`...)
			dst = strconv.AppendUint(dst, m.Elapsed, 10)
			dst = append(dst, `,"start":`...)
			dst = strconv.AppendUint(dst, m.Start, 10)
			if m.Mispredicted {
				dst = append(dst, `,"mispredicted":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// AppendError appends the bare wire error object (no envelope).
func AppendError(dst []byte, v *wire.Error) []byte {
	dst = append(dst, `{"code":`...)
	dst = appendString(dst, v.Code)
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, v.Message)
	if v.RetryAfterMS != 0 {
		dst = append(dst, `,"retry_after_ms":`...)
		dst = strconv.AppendInt(dst, v.RetryAfterMS, 10)
	}
	return append(dst, '}')
}

// AppendErrorEnvelope appends the top-level error envelope
// {"error":{...}}, the body of every non-2xx response.
func AppendErrorEnvelope(dst []byte, v *wire.Error) ([]byte, error) {
	dst = append(dst, `{"error":`...)
	dst = AppendError(dst, v)
	return append(dst, '}'), nil
}

// AppendBatchRequest appends v's compact JSON encoding to dst.
func AppendBatchRequest(dst []byte, v *wire.BatchRequest) ([]byte, error) {
	dst = append(dst, '{')
	if v.SchemaVersion != 0 {
		dst = append(dst, `"schema_version":`...)
		dst = strconv.AppendInt(dst, int64(v.SchemaVersion), 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"requests":`...)
	if v.Requests == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i := range v.Requests {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = AppendRunRequest(dst, &v.Requests[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// AppendBatchResult appends one batch item outcome; this is also the
// line format of the /v1/stream NDJSON response (without the newline).
func AppendBatchResult(dst []byte, v *wire.BatchResult) ([]byte, error) {
	dst = append(dst, '{')
	comma := false
	if v.Response != nil {
		dst = append(dst, `"response":`...)
		var err error
		if dst, err = AppendRunResponse(dst, v.Response); err != nil {
			return dst, err
		}
		comma = true
	}
	if v.Error != nil {
		if comma {
			dst = append(dst, ',')
		}
		dst = append(dst, `"error":`...)
		dst = AppendError(dst, v.Error)
	}
	return append(dst, '}'), nil
}

// AppendBatchResponse appends v's compact JSON encoding to dst.
func AppendBatchResponse(dst []byte, v *wire.BatchResponse) ([]byte, error) {
	dst = append(dst, `{"schema_version":`...)
	dst = strconv.AppendInt(dst, int64(v.SchemaVersion), 10)
	dst = append(dst, `,"results":`...)
	if v.Results == nil {
		dst = append(dst, `null`...)
	} else {
		dst = append(dst, '[')
		for i := range v.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = AppendBatchResult(dst, &v.Results[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}
