// Package wire defines the versioned JSON schema of the mitigation
// service's HTTP API — the one vocabulary the server (internal/transport)
// and the client SDK (internal/transport/client) share.
//
// Wire types are deliberately decoupled from the internal structs they
// describe (server.Response, events.Event, obs.Export): the transport
// layer converts at the boundary, so internal refactors never leak into
// the network contract. The JSON field names below are frozen by the
// golden fixtures in internal/transport/testdata/wire; any incompatible
// change must bump SchemaVersion.
//
// The package imports only the standard library, so external tooling
// could vendor it wholesale to talk to the service.
package wire

import "fmt"

// SchemaVersion is the current wire schema. Requests may omit the
// version (zero means "current"); responses always carry it.
//
// Version history:
//
//	v1 — initial schema (run/batch/metrics/health, error codes).
//	v2 — tenant sessions: RunRequest.Tenant, the tenant/epoch/
//	     leakage-account fields on RunResponse, and the
//	     leakage_budget_exceeded error code. Purely additive: every v1
//	     document is a valid v2 document, so the server keeps accepting
//	     requests declaring schema_version 1 (they simply cannot name a
//	     tenant, v1 had no field for one).
const SchemaVersion = 2

// MinSchemaVersion is the oldest request schema the server still
// decodes. v2 is additive over v1, so v1 requests remain valid.
const MinSchemaVersion = 1

// RunRequest is the body of POST /v1/run: scalar inputs to set in the
// program's memory before the run. Array state cannot be supplied over
// the wire in schema v1 — services pre-bake arrays (lookup tables,
// stored credentials) into the program or its setup.
type RunRequest struct {
	// SchemaVersion is the schema this request speaks; 0 means the
	// current version.
	SchemaVersion int `json:"schema_version,omitempty"`
	// Tenant, when set, runs the request inside that tenant's session:
	// persistent per-tenant mitigation state and a cumulative leakage
	// account, enforced against the server's leakage budget (schema
	// v2). Empty means anonymous — the shard-global mitigation state, as
	// in v1. The X-Timing-Tenant header is an equivalent fallback for
	// clients that cannot touch the body.
	Tenant string `json:"tenant,omitempty"`
	// Inputs maps declared scalar names to the values to assign before
	// execution. Unknown names are rejected with CodeUnknownInput —
	// never silently dropped, since a typo'd secret would otherwise run
	// the program on stale state.
	Inputs map[string]int64 `json:"inputs,omitempty"`
	// Trace requests the observable event trace in the response;
	// Mitigations likewise the mitigation records. Both default off to
	// keep responses small.
	Trace       bool `json:"trace,omitempty"`
	Mitigations bool `json:"mitigations,omitempty"`
}

// RunResponse is the body of a successful run: the server.Response
// fields that are part of the public contract.
type RunResponse struct {
	SchemaVersion int `json:"schema_version"`
	// Index is the request's global submission index; Shard the worker
	// that served it; ShardIndex its position within that shard. Every
	// run the shard started takes a position, delivered or not, so a
	// run that failed after it started (cut off by its deadline, or over
	// a budget) leaves a gap: the shard's state after that gap includes
	// whatever the failed run did to its caches and predictor. A shard
	// whose runs all succeeded has no gaps.
	Index      int `json:"index"`
	Shard      int `json:"shard"`
	ShardIndex int `json:"shard_index"`
	// Time is the request's total processing time in simulated cycles —
	// the round-trip latency a coresident adversary could measure.
	Time uint64 `json:"time"`
	// Mispredictions counts mitigation prediction misses in this run.
	Mispredictions int `json:"mispredictions"`
	// Tenant echoes the session the request ran in (schema v2; absent
	// for anonymous requests). Epoch is the tenant's committed request
	// count after this run, and LeakageBits the tenant's cumulative §7
	// leakage bound — the budget meter a client can watch.
	Tenant      string  `json:"tenant,omitempty"`
	Epoch       int     `json:"epoch,omitempty"`
	LeakageBits float64 `json:"leakage_bits,omitempty"`
	// Trace and Mitigations are present when requested.
	Trace       []Event     `json:"trace,omitempty"`
	Mitigations []MitRecord `json:"mitigations,omitempty"`
}

// Event mirrors events.Event: variable x took value v at
// request-relative time t.
type Event struct {
	Var   string `json:"var"`
	Value int64  `json:"value"`
	Time  uint64 `json:"time"`
}

// MitRecord mirrors events.MitRecord: one completed mitigate command.
type MitRecord struct {
	ID           int    `json:"id"`
	Duration     uint64 `json:"duration"`
	Elapsed      uint64 `json:"elapsed"`
	Start        uint64 `json:"start"`
	Mispredicted bool   `json:"mispredicted,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: a request sequence
// served as a finite stream, each item submitted and answered in
// order.
type BatchRequest struct {
	SchemaVersion int          `json:"schema_version,omitempty"`
	Requests      []RunRequest `json:"requests"`
}

// BatchResponse carries one result per submitted request, in
// submission order. A failed item does not fail the batch: each result
// holds either a response or an error, mirroring the pool's
// independent-requests semantics.
type BatchResponse struct {
	SchemaVersion int           `json:"schema_version"`
	Results       []BatchResult `json:"results"`
}

// BatchResult is one item outcome: exactly one of Response and Error
// is set.
type BatchResult struct {
	Response *RunResponse `json:"response,omitempty"`
	Error    *Error       `json:"error,omitempty"`
}

// Error is the wire form of every failure, top-level or per-item.
// Code is machine-readable and stable; Message is human-readable and
// free to change.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS, when positive, tells the client how long to wait
	// before retrying (also carried as a Retry-After header on
	// top-level 503 responses).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Stable error codes. Clients dispatch on these, never on Message.
const (
	// CodeInvalidRequest: malformed JSON, wrong schema version, or a
	// structurally invalid request body.
	CodeInvalidRequest = "invalid_request"
	// CodeUnknownInput: an Inputs name that is not a declared scalar of
	// the served program.
	CodeUnknownInput = "unknown_input"
	// CodeBudgetExceeded: the run exhausted the server's step or cycle
	// budget (mirrors server.ErrBudgetExceeded).
	CodeBudgetExceeded = "budget_exceeded"
	// CodeOverloaded: load shedding rejected the request (mirrors
	// server.ErrOverloaded); retry after the advertised delay.
	CodeOverloaded = "overloaded"
	// CodeLeakageBudget: the tenant's cumulative leakage bound reached
	// its budget (schema v2; mirrors session.ErrBudgetExceeded). Mapped
	// to HTTP 429 with a Retry-After derived from the session TTL —
	// the account resets when the session expires.
	CodeLeakageBudget = "leakage_budget_exceeded"
	// CodeShuttingDown: the service is draining and no longer accepts
	// work (mirrors server.ErrPoolClosed).
	CodeShuttingDown = "shutting_down"
	// CodeDeadlineExceeded: the request timed out server-side.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCanceled: the client went away before the run finished.
	CodeCanceled = "canceled"
	// CodeInternal: any other failure.
	CodeInternal = "internal"
)

// Health is the body of GET /v1/healthz.
type Health struct {
	SchemaVersion int `json:"schema_version"`
	// Status is "ok" while serving and "draining" once shutdown began.
	Status string `json:"status"`
	// Engine names the execution engine ("tree"/"vm"); Workers the
	// shard count.
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
}

// Health status values.
const (
	StatusOK       = "ok"
	StatusDraining = "draining"
)
