package transport

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport/wire"
)

// TestErrorPaths drives every request-rejection path against a live
// server and asserts the exact HTTP status and wire error code: these
// are the transport's contract with clients, and a code drifting (or a
// rejection silently turning into acceptance) is a wire break even
// when nothing crashes.
func TestErrorPaths(t *testing.T) {
	mgr := newSessions(t, session.Options{})
	_, ts := newService(t, server.PoolOptions{}, Options{Sessions: mgr, MaxBatch: 4})

	okRun := func() wire.RunRequest { return wire.RunRequest{Inputs: map[string]int64{"h": 1}} }
	overBatch := wire.BatchRequest{Requests: make([]wire.RunRequest, 5)}
	for i := range overBatch.Requests {
		overBatch.Requests[i] = okRun()
	}

	cases := []struct {
		name       string
		path       string
		body       string // raw JSON body
		header     map[string]string
		wantStatus int
		wantCode   string
		wantMsg    string // substring the error message must carry
	}{
		{
			name:       "malformed JSON run",
			path:       "/v1/run",
			body:       `{"inputs": {`,
			wantStatus: http.StatusBadRequest,
			wantCode:   wire.CodeInvalidRequest,
		},
		{
			name:       "malformed JSON batch",
			path:       "/v1/batch",
			body:       `[not even an object`,
			wantStatus: http.StatusBadRequest,
			wantCode:   wire.CodeInvalidRequest,
		},
		{
			name:       "unknown field",
			path:       "/v1/run",
			body:       `{"inputs":{"h":1},"exfiltrate":true}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   wire.CodeInvalidRequest,
			wantMsg:    "exfiltrate",
		},
		{
			name:       "schema_version above current",
			path:       "/v1/run",
			body:       mustJSON(t, wire.RunRequest{SchemaVersion: wire.SchemaVersion + 1, Inputs: map[string]int64{"h": 1}}),
			wantStatus: http.StatusBadRequest,
			wantCode:   wire.CodeInvalidRequest,
			wantMsg:    fmt.Sprintf("schema_version %d", wire.SchemaVersion+1),
		},
		{
			// 0 means "current" by design, so the oldest invalid
			// below-minimum version is negative.
			name:       "negative schema_version",
			path:       "/v1/run",
			body:       `{"schema_version":-1,"inputs":{"h":1}}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   wire.CodeInvalidRequest,
		},
		{
			name:       "schema_version above current in batch",
			path:       "/v1/batch",
			body:       mustJSON(t, wire.BatchRequest{SchemaVersion: wire.SchemaVersion + 1, Requests: []wire.RunRequest{okRun()}}),
			wantStatus: http.StatusBadRequest,
			wantCode:   wire.CodeInvalidRequest,
		},
		{
			name:       "schema_version above current in batch item",
			path:       "/v1/batch",
			body:       mustJSON(t, wire.BatchRequest{Requests: []wire.RunRequest{{SchemaVersion: wire.SchemaVersion + 1, Inputs: map[string]int64{"h": 1}}}}),
			wantStatus: http.StatusBadRequest,
			wantCode:   wire.CodeInvalidRequest,
			wantMsg:    "request 0",
		},
		{
			name:       "unknown input name",
			path:       "/v1/run",
			body:       `{"inputs":{"no_such_var":1}}`,
			wantStatus: http.StatusBadRequest,
			wantCode:   wire.CodeUnknownInput,
			wantMsg:    "no_such_var",
		},
		{
			name:       "tenant header/body mismatch",
			path:       "/v1/run",
			body:       mustJSON(t, wire.RunRequest{Tenant: "alice", Inputs: map[string]int64{"h": 1}}),
			header:     map[string]string{TenantHeader: "mallory"},
			wantStatus: http.StatusBadRequest,
			wantCode:   wire.CodeInvalidRequest,
			wantMsg:    "tenant mismatch",
		},
		{
			name: "tenant mismatch inside batch item",
			path: "/v1/batch",
			body: mustJSON(t, wire.BatchRequest{Requests: []wire.RunRequest{
				okRun(),
				{Tenant: "bob", Inputs: map[string]int64{"h": 2}},
			}}),
			header:     map[string]string{TenantHeader: "alice"},
			wantStatus: http.StatusBadRequest,
			wantCode:   wire.CodeInvalidRequest,
			wantMsg:    "request 1",
		},
		{
			name:       "oversized batch",
			path:       "/v1/batch",
			body:       mustJSON(t, overBatch),
			wantStatus: http.StatusBadRequest,
			wantCode:   wire.CodeInvalidRequest,
			wantMsg:    "at most 4",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("POST", ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var out struct {
				Error *wire.Error `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("error body must be JSON: %v", err)
			}
			if out.Error == nil {
				t.Fatal("missing error object")
			}
			if out.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", out.Error.Code, tc.wantCode)
			}
			if tc.wantMsg != "" && !strings.Contains(out.Error.Message, tc.wantMsg) {
				t.Errorf("message %q does not mention %q", out.Error.Message, tc.wantMsg)
			}
		})
	}

	// No session may have been opened by any rejected request.
	if n := mgr.Len(); n != 0 {
		t.Errorf("rejected requests opened %d sessions", n)
	}
}

// TestTenantAgreementAccepted: body and header naming the SAME tenant
// is fine — the mismatch check must not break the redundant-but-
// consistent case.
func TestTenantAgreementAccepted(t *testing.T) {
	mgr := newSessions(t, session.Options{})
	_, ts := newService(t, server.PoolOptions{}, Options{Sessions: mgr})

	body := mustJSON(t, wire.RunRequest{Tenant: "alice", Inputs: map[string]int64{"h": 1}})
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out wire.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != "alice" {
		t.Errorf("tenant = %q", out.Tenant)
	}
}

// TestBatchBoundConfig: the default bound applies at 0, a negative
// value disables the check, and an in-bounds batch is served whole.
func TestBatchBoundConfig(t *testing.T) {
	_, ts := newService(t, server.PoolOptions{}, Options{MaxBatch: -1})
	batch := wire.BatchRequest{Requests: make([]wire.RunRequest, DefaultMaxBatch+1)}
	for i := range batch.Requests {
		batch.Requests[i] = wire.RunRequest{Inputs: map[string]int64{"h": int64(i % 8)}}
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disabled bound must admit any batch: %d %s", resp.StatusCode, body[:min(120, len(body))])
	}
	var out wire.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != DefaultMaxBatch+1 {
		t.Errorf("%d results", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Error != nil {
			t.Fatalf("item %d failed: %+v", i, r.Error)
		}
	}

	h := &Handler{opts: Options{}}
	if got := h.maxBatch(); got != DefaultMaxBatch {
		t.Errorf("default maxBatch = %d", got)
	}
	h.opts.MaxBatch = 7
	if got := h.maxBatch(); got != 7 {
		t.Errorf("explicit maxBatch = %d", got)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
