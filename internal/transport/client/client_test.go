package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/splitmix"
	"repro/internal/transport/wire"
)

// fakeService answers /v1/run with fail503 rejections before
// succeeding, counting attempts.
func fakeService(t *testing.T, fail503 int, code string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := attempts.Add(1)
		if int(n) <= fail503 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(struct {
				Error *wire.Error `json:"error"`
			}{&wire.Error{Code: code, Message: "go away", RetryAfterMS: 1000}})
			return
		}
		json.NewEncoder(w).Encode(wire.RunResponse{SchemaVersion: wire.SchemaVersion, Time: 512})
	}))
	t.Cleanup(ts.Close)
	return ts, &attempts
}

// TestRetryOn503IsDeterministic is the retry acceptance check: a
// client with a fixed seed retries overload rejections on exactly the
// backoff schedule the pool's own jitter formula prescribes.
func TestRetryOn503IsDeterministic(t *testing.T) {
	ts, attempts := fakeService(t, 2, wire.CodeOverloaded)
	const seed = 42
	c := New(ts.URL, Options{MaxRetries: 3, RetryBase: time.Millisecond, RetrySeed: seed})
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) bool {
		slept = append(slept, d)
		return true
	}

	resp, err := c.Run(context.Background(), wire.RunRequest{})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	if resp.Time != 512 {
		t.Errorf("Time = %d", resp.Time)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (1 initial + 2 retries)", got)
	}

	// The delays must replay the pool's formula exactly: exponential
	// from RetryBase with jitter in [d/2, d] drawn from Mix64(seed, seq).
	want := make([]time.Duration, 2)
	for i := range want {
		d := time.Millisecond
		for k := 1; k < i+1; k++ {
			d *= 2
		}
		frac := float64(splitmix.Mix64(seed, uint64(i+1))>>11) / float64(1<<53)
		want[i] = d/2 + time.Duration(frac*float64(d/2))
	}
	if len(slept) != len(want) {
		t.Fatalf("slept %d times, want %d", len(slept), len(want))
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v", i, slept[i], want[i])
		}
		if slept[i] < time.Millisecond/2 || slept[i] > time.Millisecond<<uint(i) {
			t.Errorf("backoff %d = %v outside [base/2, base*2^i]", i, slept[i])
		}
	}

	// Same seed, fresh client: identical schedule (determinism).
	ts2, _ := fakeService(t, 2, wire.CodeOverloaded)
	c2 := New(ts2.URL, Options{MaxRetries: 3, RetryBase: time.Millisecond, RetrySeed: seed})
	var slept2 []time.Duration
	c2.sleep = func(ctx context.Context, d time.Duration) bool {
		slept2 = append(slept2, d)
		return true
	}
	if _, err := c2.Run(context.Background(), wire.RunRequest{}); err != nil {
		t.Fatal(err)
	}
	for i := range slept {
		if slept[i] != slept2[i] {
			t.Errorf("retry schedule not reproducible: %v vs %v", slept, slept2)
		}
	}
}

func TestRetriesExhaustedSurfacesTypedError(t *testing.T) {
	ts, attempts := fakeService(t, 100, wire.CodeOverloaded)
	c := New(ts.URL, Options{MaxRetries: 2, RetrySeed: 7})
	c.sleep = func(context.Context, time.Duration) bool { return true }
	_, err := c.Run(context.Background(), wire.RunRequest{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var cerr *Error
	if !errors.As(err, &cerr) || cerr.Status != http.StatusServiceUnavailable {
		t.Errorf("typed error = %+v", cerr)
	}
	if cerr.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s", cerr.RetryAfter)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
}

func TestShuttingDownIsNotRetried(t *testing.T) {
	ts, attempts := fakeService(t, 100, wire.CodeShuttingDown)
	c := New(ts.URL, Options{MaxRetries: 5, RetrySeed: 7})
	c.sleep = func(context.Context, time.Duration) bool { return true }
	_, err := c.Run(context.Background(), wire.RunRequest{})
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("err = %v, want ErrShuttingDown", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1 (drain is terminal)", got)
	}
}

func TestErrorCodeMapping(t *testing.T) {
	for _, tc := range []struct {
		status int
		code   string
		want   error
	}{
		{http.StatusUnprocessableEntity, wire.CodeBudgetExceeded, ErrBudgetExceeded},
		{http.StatusBadRequest, wire.CodeUnknownInput, ErrInvalidRequest},
		{http.StatusBadRequest, wire.CodeInvalidRequest, ErrInvalidRequest},
		{http.StatusGatewayTimeout, wire.CodeDeadlineExceeded, context.DeadlineExceeded},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(tc.status)
			json.NewEncoder(w).Encode(struct {
				Error *wire.Error `json:"error"`
			}{&wire.Error{Code: tc.code, Message: "nope"}})
		}))
		c := New(ts.URL, Options{})
		_, err := c.Run(context.Background(), wire.RunRequest{})
		if !errors.Is(err, tc.want) {
			t.Errorf("code %s: err = %v, want %v", tc.code, err, tc.want)
		}
		ts.Close()
	}
}

func TestNonJSONErrorBodySurvives(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	_, err := c.Run(context.Background(), wire.RunRequest{})
	var cerr *Error
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *Error", err)
	}
	if cerr.Status != http.StatusBadGateway || cerr.Code != wire.CodeInternal {
		t.Errorf("error = %+v", cerr)
	}
}
