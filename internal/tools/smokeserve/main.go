// Command smokeserve is the end-to-end smoke test for `timingc serve
// -listen`: it builds the real binary, starts it on an ephemeral
// loopback port, drives it through the client SDK (health, a
// 100-request batch, a metrics scrape in both formats, a pipelined
// /v1/stream exchange), then sends SIGINT mid-stream and checks the
// two-phase drain: the open stream gets a terminal shutting_down line
// and a clean end before the process exits. It runs the drive once per
// engine, tree then vm, so both serve over real sockets. Run via `make
// smoke-serve`.
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/transport/client"
	"repro/internal/transport/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "smoke-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("smoke-serve: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "smokeserve")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "timingc")

	build := exec.Command("go", "build", "-o", bin, "./cmd/timingc")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build timingc: %w", err)
	}
	for _, engine := range []string{"tree", "vm"} {
		if err := drive(bin, engine); err != nil {
			return fmt.Errorf("-engine %s: %w", engine, err)
		}
	}
	return nil
}

// drive serves the API from bin on the given engine and runs the whole
// exchange against it, shutdown included.
func drive(bin, engine string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	srv := exec.CommandContext(ctx, bin,
		"serve", "-listen", "127.0.0.1:0", "-workers", "2", "-engine", engine,
		filepath.Join("testdata", "mitigated.tc"))
	srv.Stderr = os.Stderr
	stdout, err := srv.StdoutPipe()
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return fmt.Errorf("start serve: %w", err)
	}
	defer srv.Process.Kill()

	// The serve command announces its bound address first; everything
	// after that is the shutdown transcript, drained in the background
	// so the final checks can read it.
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "listening on http://"); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		return fmt.Errorf("serve never announced its address (scan err: %v)", sc.Err())
	}
	rest := make(chan string, 1)
	go func() {
		var b strings.Builder
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteString("\n")
		}
		rest <- b.String()
	}()

	base := "http://" + addr
	c := client.New(base, client.Options{MaxRetries: 3, RetrySeed: 1})

	health, err := c.Health(ctx)
	if err != nil {
		return fmt.Errorf("health: %w", err)
	}
	if health.Status != wire.StatusOK || health.Workers != 2 || health.Engine != engine {
		return fmt.Errorf("health = %+v", health)
	}

	const n = 100
	reqs := make([]wire.RunRequest, n)
	for i := range reqs {
		reqs[i] = wire.RunRequest{Inputs: map[string]int64{"h": int64(i % 64)}}
	}
	batch, err := c.RunBatch(ctx, reqs)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if len(batch.Results) != n {
		return fmt.Errorf("batch returned %d results, want %d", len(batch.Results), n)
	}
	for i, res := range batch.Results {
		if err := client.Err(res); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
		if res.Response.Time == 0 {
			return fmt.Errorf("batch item %d: zero simulated time", i)
		}
	}

	export, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if export.Requests < n {
		return fmt.Errorf("metrics count %d requests, want >= %d", export.Requests, n)
	}
	if export.Mitigations == 0 {
		return fmt.Errorf("no mitigations recorded: %+v", export)
	}
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return fmt.Errorf("prometheus scrape: %w", err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"timingc_requests_total", "timingc_mitigations_total",
		"timingc_latency_cycles_bucket", "timingc_stream_items_total", "timingc_streams_active"} {
		if !strings.Contains(string(prom), want) {
			return fmt.Errorf("prometheus exposition missing %s:\n%s", want, prom)
		}
	}

	// Streaming phase: pipeline a burst over /v1/stream, then SIGINT
	// while the stream is still open. Two-phase drain means the open
	// stream is not cut off: the next request line is answered with a
	// terminal shutting_down error, the stream ends cleanly, and only
	// then does the process exit.
	s, err := c.Stream(ctx)
	if err != nil {
		return fmt.Errorf("stream open: %w", err)
	}
	const streamN = 8
	for i := 0; i < streamN; i++ {
		if err := s.Send(wire.RunRequest{Inputs: map[string]int64{"h": int64(i % 64)}}); err != nil {
			return fmt.Errorf("stream send %d: %w", i, err)
		}
	}
	for i := 0; i < streamN; i++ {
		res, err := s.Recv()
		if err != nil {
			return fmt.Errorf("stream recv %d: %w", i, err)
		}
		if res.Response == nil || res.Response.Time == 0 {
			return fmt.Errorf("stream item %d failed: %+v", i, res)
		}
	}

	if err := srv.Process.Signal(os.Interrupt); err != nil {
		return fmt.Errorf("interrupt: %w", err)
	}
	// The drain flag is set asynchronously to the signal; keep the
	// stream busy until the service starts refusing lines.
	sawDrain := false
	for i := 0; i < 200 && !sawDrain; i++ {
		if err := s.Send(wire.RunRequest{Inputs: map[string]int64{"h": 1}}); err != nil {
			return fmt.Errorf("mid-drain send: %w", err)
		}
		res, err := s.Recv()
		if err != nil {
			return fmt.Errorf("mid-drain recv: %w", err)
		}
		if res.Error != nil {
			if res.Error.Code != wire.CodeShuttingDown {
				return fmt.Errorf("mid-drain error = %+v, want %s", res.Error, wire.CodeShuttingDown)
			}
			sawDrain = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawDrain {
		return fmt.Errorf("open stream never saw the shutting_down drain line after SIGINT")
	}
	// The drain line is terminal: the service closes its side.
	if _, err := s.Recv(); err != io.EOF {
		return fmt.Errorf("stream after drain line: err = %v, want io.EOF", err)
	}
	if err := s.Close(); err != nil {
		return fmt.Errorf("stream close: %w", err)
	}

	if err := srv.Wait(); err != nil {
		return fmt.Errorf("serve exited uncleanly: %w", err)
	}
	tail := <-rest
	for _, want := range []string{"draining", "served"} {
		if !strings.Contains(tail, want) {
			return fmt.Errorf("shutdown transcript missing %q:\n%s", want, tail)
		}
	}
	return nil
}
