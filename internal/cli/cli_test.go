package cli

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdataPath resolves a file in the repository's testdata directory.
func testdataPath(t *testing.T, name string) string {
	t.Helper()
	p := filepath.Join("..", "..", "testdata", name)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("missing testdata file: %v", err)
	}
	return p
}

// run invokes the CLI and returns (exit code, stdout, stderr).
func run(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := Run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestNoArgs(t *testing.T) {
	code, _, errOut := run()
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage:") {
		t.Error("usage expected on stderr")
	}
}

func TestUnknownCommand(t *testing.T) {
	code, _, errOut := run("frobnicate")
	if code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Errorf("exit=%d stderr=%q", code, errOut)
	}
}

func TestHelp(t *testing.T) {
	code, out, _ := run("help")
	if code != 0 || !strings.Contains(out, "verify") {
		t.Errorf("help: exit=%d out=%q", code, out)
	}
}

func TestCheckMitigated(t *testing.T) {
	code, out, errOut := run("check", testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "OK (end timing label L)") {
		t.Errorf("missing OK line:\n%s", out)
	}
	if !strings.Contains(out, "mitigate@0") || !strings.Contains(out, "pc=L, level=H") {
		t.Errorf("missing mitigate summary:\n%s", out)
	}
	if !strings.Contains(out, "[H,H]") {
		t.Errorf("resolved labels not printed:\n%s", out)
	}
}

func TestCheckInsecure(t *testing.T) {
	code, _, errOut := run("check", testdataPath(t, "insecure.tc"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "leaks") {
		t.Errorf("stderr = %q", errOut)
	}
	// Diagnostics come with a source excerpt and caret.
	if !strings.Contains(errOut, "done := 1;") || !strings.Contains(errOut, "^") {
		t.Errorf("source excerpt missing:\n%s", errOut)
	}
	if !strings.Contains(errOut, "insecure.tc:7:1:") {
		t.Errorf("file:line:col header missing:\n%s", errOut)
	}
}

func TestCheckThreeLevel(t *testing.T) {
	code, out, errOut := run("check", "-lattice", "three", testdataPath(t, "threelevel.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "level=M") {
		t.Errorf("expected M-level mitigate:\n%s", out)
	}
	// The same program under the two-point lattice fails (unknown M).
	code, _, errOut = run("check", testdataPath(t, "threelevel.tc"))
	if code != 1 || !strings.Contains(errOut, "unknown security label") {
		t.Errorf("two-point check: exit=%d stderr=%q", code, errOut)
	}
}

func TestCheckInference(t *testing.T) {
	code, out, errOut := run("check", testdataPath(t, "inferme.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	// The if under mitigate has a high guard: branches inferred [H,H].
	if !strings.Contains(out, "acc := acc + h [H,H];") {
		t.Errorf("inference output missing:\n%s", out)
	}
}

func TestFmtPlainAndResolved(t *testing.T) {
	code, plain, _ := run("fmt", testdataPath(t, "inferme.tc"))
	if code != 0 {
		t.Fatal("fmt failed")
	}
	if strings.Contains(plain, "[H,H]") {
		t.Errorf("plain fmt should not invent labels:\n%s", plain)
	}
	code, resolved, _ := run("fmt", "-resolved", testdataPath(t, "inferme.tc"))
	if code != 0 {
		t.Fatal("fmt -resolved failed")
	}
	if !strings.Contains(resolved, "[H,H]") {
		t.Errorf("resolved fmt should print inferred labels:\n%s", resolved)
	}
}

func TestRunMitigated(t *testing.T) {
	code, out, errOut := run("run", "-set", "h=25", testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{"terminated", "partitioned hardware", "(done, 1,", "mitigate@0"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
}

func TestRunDeterministicAcrossSecrets(t *testing.T) {
	// The adversary-visible parts — events and padded mitigation
	// durations — must be secret-independent. (The printed raw body
	// time is runtime-internal diagnostics and legitimately varies.)
	observable := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "terminated") || strings.Contains(line, "(done,") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	_, out1, _ := run("run", "-set", "h=3", testdataPath(t, "mitigated.tc"))
	_, out2, _ := run("run", "-set", "h=61", testdataPath(t, "mitigated.tc"))
	if observable(out1) != observable(out2) {
		t.Errorf("mitigated observables should be secret-independent:\n%s\nvs\n%s", out1, out2)
	}
}

func TestRunUnmitigatedDiffers(t *testing.T) {
	_, out1, _ := run("run", "-mitigate=false", "-set", "h=3", testdataPath(t, "mitigated.tc"))
	_, out2, _ := run("run", "-mitigate=false", "-set", "h=61", testdataPath(t, "mitigated.tc"))
	if out1 == out2 {
		t.Error("unmitigated runs should differ with the secret")
	}
}

func TestRunBadVariable(t *testing.T) {
	code, _, errOut := run("run", "-set", "nope=1", testdataPath(t, "mitigated.tc"))
	if code != 1 || !strings.Contains(errOut, "no such scalar") {
		t.Errorf("exit=%d stderr=%q", code, errOut)
	}
}

func TestRunBadSetSyntax(t *testing.T) {
	code, _, _ := run("run", "-set", "h", testdataPath(t, "mitigated.tc"))
	if code == 0 {
		t.Error("expected failure for malformed -set")
	}
	code, _, _ = run("run", "-set", "h=xyz", testdataPath(t, "mitigated.tc"))
	if code == 0 {
		t.Error("expected failure for non-numeric -set")
	}
}

func TestRunFlatHardware(t *testing.T) {
	code, out, _ := run("run", "-hw", "flat", testdataPath(t, "mitigated.tc"))
	if code != 0 || !strings.Contains(out, "flat hardware") {
		t.Errorf("exit=%d out=%q", code, out)
	}
}

func TestBadHardwareAndLattice(t *testing.T) {
	code, _, errOut := run("run", "-hw", "quantum", testdataPath(t, "mitigated.tc"))
	if code != 1 || !strings.Contains(errOut, "unknown hardware") {
		t.Errorf("exit=%d stderr=%q", code, errOut)
	}
	code, _, errOut = run("check", "-lattice", "moebius", testdataPath(t, "mitigated.tc"))
	if code != 1 || !strings.Contains(errOut, "unknown lattice") {
		t.Errorf("exit=%d stderr=%q", code, errOut)
	}
}

func TestMissingFile(t *testing.T) {
	code, _, errOut := run("check", "/no/such/file.tc")
	if code != 1 || errOut == "" {
		t.Errorf("exit=%d stderr=%q", code, errOut)
	}
	code, _, _ = run("check")
	if code != 1 {
		t.Errorf("exit=%d for missing operand", code)
	}
}

func TestTrace(t *testing.T) {
	code, out, errOut := run("trace", "-set", "h=20", testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{"mitigate@0", "sleep", "assign done",
		"mitigate@0 completed", "total: 3 steps"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// Step budget exhaustion is an error.
	code, _, errOut = run("trace", "-max-steps", "1", testdataPath(t, "mitigated.tc"))
	if code != 1 || !strings.Contains(errOut, "step budget") {
		t.Errorf("exit=%d stderr=%q", code, errOut)
	}
}

func TestExplain(t *testing.T) {
	code, out, errOut := run("explain", "-lattice", "three", testdataPath(t, "threelevel.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{"timing start → end", "L → M", "L → H", "mitigate@0", "mitigate@1"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// Mitigates cut the timing label: their own rows end at L.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "mitigate@") && !strings.Contains(line, "L → L") {
			t.Errorf("mitigate row should end low: %s", line)
		}
	}
	code, _, _ = run("explain", testdataPath(t, "insecure.tc"))
	if code != 1 {
		t.Error("explain should fail on ill-typed programs")
	}
}

func TestTraceFlushHardware(t *testing.T) {
	code, out, _ := run("trace", "-hw", "flush", testdataPath(t, "mitigated.tc"))
	if code != 0 || !strings.Contains(out, "total:") {
		t.Errorf("flush trace: exit=%d\n%s", code, out)
	}
}

func TestRunWithOptimizer(t *testing.T) {
	src := "var x : L;\nif (3 > 2) { x := 4 * 4; } else { x := 0; }\n"
	tmp := filepath.Join(t.TempDir(), "opt.tc")
	if err := os.WriteFile(tmp, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := run("run", "-opt", tmp)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "optimizer: 2 expressions folded, 1 branches eliminated") {
		t.Errorf("optimizer summary missing:\n%s", out)
	}
	if !strings.Contains(out, "(x, 16,") {
		t.Errorf("result missing:\n%s", out)
	}
	if !strings.Contains(out, "terminated in 1 steps") {
		t.Errorf("dead branch should be gone:\n%s", out)
	}
}

func TestCompileDisassembles(t *testing.T) {
	code, out, errOut := run("compile", testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{"SETLBL", "MITENTER", "MITEXIT", "HALT"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestCompileExec(t *testing.T) {
	code, out, errOut := run("compile", "-exec", "-set", "h=9", testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "VM:") || !strings.Contains(out, "(done, 1,") {
		t.Errorf("VM output missing:\n%s", out)
	}
	// VM mitigated timing is also secret-independent.
	_, out2, _ := run("compile", "-exec", "-set", "h=55", testdataPath(t, "mitigated.tc"))
	if out != out2 {
		t.Error("mitigated VM output should be secret-independent")
	}
	// Bad inputs.
	if code, _, _ := run("compile", "-exec", "-set", "nope=1", testdataPath(t, "mitigated.tc")); code != 1 {
		t.Error("bad -set should fail")
	}
}

func TestLeakSubcommand(t *testing.T) {
	code, out, errOut := run("leak", "-secret", "h=0:100:10", testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{"secrets tried:", "distinct observations:", "Theorem 2 holds"} {
		if !strings.Contains(out, want) {
			t.Errorf("leak output missing %q:\n%s", want, out)
		}
	}
	// Unmitigated measurement leaks more.
	_, outU, _ := run("leak", "-mitigate=false", "-secret", "h=0:100:10", testdataPath(t, "mitigated.tc"))
	if outU == out {
		t.Error("mitigated and unmitigated measurements should differ")
	}
	// Error paths.
	if code, _, _ := run("leak", testdataPath(t, "mitigated.tc")); code != 1 {
		t.Error("missing -secret should fail")
	}
	if code, _, _ := run("leak", "-secret", "zzz=0:1:1", testdataPath(t, "mitigated.tc")); code != 1 {
		t.Error("unknown secret variable should fail")
	}
	if code, _, _ := run("leak", "-secret", "h=0:1", testdataPath(t, "mitigated.tc")); code == 0 {
		t.Error("malformed range should fail flag parsing")
	}
	if code, _, _ := run("leak", "-secret", "h=5:1:1", testdataPath(t, "mitigated.tc")); code == 0 {
		t.Error("inverted range should fail")
	}
	if code, _, _ := run("leak", "-max-combos", "3", "-secret", "h=0:100:10",
		testdataPath(t, "mitigated.tc")); code != 1 {
		t.Error("combo cap should fail")
	}
	// Public variable warning.
	_, _, warnErr := run("leak", "-secret", "done=0:2:1", testdataPath(t, "mitigated.tc"))
	if !strings.Contains(warnErr, "warning") {
		t.Errorf("public-secret warning missing: %q", warnErr)
	}
}

func TestCompileToFileAndExec(t *testing.T) {
	out := filepath.Join(t.TempDir(), "prog.tcbc")
	code, stdout, errOut := run("compile", "-o", out, testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(stdout, "wrote "+out) {
		t.Errorf("write summary missing:\n%s", stdout)
	}
	code, stdout, errOut = run("exec", "-set", "h=9", out)
	if code != 0 {
		t.Fatalf("exec exit=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(stdout, "VM:") || !strings.Contains(stdout, "(done, 1,") {
		t.Errorf("exec output:\n%s", stdout)
	}
	// Wrong lattice is rejected.
	code, _, errOut = run("exec", "-lattice", "three", out)
	if code != 1 || !strings.Contains(errOut, "lattice") {
		t.Errorf("lattice mismatch: exit=%d stderr=%q", code, errOut)
	}
	// Missing / garbage files error out cleanly.
	if code, _, _ := run("exec", "/no/such.tcbc"); code != 1 {
		t.Error("missing file should fail")
	}
	garbage := filepath.Join(t.TempDir(), "junk.tcbc")
	os.WriteFile(garbage, []byte("not bytecode"), 0o644)
	if code, _, _ := run("exec", garbage); code != 1 {
		t.Error("garbage file should fail")
	}
}

func TestVerifyPartitioned(t *testing.T) {
	code, out, errOut := run("verify", "-trials", "4", testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q out=%s", code, errOut, out)
	}
	if !strings.Contains(out, "all contract checks passed") {
		t.Errorf("verify output:\n%s", out)
	}
	if strings.Count(out, "ok   ") != 9 {
		t.Errorf("expected 9 passing checks:\n%s", out)
	}
}

func TestVerifyNoparFails(t *testing.T) {
	code, out, errOut := run("verify", "-trials", "4", "-hw", "nopar", testdataPath(t, "mitigated.tc"))
	if code != 1 {
		t.Fatalf("nopar should fail the contract; exit=%d", code)
	}
	if !strings.Contains(out, "FAIL") || !strings.Contains(errOut, "contract checks failed") {
		t.Errorf("out=%s stderr=%q", out, errOut)
	}
}

func TestFmtRoundTripsThroughCheck(t *testing.T) {
	// fmt -resolved output must itself type-check.
	_, resolved, _ := run("fmt", "-resolved", testdataPath(t, "inferme.tc"))
	tmp := filepath.Join(t.TempDir(), "resolved.tc")
	if err := os.WriteFile(tmp, []byte(resolved), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := run("check", tmp)
	if code != 0 {
		t.Errorf("resolved output does not re-check: %s", errOut)
	}
}

func TestServeSubcommand(t *testing.T) {
	code, out, errOut := run("serve",
		"-workers", "2", "-queue", "1", "-requests", "8",
		"-vary", "h=0:70:10",
		testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "served 8 requests across 2 shards") {
		t.Errorf("missing summary line:\n%s", out)
	}
	if !strings.Contains(out, "shard 0:") || !strings.Contains(out, "shard 1:") {
		t.Errorf("missing per-shard lines:\n%s", out)
	}
	// The instrumentation snapshot must surface the acceptance metrics.
	for _, want := range []string{"mitigations", "mispredicted", "padding", "cache hit rates"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestServeEngineIdentity(t *testing.T) {
	// The engine must be invisible in every adversary-observable
	// output: a single-worker serve run (fully deterministic request
	// schedule) prints the same summaries and instrumentation snapshot
	// on the tree engine and on the vm engine. Only the engine name and
	// the step count differ, because the vm counts instructions.
	serve := func(engine string) []string {
		code, out, errOut := run("serve",
			"-workers", "1", "-requests", "8", "-engine", engine,
			"-vary", "h=0:70:10",
			testdataPath(t, "mitigated.tc"))
		if code != 0 {
			t.Fatalf("-engine %s: exit=%d stderr=%q", engine, code, errOut)
		}
		want := "served 8 requests across 1 shards on partitioned hardware (" + engine + " engine)"
		if !strings.Contains(out, want) {
			t.Errorf("-engine %s: missing summary line %q:\n%s", engine, want, out)
		}
		var lines []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "served ") && !strings.HasPrefix(line, "language steps:") {
				lines = append(lines, line)
			}
		}
		return lines
	}
	tree, vm := serve("tree"), serve("vm")
	if strings.Join(tree, "\n") != strings.Join(vm, "\n") {
		t.Errorf("serve output differs across engines:\n--- tree ---\n%s\n--- vm ---\n%s",
			strings.Join(tree, "\n"), strings.Join(vm, "\n"))
	}
}

func TestServePprof(t *testing.T) {
	// A serve run with -pprof announces the profiling endpoint on
	// stderr and still completes normally.
	code, out, errOut := run("serve",
		"-workers", "1", "-requests", "2", "-pprof", "127.0.0.1:0",
		testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(errOut, "/debug/pprof/") {
		t.Errorf("missing pprof announcement on stderr: %q", errOut)
	}
	if !strings.Contains(out, "served 2 requests") {
		t.Errorf("missing summary line:\n%s", out)
	}
}

func TestServePprofBadAddress(t *testing.T) {
	code, _, errOut := run("serve", "-pprof", "500.1.2.3:99999",
		testdataPath(t, "mitigated.tc"))
	if code != 1 || !strings.Contains(errOut, "-pprof") {
		t.Errorf("exit=%d stderr=%q", code, errOut)
	}
}

func TestServeBadVary(t *testing.T) {
	code, _, errOut := run("serve", "-vary", "nosuch=0:1:1", testdataPath(t, "mitigated.tc"))
	if code != 1 || !strings.Contains(errOut, "no such variable") {
		t.Errorf("exit=%d stderr=%q", code, errOut)
	}
}

func TestServeBadHardware(t *testing.T) {
	code, _, errOut := run("serve", "-hw", "bogus", testdataPath(t, "mitigated.tc"))
	if code != 1 || !strings.Contains(errOut, "unknown hardware") {
		t.Errorf("exit=%d stderr=%q", code, errOut)
	}
}

func TestServeRemovedFlagsRejected(t *testing.T) {
	// The pool no longer retries, ejects shards or injects faults, and
	// the stream window is a constant, so serve must refuse the flags
	// that configured them.
	for _, args := range [][]string{
		{"-retries", "3"}, {"-retry-backoff", "1ms"},
		{"-breaker-threshold", "3"}, {"-breaker-cooldown", "10ms"},
		{"-fault", "engine-error=0.5"}, {"-fault-seed", "7"},
		{"-stream-window", "8"},
	} {
		code, _, errOut := run(append(append([]string{"serve"}, args...), testdataPath(t, "mitigated.tc"))...)
		if code == 0 || !strings.Contains(errOut, "flag provided but not defined: "+args[0]) {
			t.Errorf("serve %s: exit=%d stderr=%q", args[0], code, errOut)
		}
	}
}

// serveListen drives a `serve -listen` run in-process: the hook fires
// once the listener is bound, probes it, and stops the server, which
// then drains and prints its final snapshot.
func serveListen(t *testing.T, hook func(addr string), extra ...string) (int, string, string) {
	t.Helper()
	serveListenHook = func(addr string, stop func()) {
		defer stop()
		hook(addr)
	}
	defer func() { serveListenHook = nil }()
	args := append([]string{"serve", "-listen", "127.0.0.1:0", "-workers", "2"}, extra...)
	args = append(args, testdataPath(t, "mitigated.tc"))
	return run(args...)
}

// httpGet fetches a URL and returns (status, body).
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestServeListen(t *testing.T) {
	// -listen alone: the API serves, pprof is NOT mounted.
	var runStatus, pprofStatus int
	var runBody string
	code, out, errOut := serveListen(t, func(addr string) {
		resp, err := http.Post("http://"+addr+"/v1/run", "application/json",
			strings.NewReader(`{"inputs":{"h":3}}`))
		if err != nil {
			t.Fatalf("POST /v1/run: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		runStatus, runBody = resp.StatusCode, string(body)
		pprofStatus, _ = httpGet(t, "http://"+addr+"/debug/pprof/")
	})
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	if runStatus != 200 || !strings.Contains(runBody, `"time"`) {
		t.Errorf("/v1/run: status=%d body=%q", runStatus, runBody)
	}
	if pprofStatus != 404 {
		t.Errorf("pprof reachable without -pprof: status=%d", pprofStatus)
	}
	if !strings.Contains(out, "listening on http://") {
		t.Errorf("missing listen announcement:\n%s", out)
	}
	if !strings.Contains(out, "draining") || !strings.Contains(out, "served 1 requests") {
		t.Errorf("missing drain summary:\n%s", out)
	}
}

func TestServeListenSharedPprof(t *testing.T) {
	// -pprof equal to -listen: profiles share the API listener.
	var pprofStatus, healthStatus int
	code, _, errOut := serveListen(t, func(addr string) {
		pprofStatus, _ = httpGet(t, "http://"+addr+"/debug/pprof/")
		healthStatus, _ = httpGet(t, "http://"+addr+"/v1/healthz")
	}, "-pprof", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	if pprofStatus != 200 {
		t.Errorf("shared pprof: status=%d, want 200", pprofStatus)
	}
	if healthStatus != 200 {
		t.Errorf("healthz on shared mux: status=%d", healthStatus)
	}
	if !strings.Contains(errOut, "/debug/pprof/") {
		t.Errorf("missing pprof announcement on stderr: %q", errOut)
	}
}

func TestServeListenSeparatePprof(t *testing.T) {
	// -pprof on a different address: a standalone pprof listener comes
	// up, and the API listener does NOT serve profiles.
	var apiPprofStatus, sepPprofStatus, runStatus int
	var errBuf *bytes.Buffer
	serveListenHook = func(addr string, stop func()) {
		defer stop()
		apiPprofStatus, _ = httpGet(t, "http://"+addr+"/debug/pprof/")
		st, _ := httpGet(t, "http://"+addr+"/v1/healthz")
		runStatus = st
		// The standalone listener announced itself on stderr before the
		// pool came up; pull its address from there.
		line := errBuf.String()
		i := strings.Index(line, "http://")
		j := strings.Index(line[i:], "/debug")
		if i < 0 || j < 0 {
			t.Fatalf("no pprof announcement in %q", line)
		}
		sepPprofStatus, _ = httpGet(t, line[i:i+j]+"/debug/pprof/")
	}
	defer func() { serveListenHook = nil }()
	var out bytes.Buffer
	errBuf = &bytes.Buffer{}
	code := Run([]string{"serve", "-listen", "127.0.0.1:0", "-pprof", "localhost:0",
		"-workers", "1", testdataPath(t, "mitigated.tc")}, &out, errBuf)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errBuf.String())
	}
	if apiPprofStatus != 404 {
		t.Errorf("API listener serves pprof with split addresses: status=%d", apiPprofStatus)
	}
	if sepPprofStatus != 200 {
		t.Errorf("standalone pprof: status=%d, want 200", sepPprofStatus)
	}
	if runStatus != 200 {
		t.Errorf("healthz: status=%d", runStatus)
	}
}

func TestServeListenBadAddress(t *testing.T) {
	code, _, errOut := run("serve", "-listen", "500.1.2.3:99999",
		testdataPath(t, "mitigated.tc"))
	if code != 1 || !strings.Contains(errOut, "-listen") {
		t.Errorf("exit=%d stderr=%q", code, errOut)
	}
}

func TestServeDeadlineAndShedFlagsAccepted(t *testing.T) {
	code, out, errOut := run("serve",
		"-workers", "2", "-requests", "8",
		"-timeout", "1s", "-shed", "-max-inflight", "4",
		"-vary", "h=0:70:10",
		testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "served 8 requests") {
		t.Errorf("missing summary line:\n%s", out)
	}
}

func TestServeSessionFlags(t *testing.T) {
	// -session-budget with -listen: tenant requests carry session
	// accounting, and the budget is enforced with 429s while the
	// service keeps serving other tenants.
	var firstBody, deniedBody, aliceBody, metricsBody string
	var deniedStatus, aliceStatus int
	code, out, errOut := serveListen(t, func(addr string) {
		post := func(body string) (int, string) {
			resp, err := http.Post("http://"+addr+"/v1/run", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST /v1/run: %v", err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(raw)
		}
		var st int
		st, firstBody = post(`{"tenant":"bob","inputs":{"h":63}}`)
		if st != 200 {
			t.Fatalf("first tenant request: status=%d body=%q", st, firstBody)
		}
		for i := 0; i < 50; i++ {
			deniedStatus, deniedBody = post(`{"tenant":"bob","inputs":{"h":63}}`)
			if deniedStatus != 200 {
				break
			}
		}
		aliceStatus, aliceBody = post(`{"tenant":"alice","inputs":{"h":1}}`)
		_, metricsBody = httpGet(t, "http://"+addr+"/v1/metrics")
	}, "-session-budget", "25", "-session-ttl", "1m", "-session-max", "100")
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(out, "tenant sessions: budget 25.0 bits per tenant, ttl 1m0s") {
		t.Errorf("missing session announcement:\n%s", out)
	}
	if !strings.Contains(firstBody, `"tenant":"bob"`) || !strings.Contains(firstBody, `"epoch":1`) {
		t.Errorf("first response missing session fields: %q", firstBody)
	}
	if deniedStatus != 429 || !strings.Contains(deniedBody, "leakage_budget_exceeded") {
		t.Errorf("budget denial: status=%d body=%q", deniedStatus, deniedBody)
	}
	if !strings.Contains(deniedBody, `"retry_after_ms":60000`) {
		t.Errorf("denial missing Retry-After from TTL: %q", deniedBody)
	}
	if aliceStatus != 200 || !strings.Contains(aliceBody, `"tenant":"alice"`) {
		t.Errorf("other tenant must be admitted: status=%d body=%q", aliceStatus, aliceBody)
	}
	if !strings.Contains(metricsBody, "timingc_sessions_active") ||
		!strings.Contains(metricsBody, "timingc_budget_denials_total") {
		t.Errorf("metrics missing session series:\n%s", metricsBody)
	}
}

func TestServeSessionFlagsRequireListen(t *testing.T) {
	code, _, errOut := run("serve", "-session-budget", "10",
		testdataPath(t, "mitigated.tc"))
	if code != 1 || !strings.Contains(errOut, "require -listen") {
		t.Errorf("exit=%d stderr=%q", code, errOut)
	}
}

func TestCertifySubcommandFile(t *testing.T) {
	// File mode: the mitigated testdata program certifies, and the
	// unmitigated baseline is reported as leaking in the same run.
	code, out, errOut := run("certify", "-var", "h", "-n", "8", testdataPath(t, "mitigated.tc"))
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q stdout=%q", code, errOut, out)
	}
	for _, want := range []string{
		"unmitigated", "LEAKS",
		"mitigated", "CERTIFIED",
		"exhaustive", "binary-search", "mi-estimator", "prime-probe", "branch-pair",
		"reported §7 bound",
		// The workload is named after the source file, extension dropped.
		"mitigated (" + strings.TrimSuffix(testdataPath(t, "mitigated.tc"), ".tc") + ", tree engine",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("certify output missing %q:\n%s", want, out)
		}
	}

	// Determinism: equal seeds replay the exact report.
	_, again, _ := run("certify", "-var", "h", "-n", "8", testdataPath(t, "mitigated.tc"))
	if again != out {
		t.Error("equal seeds must produce identical reports")
	}

	// Error paths: missing -var, bad -n, unknown variable, bad engine.
	if code, _, _ := run("certify", testdataPath(t, "mitigated.tc")); code != 1 {
		t.Error("missing -var should fail")
	}
	if code, _, _ := run("certify", "-var", "h", "-n", "1", testdataPath(t, "mitigated.tc")); code != 1 {
		t.Error("n < 2 should fail")
	}
	if code, _, _ := run("certify", "-var", "zzz", testdataPath(t, "mitigated.tc")); code != 1 {
		t.Error("unknown secret variable should fail")
	}
	if code, _, _ := run("certify", "-var", "h", "-engine", "warp", testdataPath(t, "mitigated.tc")); code != 1 {
		t.Error("unknown engine should fail")
	}
}

func TestCertifySubcommandSweep(t *testing.T) {
	code, out, errOut := run("certify")
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{
		"configuration", "verdict",
		"bind=engine", "bind=pool", "bind=http",
		"certification passed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}
