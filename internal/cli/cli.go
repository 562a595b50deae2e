// Package cli implements the timingc command: the compiler driver and
// interpreter for the timing-channel language. It type-checks programs
// (inferring omitted timing labels), pretty-prints them with resolved
// labels, runs them on a choice of simulated hardware, and verifies
// hardware models against the paper's software–hardware contract.
//
// The entry point is Run, which takes argv-style arguments and output
// writers so the whole command surface is testable in-process;
// cmd/timingc is a thin wrapper.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	httppprof "net/http/pprof" // profiling handlers for serve -pprof (also registers on DefaultServeMux)
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bytecode"
	"repro/internal/certify"
	"repro/internal/exec"
	"repro/internal/lang/ast"
	"repro/internal/lang/diag"
	"repro/internal/lang/parser"
	"repro/internal/lang/printer"
	"repro/internal/lattice"
	"repro/internal/leakage"
	"repro/internal/machine/hw"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/props"
	"repro/internal/sem/full"
	"repro/internal/sem/mem"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/types"
)

// Run executes the timingc command line and returns a process exit
// code: 0 on success, 1 on command failure, 2 on usage errors.
func Run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "check":
		err = runCheck(rest, stdout, stderr)
	case "fmt":
		err = runFmt(rest, stdout, stderr)
	case "run":
		err = runRun(rest, stdout, stderr)
	case "trace":
		err = runTrace(rest, stdout, stderr)
	case "explain":
		err = runExplain(rest, stdout, stderr)
	case "compile":
		err = runCompile(rest, stdout, stderr)
	case "exec":
		err = runExec(rest, stdout, stderr)
	case "leak":
		err = runLeak(rest, stdout, stderr)
	case "serve":
		err = runServe(rest, stdout, stderr)
	case "verify":
		err = runVerify(rest, stdout, stderr)
	case "certify":
		err = runCertify(rest, stdout, stderr)
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "timingc: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		if err == flag.ErrHelp {
			return 2
		}
		fmt.Fprintf(stderr, "timingc: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: timingc <command> [flags] file

commands:
  check    type-check a program, reporting inferred timing labels
  fmt      pretty-print a program
  run      execute a program on simulated hardware
  trace    execute step by step, printing each command's cost
  explain  show the typing judgment (pc, timing start/end) per command
  compile  compile to bytecode (disassemble, -exec to run, -o to save)
  exec     run a saved bytecode file on the VM
  leak     measure leakage over secret ranges (Theorem 2 / §7 bound)
  serve    run a program as a sharded mitigation service over a request sequence
           (-listen ADDR serves the HTTP/JSON API instead, including NDJSON
           pipelining on /v1/stream; -pprof ADDR exposes net/http/pprof,
           sharing -listen's listener when the addresses match)
  verify   check a hardware model against the software-hardware contract
  certify  mount the five-adversary attack battery and check measured leakage
           against the reported §7 bound (no file: run the built-in sweep;
           with a file: certify that program, -var naming the secret)
`)
}

func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func latticeFlag(fs *flag.FlagSet) *string {
	return fs.String("lattice", "two", "security lattice: two, three, diamond")
}

// PickLattice resolves a lattice by its CLI name.
func PickLattice(name string) (lattice.Lattice, error) {
	switch name {
	case "two":
		return lattice.TwoPoint(), nil
	case "three":
		return lattice.ThreePoint(), nil
	case "diamond":
		return lattice.Diamond(), nil
	}
	return nil, fmt.Errorf("unknown lattice %q (want two, three, or diamond)", name)
}

// PickEnv resolves a hardware model by its CLI name through the hw
// registry; the empty name means partitioned (the paper's design).
func PickEnv(name string, lat lattice.Lattice) (hw.Env, error) {
	return hw.NewEnv(name, lat, hw.Table1Config())
}

func load(fs *flag.FlagSet, latName string) (*ast.Program, *types.Result, lattice.Lattice, error) {
	if fs.NArg() != 1 {
		return nil, nil, nil, fmt.Errorf("expected exactly one source file")
	}
	file := fs.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, nil, nil, err
	}
	lat, err := PickLattice(latName)
	if err != nil {
		return nil, nil, nil, err
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		return nil, nil, nil, &diagError{diag.Format(file, string(src), err)}
	}
	res, err := types.Check(prog, lat)
	if err != nil {
		return nil, nil, nil, &diagError{diag.Format(file, string(src), err)}
	}
	return prog, res, lat, nil
}

// diagError carries pre-rendered multi-line diagnostics.
type diagError struct{ rendered string }

func (e *diagError) Error() string { return strings.TrimSuffix(e.rendered, "\n") }

func runCheck(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("check", stderr)
	latName := latticeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, res, _, err := load(fs, *latName)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: OK (end timing label %s)\n", fs.Arg(0), res.End)
	for _, m := range res.Mitigates {
		if m.Level.Valid() {
			fmt.Fprintf(stdout, "  mitigate@%d at %s: pc=%s, level=%s\n", m.ID, m.Pos, m.PC, m.Level)
		}
	}
	fmt.Fprint(stdout, printer.Print(prog, printer.Options{ShowResolved: true}))
	return nil
}

func runFmt(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("fmt", stderr)
	latName := latticeFlag(fs)
	resolved := fs.Bool("resolved", false, "print inferred labels")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resolved {
		prog, _, _, err := load(fs, *latName)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, printer.Print(prog, printer.Options{ShowResolved: true}))
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, printer.Print(prog, printer.Options{}))
	return nil
}

// setFlags collects repeated -set x=v flags.
type setFlags map[string]int64

func (s setFlags) String() string { return fmt.Sprintf("%v", map[string]int64(s)) }

// Set implements flag.Value.
func (s setFlags) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want -set name=value, got %q", v)
	}
	n, err := strconv.ParseInt(val, 0, 64)
	if err != nil {
		return err
	}
	s[name] = n
	return nil
}

func runRun(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("run", stderr)
	latName := latticeFlag(fs)
	hwName := fs.String("hw", "partitioned", "hardware model: flat, nopar, nofill, partitioned")
	mitigate := fs.Bool("mitigate", true, "enable predictive mitigation")
	optimize := fs.Bool("opt", false, "apply timing-aware optimizations before running")
	maxSteps := fs.Int("max-steps", 10_000_000, "step budget")
	sets := setFlags{}
	fs.Var(sets, "set", "set an input variable, e.g. -set h=42 (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, res, lat, err := load(fs, *latName)
	if err != nil {
		return err
	}
	if *optimize {
		folds, branches := opt.Program(prog)
		fmt.Fprintf(stdout, "optimizer: %d expressions folded, %d branches eliminated\n",
			folds, branches)
	}
	env, err := PickEnv(*hwName, lat)
	if err != nil {
		return err
	}
	m, err := full.New(prog, res, env, full.Options{DisableMitigation: !*mitigate})
	if err != nil {
		return err
	}
	for name, v := range sets {
		if !m.Memory().HasScalar(name) {
			return fmt.Errorf("-set %s: no such scalar variable", name)
		}
		m.Memory().Set(name, v)
	}
	if err := m.Run(*maxSteps); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "terminated in %d steps, %d cycles on %s hardware\n",
		m.Steps(), m.Clock(), env.Name())
	if tr := m.Trace(); len(tr) > 0 {
		fmt.Fprintln(stdout, "events:")
		for _, e := range tr {
			fmt.Fprintf(stdout, "  %s\n", e)
		}
	}
	if mt := m.Mitigations(); len(mt) > 0 {
		fmt.Fprintln(stdout, "mitigations:")
		for _, r := range mt {
			miss := ""
			if r.Mispredicted {
				miss = " (mispredicted)"
			}
			fmt.Fprintf(stdout, "  mitigate@%d: %d cycles (body %d)%s\n", r.ID, r.Duration, r.Elapsed, miss)
		}
	}
	return nil
}

func runCompile(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("compile", stderr)
	latName := latticeFlag(fs)
	exec := fs.Bool("exec", false, "execute the bytecode on the VM after compiling")
	outFile := fs.String("o", "", "write encoded bytecode to this file instead of disassembling")
	hwName := fs.String("hw", "partitioned", "hardware model for -exec")
	sets := setFlags{}
	fs.Var(sets, "set", "set an input variable for -exec (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, res, lat, err := load(fs, *latName)
	if err != nil {
		return err
	}
	bc, err := bytecode.Compile(prog, res)
	if err != nil {
		return err
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		if err := bc.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d instructions)\n", *outFile, len(bc.Code))
	} else {
		fmt.Fprint(stdout, bc.Disassemble())
	}
	if !*exec {
		return nil
	}
	env, err := PickEnv(*hwName, lat)
	if err != nil {
		return err
	}
	vm := bytecode.NewVM(bc, env, bytecode.VMOptions{})
	for name, v := range sets {
		if err := vm.SetScalar(name, v); err != nil {
			return err
		}
	}
	if err := vm.Run(50_000_000); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "VM: %d instructions, %d cycles on %s hardware\n",
		vm.Steps(), vm.Clock(), env.Name())
	for _, e := range vm.Trace() {
		fmt.Fprintf(stdout, "  %s\n", e)
	}
	return nil
}

func runExec(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("exec", stderr)
	latName := latticeFlag(fs)
	hwName := fs.String("hw", "partitioned", "hardware model")
	sets := setFlags{}
	fs.Var(sets, "set", "set an input variable (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one bytecode file")
	}
	lat, err := PickLattice(*latName)
	if err != nil {
		return err
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	bc, err := bytecode.Decode(f, lat)
	if err != nil {
		return err
	}
	env, err := PickEnv(*hwName, lat)
	if err != nil {
		return err
	}
	vm := bytecode.NewVM(bc, env, bytecode.VMOptions{})
	for name, v := range sets {
		if err := vm.SetScalar(name, v); err != nil {
			return err
		}
	}
	if err := vm.Run(50_000_000); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "VM: %d instructions, %d cycles on %s hardware\n",
		vm.Steps(), vm.Clock(), env.Name())
	for _, e := range vm.Trace() {
		fmt.Fprintf(stdout, "  %s\n", e)
	}
	return nil
}

func runExplain(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("explain", stderr)
	latName := latticeFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one source file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	lat, err := PickLattice(*latName)
	if err != nil {
		return err
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		return err
	}
	_, typings, err := types.CheckDetailed(prog, lat, types.Options{CoupleReadWrite: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-8s %-14s %-4s %-8s %s\n", "pos", "command", "pc", "[er,ew]", "timing start → end")
	ast.WalkCmds(prog.Body, func(c ast.Cmd) bool {
		lc, ok := c.(ast.Labeled)
		if !ok {
			return true // Seq carries no judgment of its own
		}
		ty, ok := typings[c.ID()]
		if !ok {
			return true
		}
		lab := lc.Labels()
		fmt.Fprintf(stdout, "%-8s %-14s %-4s [%s,%s]%*s %s → %s\n",
			c.Pos().String(), cmdKind(c), ty.PC.String(), lab.RL, lab.WL,
			5-len(lab.RL.String())-len(lab.WL.String()), "",
			ty.Start, ty.End)
		return true
	})
	return nil
}

// cmdKind names a command node for the trace listing.
func cmdKind(c ast.Cmd) string {
	switch c := c.(type) {
	case *ast.Skip:
		return "skip"
	case *ast.Assign:
		return "assign " + c.Name
	case *ast.Store:
		return "store " + c.Name
	case *ast.If:
		return "if"
	case *ast.While:
		return "while"
	case *ast.Sleep:
		return "sleep"
	case *ast.Mitigate:
		return fmt.Sprintf("mitigate@%d", c.MitID)
	}
	return fmt.Sprintf("%T", c)
}

func runTrace(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("trace", stderr)
	latName := latticeFlag(fs)
	hwName := fs.String("hw", "partitioned", "hardware model")
	mitigate := fs.Bool("mitigate", true, "enable predictive mitigation")
	maxSteps := fs.Int("max-steps", 100_000, "step budget")
	sets := setFlags{}
	fs.Var(sets, "set", "set an input variable (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, res, lat, err := load(fs, *latName)
	if err != nil {
		return err
	}
	env, err := PickEnv(*hwName, lat)
	if err != nil {
		return err
	}
	m, err := full.New(prog, res, env, full.Options{DisableMitigation: !*mitigate})
	if err != nil {
		return err
	}
	for name, v := range sets {
		if !m.Memory().HasScalar(name) {
			return fmt.Errorf("-set %s: no such scalar variable", name)
		}
		m.Memory().Set(name, v)
	}
	fmt.Fprintf(stdout, "%5s %8s %8s %-8s %-6s %s\n", "step", "clock", "cost", "pos", "labels", "command")
	mitsSeen := 0
	for step := 0; step < *maxSteps; step++ {
		head := m.Peek()
		if head == nil {
			break
		}
		// Completed mitigations resolved by Peek (padding applied).
		for ; mitsSeen < len(m.Mitigations()); mitsSeen++ {
			r := m.Mitigations()[mitsSeen]
			fmt.Fprintf(stdout, "%5s %8d %8s %-8s %-6s mitigate@%d completed: %d cycles (body %d)\n",
				"", m.Clock(), "", "", "", r.ID, r.Duration, r.Elapsed)
		}
		lab := head.(ast.Labeled).Labels()
		before := m.Clock()
		m.Step()
		fmt.Fprintf(stdout, "%5d %8d %8d %-8s [%s,%s] %s\n",
			m.Steps(), m.Clock(), m.Clock()-before, head.Pos().String(), lab.RL, lab.WL, cmdKind(head))
	}
	if m.Peek() != nil {
		return fmt.Errorf("step budget exhausted")
	}
	for ; mitsSeen < len(m.Mitigations()); mitsSeen++ {
		r := m.Mitigations()[mitsSeen]
		fmt.Fprintf(stdout, "%5s %8d %8s %-8s %-6s mitigate@%d completed: %d cycles (body %d)\n",
			"", m.Clock(), "", "", "", r.ID, r.Duration, r.Elapsed)
	}
	fmt.Fprintf(stdout, "total: %d steps, %d cycles\n", m.Steps(), m.Clock())
	return nil
}

func runServe(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("serve", stderr)
	latName := latticeFlag(fs)
	hwName := fs.String("hw", "partitioned",
		fmt.Sprintf("hardware model: one of %v", hw.EnvNames()))
	workers := fs.Int("workers", 4, "number of pool shards")
	queue := fs.Int("queue", 2, "per-shard submission queue depth")
	requests := fs.Int("requests", 32, "number of requests to serve")
	mitigate := fs.Bool("mitigate", true, "enable predictive mitigation")
	maxSteps := fs.Int("max-steps", 10_000_000, "per-request step budget")
	engine := fs.String("engine", "tree",
		fmt.Sprintf("execution engine: one of %v", exec.EngineNames()))
	listen := fs.String("listen", "",
		"serve the HTTP/JSON API on this address (e.g. 127.0.0.1:8080) until interrupted, instead of driving -requests locally")
	maxInflight := fs.Int("max-inflight", 0,
		"with -listen, shed (503) beyond this many concurrent requests (0 = unbounded)")
	sessionBudget := fs.Float64("session-budget", 0,
		"with -listen, per-tenant leakage budget in bits before requests are refused with 429 (0 = unlimited)")
	sessionTTL := fs.Duration("session-ttl", 0,
		"with -listen, idle lifetime of a tenant session before its leakage account resets (0 = never)")
	sessionMax := fs.Int("session-max", 0,
		"with -listen, live tenant sessions kept before LRU eviction (0 = default 65536)")
	pprofAddr := fs.String("pprof", "",
		"serve net/http/pprof on this address (e.g. localhost:6060) while requests run; with -listen and an equal address the profiles share the API listener")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = none)")
	shed := fs.Bool("shed", false,
		"fail fast (overloaded) instead of blocking when a shard queue is full")
	var vary rangeFlags
	fs.Var(&vary, "vary", "vary a variable across requests, e.g. -vary h=0:63:1 (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" && *pprofAddr != *listen {
		// A standalone pprof listener: the historical behavior when only
		// -pprof is given, and the split-address form alongside -listen.
		// (When the two addresses are equal the profiles are mounted on
		// the API listener instead — one port to firewall.)
		// Listen synchronously so address errors surface immediately;
		// the HTTP server then runs for the lifetime of the serve
		// command (use a large -requests to hold it open while
		// capturing a profile).
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer ln.Close()
		hs := &http.Server{Handler: http.DefaultServeMux}
		go hs.Serve(ln)
		defer hs.Close()
		fmt.Fprintf(stderr, "pprof: serving profiles on http://%s/debug/pprof/\n", ln.Addr())
	}
	prog, res, lat, err := load(fs, *latName)
	if err != nil {
		return err
	}
	for _, s := range vary {
		if _, ok := res.VarLabel(s.name); !ok {
			return fmt.Errorf("-vary %s: no such variable", s.name)
		}
	}
	env, err := PickEnv(*hwName, lat)
	if err != nil {
		return err
	}
	// Tenant sessions are a transport-layer feature: any -session-* flag
	// enables the manager, which only the HTTP path consults.
	sessionsOn := false
	fs.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "session-") {
			sessionsOn = true
		}
	})
	if sessionsOn && *listen == "" {
		return fmt.Errorf("serve: -session-budget/-session-ttl/-session-max require -listen")
	}
	// One metrics accumulator shared by the pool and the session
	// manager, so /v1/metrics reports both.
	met := obs.NewMetrics()
	var sessions *session.Manager
	if sessionsOn {
		sessions, err = session.NewManager(session.Options{
			Lat:         lat,
			BudgetBits:  *sessionBudget,
			TTL:         *sessionTTL,
			MaxSessions: *sessionMax,
			Metrics:     met,
		})
		if err != nil {
			return err
		}
	}
	pool, err := server.NewPool(prog, res, server.PoolOptions{
		Workers:          *workers,
		QueueDepth:       *queue,
		ShedOnSaturation: *shed,
		Options: server.Options{
			Env:               env,
			Engine:            *engine,
			DisableMitigation: !*mitigate,
			Limits:            exec.Limits{MaxSteps: *maxSteps, Timeout: *timeout},
			Metrics:           met,
		},
	})
	if err != nil {
		return err
	}
	if *listen != "" {
		return serveHTTP(pool, prog, sessions, *listen, *pprofAddr == *listen, *maxInflight, stdout, stderr)
	}
	reqs := make([]server.Request, *requests)
	for i := range reqs {
		i := i
		reqs[i] = func(m *mem.Memory) {
			for _, s := range vary {
				vals := s.values()
				m.Set(s.name, vals[i%len(vals)])
			}
		}
	}
	// Drive the requests one at a time. Deadlines and shedding fail
	// single requests, not the run, so those typed failures are tallied.
	var resps []*server.Response
	failed := 0
	for _, req := range reqs {
		resp, err := pool.Handle(context.Background(), req)
		if err != nil {
			if errors.Is(err, server.ErrOverloaded) || errors.Is(err, context.DeadlineExceeded) ||
				errors.Is(err, server.ErrBudgetExceeded) {
				failed++
				continue
			}
			pool.Close()
			return err
		}
		resps = append(resps, resp)
	}
	pool.Close()
	distinct := map[uint64]bool{}
	byShard := make([][]*server.Response, pool.Workers())
	for _, r := range resps {
		distinct[r.Time] = true
		byShard[r.Shard] = append(byShard[r.Shard], r)
	}
	fmt.Fprintf(stdout, "served %d requests across %d shards on %s hardware (%s engine)\n",
		pool.Served(), pool.Workers(), env.Name(), *engine)
	if failed > 0 {
		fmt.Fprintf(stdout, "failed requests: %d of %d\n", failed, len(reqs))
	}
	fmt.Fprintf(stdout, "distinct response times: %d\n", len(distinct))
	for shard, rs := range byShard {
		fmt.Fprintf(stdout, "shard %d: %d requests, settled after %d\n",
			shard, len(rs), server.SettledAfter(rs))
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, pool.Snapshot())
	return nil
}

// serveListenHook, when non-nil, is called with the bound address and a
// stop function once serveHTTP is accepting connections. Production
// leaves it nil (shutdown then comes from SIGINT/SIGTERM); CLI tests
// install it to drive a serve run in-process.
var serveListenHook func(addr string, stop func())

// serveHTTP runs the pool behind the HTTP/JSON transport until
// interrupted, then drains gracefully: stop admitting, finish in-flight
// requests, close the pool, print the final snapshot.
func serveHTTP(pool *server.Pool, prog *ast.Program, sessions *session.Manager, addr string, sharePprof bool, maxInflight int, stdout, stderr io.Writer) error {
	h, err := transport.New(transport.Options{
		Pool: pool, Prog: prog, MaxInFlight: maxInflight, Sessions: sessions,
	})
	if err != nil {
		pool.Close()
		return err
	}
	if sessions != nil {
		budget := "unlimited"
		if sessions.BudgetBits() > 0 {
			budget = fmt.Sprintf("%.1f bits", sessions.BudgetBits())
		}
		ttl := "never expires"
		if sessions.TTL() > 0 {
			ttl = fmt.Sprintf("ttl %v", sessions.TTL())
		}
		fmt.Fprintf(stdout, "tenant sessions: budget %s per tenant, %s\n", budget, ttl)
	}
	if sharePprof {
		mux := h.Mux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		pool.Close()
		return fmt.Errorf("-listen: %w", err)
	}
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())
	if sharePprof {
		fmt.Fprintf(stderr, "pprof: serving profiles on http://%s/debug/pprof/\n", ln.Addr())
	}
	hs := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if serveListenHook != nil {
		serveListenHook(ln.Addr().String(), stop)
	}
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		pool.Close()
		return err
	}
	fmt.Fprintln(stdout, "shutting down: draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	drainErr := h.Shutdown(sctx) // drains admissions, then closes the pool
	_ = hs.Shutdown(sctx)
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintf(stdout, "served %d requests across %d shards\n", pool.Served(), pool.Workers())
	fmt.Fprint(stdout, pool.Snapshot())
	return nil
}

func runVerify(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("verify", stderr)
	latName := latticeFlag(fs)
	hwName := fs.String("hw", "partitioned", "hardware model to verify")
	trials := fs.Int("trials", 20, "trials per property")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, res, lat, err := load(fs, *latName)
	if err != nil {
		return err
	}
	if _, err := PickEnv(*hwName, lat); err != nil {
		return err
	}
	factory := func() hw.Env {
		env, err := PickEnv(*hwName, lat)
		if err != nil {
			panic(err) // unreachable: validated above
		}
		return env
	}
	c := &props.Checker{
		Prog:   prog,
		Res:    res,
		NewEnv: factory,
		Rand:   rand.New(rand.NewSource(*seed)),
	}
	checks := []struct {
		name string
		run  func() error
	}{
		{"Property 1 (adequacy)", func() error { return c.CheckAdequacy(*trials) }},
		{"Property 2 (determinism)", func() error { return c.CheckDeterminism(*trials) }},
		{"Property 3 (sequential composition)", func() error { return c.CheckSequentialComposition(*trials) }},
		{"Property 4 (sleep accuracy)", func() error {
			return props.CheckSleepAccuracy(lat, factory, []int64{0, 1, 100, -5})
		}},
		{"Property 5 (write label)", func() error { return c.CheckWriteLabel(*trials) }},
		{"Property 6 (read label)", func() error { return c.CheckReadLabel(*trials * 4) }},
		{"Property 7 (single-step NI)", func() error { return c.CheckSingleStepNI(*trials * 4) }},
		{"Theorem 1 (noninterference)", func() error { return c.CheckNoninterference(*trials) }},
		{"Lemma 1 (low determinism)", func() error { return c.CheckLowDeterminism(*trials, lat.Bot()) }},
	}
	failed := 0
	for _, ch := range checks {
		if err := ch.run(); err != nil {
			fmt.Fprintf(stdout, "FAIL %-38s %v\n", ch.name, err)
			failed++
		} else {
			fmt.Fprintf(stdout, "ok   %-38s\n", ch.name)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d contract checks failed for %s hardware", failed, *hwName)
	}
	fmt.Fprintf(stdout, "all contract checks passed for %s hardware\n", *hwName)
	return nil
}

func runCertify(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("certify", stderr)
	latName := latticeFlag(fs)
	seed := fs.Int64("seed", 1, "adversary seed (equal seeds replay bit-for-bit)")
	fullSweep := fs.Bool("full", false, "without a file: run the full certification matrix instead of the quick slice")
	secretVar := fs.String("var", "", "with a file: the secret variable the adversary varies over 0..n-1")
	secretN := fs.Int("n", 16, "with a file: secret-space size")
	engine := fs.String("engine", "tree",
		fmt.Sprintf("with a file: execution engine, one of %v", exec.EngineNames()))
	hwName := fs.String("hw", "partitioned", "with a file: hardware model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()

	if fs.NArg() == 0 {
		// Sweep mode: the checked-in certification matrix.
		rows, err := certify.Sweep(ctx, certify.SweepOptions{Seed: *seed, Quick: !*fullSweep})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-58s %9s %9s %9s  %s\n", "configuration", "measured", "upper", "reported", "verdict")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-58s %9.3f %9.3f %9.3f  %s\n",
				r.Label(), r.Result.MeasuredBits, r.Result.UpperBits, r.Result.ReportedBits, r.Result.Verdict())
		}
		if err := certify.Check(rows); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "certification passed: %d rows, positive and cache controls leaked as expected\n", len(rows))
		return nil
	}

	// File mode: certify one program, mitigated and unmitigated.
	if *secretVar == "" {
		return fmt.Errorf("certify: -var is required with a source file (the secret the adversary varies)")
	}
	if *secretN < 2 {
		return fmt.Errorf("certify: -n must be at least 2 (got %d)", *secretN)
	}
	prog, res, lat, err := load(fs, *latName)
	if err != nil {
		return err
	}
	if lv, ok := res.VarLabel(*secretVar); !ok {
		return fmt.Errorf("certify: -var %s: no such variable", *secretVar)
	} else if lat.Leq(lv, lat.Bot()) {
		fmt.Fprintf(stderr, "warning: %s is public; its variation is not a secret\n", *secretVar)
	}
	w := &certify.Workload{
		Name: strings.TrimSuffix(fs.Arg(0), filepath.Ext(fs.Arg(0))),
		Prog: prog, Res: res, Lat: lat, N: *secretN,
		Set: func(i int, m *mem.Memory) { m.Set(*secretVar, int64(i)) },
	}
	var mitErr error
	for _, mitigated := range []bool{false, true} {
		tgt, err := certify.NewEngineTarget(w, certify.TargetConfig{
			Engine: *engine, Hardware: *hwName, Mitigated: mitigated,
		})
		if err != nil {
			return err
		}
		r, err := certify.Certify(ctx, tgt, *seed)
		if err != nil {
			return err
		}
		mode := "unmitigated"
		if mitigated {
			mode = "mitigated"
		}
		fmt.Fprintf(stdout, "%s (%s, %s engine, %s hardware): %s\n",
			mode, w.Name, *engine, *hwName, r.Verdict())
		for _, a := range r.Attacks {
			fmt.Fprintf(stdout, "  %-18s %6.3f bits (upper %.3f, %d probes)  %s\n",
				a.Adversary, a.Bits, a.Upper, a.Probes, a.Detail)
		}
		fmt.Fprintf(stdout, "  measured %.3f / upper %.3f of %.3f secret bits; reported §7 bound %.3f\n",
			r.MeasuredBits, r.UpperBits, r.SecretBits, r.ReportedBits)
		if mitigated && !r.Certified {
			mitErr = fmt.Errorf("certification failed: measured upper bound %.3f bits exceeds reported §7 bound %.3f",
				r.UpperBits, r.ReportedBits)
		}
	}
	return mitErr
}

// rangeFlags collects repeated -secret name=lo:hi:step flags.
type rangeFlags []secretRange

type secretRange struct {
	name         string
	lo, hi, step int64
}

func (r *rangeFlags) String() string { return fmt.Sprintf("%v", []secretRange(*r)) }

// Set implements flag.Value.
func (r *rangeFlags) Set(v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want -secret name=lo:hi:step, got %q", v)
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return fmt.Errorf("want -secret name=lo:hi:step, got %q", v)
	}
	var vals [3]int64
	for i, p := range parts {
		n, err := strconv.ParseInt(p, 0, 64)
		if err != nil {
			return err
		}
		vals[i] = n
	}
	if vals[2] <= 0 || vals[1] < vals[0] {
		return fmt.Errorf("range %q must have hi ≥ lo and step > 0", v)
	}
	*r = append(*r, secretRange{name, vals[0], vals[1], vals[2]})
	return nil
}

// values expands the range into its sample points.
func (s secretRange) values() []int64 {
	var out []int64
	for v := s.lo; v <= s.hi; v += s.step {
		out = append(out, v)
	}
	return out
}

func runLeak(args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("leak", stderr)
	latName := latticeFlag(fs)
	hwName := fs.String("hw", "partitioned", "hardware model")
	mitigate := fs.Bool("mitigate", true, "enable predictive mitigation")
	maxCombos := fs.Int("max-combos", 512, "cap on secret combinations")
	var secrets rangeFlags
	fs.Var(&secrets, "secret", "secret range, e.g. -secret h=0:100:5 (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(secrets) == 0 {
		return fmt.Errorf("at least one -secret range is required")
	}
	prog, res, lat, err := load(fs, *latName)
	if err != nil {
		return err
	}
	for _, s := range secrets {
		lv, ok := res.VarLabel(s.name)
		if !ok {
			return fmt.Errorf("-secret %s: no such variable", s.name)
		}
		if lat.Leq(lv, lat.Bot()) {
			fmt.Fprintf(stderr, "warning: %s is public; its variation is not a secret\n", s.name)
		}
	}
	// Cartesian product of the ranges, capped.
	combos := [][]int64{nil}
	for _, s := range secrets {
		var next [][]int64
		for _, c := range combos {
			for _, v := range s.values() {
				next = append(next, append(append([]int64(nil), c...), v))
				if len(next) > *maxCombos {
					return fmt.Errorf("secret space exceeds -max-combos=%d", *maxCombos)
				}
			}
		}
		combos = next
	}
	var lsecrets []leakage.Secret
	for _, combo := range combos {
		combo := combo
		lsecrets = append(lsecrets, func(m *mem.Memory) {
			for i, s := range secrets {
				m.Set(s.name, combo[i])
			}
		})
	}
	cfg := leakage.Config{
		Prog:      prog,
		Res:       res,
		Adversary: lat.Bot(),
		NewEnv: func() hw.Env {
			env, err := PickEnv(*hwName, lat)
			if err != nil {
				panic(err) // validated below before first use
			}
			return env
		},
		Opts: full.Options{DisableMitigation: !*mitigate},
	}
	if _, err := PickEnv(*hwName, lat); err != nil {
		return err
	}
	m, err := leakage.Measure(cfg, lsecrets)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "secrets tried:              %d\n", m.Trials)
	fmt.Fprintf(stdout, "distinct observations:      %d (%.2f bits)\n", m.DistinctObservations, m.QBits)
	fmt.Fprintf(stdout, "mitigate timing variations: %d (%.2f bits, Theorem 2 cap)\n",
		m.DistinctMitVariations, m.VBits)
	fmt.Fprintf(stdout, "analytic §7 bound:          %.2f bits (K=%d, T=%d)\n",
		leakage.BoundForMeasurement(m, lat.Size()-1), m.RelevantMitigates, m.MaxClock)
	if err := leakage.CheckTheorem2(m); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Theorem 2 holds: observations ≤ mitigate timing variations")
	return nil
}
