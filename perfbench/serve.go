package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running `timingc serve -listen` process.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped
	err  error         // the Wait result, set before done closes
}

// serveArgs are the only flags the benchmark passes to serve: the
// listener, the worker count, the engine, the hardware model and, for
// tenant workloads, the session cap.
func serveArgs(w *workload, root string) []string {
	args := []string{"serve", "-listen", "127.0.0.1:0", "-workers", strconv.Itoa(workers),
		"-engine", "vm", "-hw", hwModel}
	if w.sessionMax > 0 {
		args = append(args, "-session-max", strconv.Itoa(w.sessionMax))
	}
	return append(args, root+"/"+w.program)
}

// startServer spawns serve on the CPUs cpus (nil: wherever the benchmark
// may run) and waits until it announces its address.
func startServer(bin string, args []string, cpus *cpuSet) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// Should the benchmark itself be killed, the server goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := withAffinity(cpus, cmd.Start); err != nil {
		return nil, fmt.Errorf("start serve: %w", err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "listening on http://"); ok {
			p.addr = rest
			break
		}
	}
	// The rest of stdout is the shutdown transcript; drain it so the
	// server never blocks on a full pipe, then reap the process.
	go func() {
		_, _ = io.Copy(io.Discard, out)
		p.err = cmd.Wait()
		close(p.done)
	}()
	if p.addr == "" {
		p.kill()
		return nil, fmt.Errorf("serve never announced its address")
	}
	return p, nil
}

// stop interrupts the server (a graceful drain) and waits for it to
// exit, killing it if the drain takes too long. Calling stop or kill
// again after the process exited is a no-op.
func (p *serverProc) stop() error {
	_ = p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.done:
		// serve installs its SIGINT handler just after announcing its
		// address, so a server stopped right after its first response
		// can still take the signal's default action: an early stop,
		// not a failure.
		var ee *exec.ExitError
		if errors.As(p.err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGINT {
				return nil
			}
		}
		return p.err
	case <-time.After(20 * time.Second):
		p.kill()
		return fmt.Errorf("serve did not exit within 20s of SIGINT")
	}
}

// kill ends the server at once and waits until it has exited.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // fails only when the process already exited
	<-p.done
}

// clockTick is the unit of the utime and stime fields of /proc/<pid>/stat
// (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// cpuTime returns the process's user+system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after the last
	// ')' start with field 3, so utime and stime are at indices 11, 12.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns the process's resident-set high-water mark (VmHWM) in
// MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
