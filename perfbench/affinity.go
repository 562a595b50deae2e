package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. The generator and the server share a machine of a few
// CPUs. Left to the kernel, their threads move between the CPUs every
// few seconds, and where they land (side by side or apart) moved the
// server's CPU time per request by a third between otherwise identical
// rounds of one run. So the end-to-end run keeps the generator on the
// first CPU it may use and gives the server the others.

// cpuSet is a Linux CPU affinity mask of up to 1024 CPUs.
type cpuSet [16]uint64

func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }
func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) clear(cpu int)    { s[cpu/64] &^= 1 << (cpu % 64) }

// first returns the lowest CPU in s, or -1 when s is empty.
func (s *cpuSet) first() int {
	for cpu := 0; cpu < 64*len(s); cpu++ {
		if s.has(cpu) {
			return cpu
		}
	}
	return -1
}

// getAffinity returns the affinity of thread tid (0: the calling thread).
func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, e
	}
	return s, nil
}

// setAffinity sets the affinity of thread tid (0: the calling thread).
func setAffinity(tid int, s *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return e
	}
	return nil
}

// splitCPUs pins every thread of this process to the first CPU it may
// use and returns the rest, for the server. It returns nil, and pins
// nothing, when the process may use fewer than two CPUs.
func splitCPUs() (*cpuSet, error) {
	all, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	gen := all.first()
	rest := all
	rest.clear(gen)
	if rest.first() < 0 {
		return nil, nil
	}
	var mine cpuSet
	mine.set(gen)
	// A thread inherits the affinity of the thread that creates it, so
	// once every existing thread is pinned, so are all later ones. Go
	// may start a thread while the first pass runs; the loop ends after a
	// pass that found no thread left to pin.
	pinned := map[int]bool{}
	for more := true; more; {
		more = false
		tids, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return nil, err
		}
		for _, t := range tids {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || pinned[tid] {
				continue
			}
			// A thread that exited meanwhile needs no pinning.
			if err := setAffinity(tid, &mine); err != nil && err != syscall.ESRCH {
				return nil, err
			}
			pinned[tid] = true
			more = true
		}
	}
	return &rest, nil
}

// withAffinity runs f on a thread whose affinity is s, so a process f
// starts inherits s, and then restores the thread's affinity. A nil s
// runs f unchanged.
func withAffinity(s *cpuSet, f func() error) error {
	if s == nil {
		return f()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity(0)
	if err != nil {
		return err
	}
	if err := setAffinity(0, s); err != nil {
		return err
	}
	ferr := f()
	if err := setAffinity(0, &old); err != nil {
		return err
	}
	return ferr
}
