package harness

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// daemonCPUEnv names the CPU Isolate set aside for the daemon, for the
// process Isolate re-executes.
const daemonCPUEnv = "ARTEMIS_BENCH_DAEMON_CPU"

// cpuSet is a sched_setaffinity(2) mask: room for 1024 CPUs.
type cpuSet [16]uint64

func (m cpuSet) list() []int {
	var out []int
	for i, word := range m {
		for b := 0; b < 64; b++ {
			if word&(1<<b) != 0 {
				out = append(out, i*64+b)
			}
		}
	}
	return out
}

func cpuSetOf(cpus ...int) cpuSet {
	var m cpuSet
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// threadAffinity returns the CPUs the calling thread may run on.
func threadAffinity() (cpuSet, error) {
	var m cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// setThreadAffinity confines the calling thread, and every thread or
// process it creates afterwards, to m.
func setThreadAffinity(m cpuSet) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// Isolate separates the load generator from the daemon it measures: the
// first CPU this process may use is set aside for the daemon, and the
// process re-executes itself confined to the others — as if it had been
// started under taskset — so that every thread of the Go runtime, old and
// new, stays off the daemon's CPU. On the few shared cores a benchmark
// gets, a daemon and a generator that float over the same CPUs measure the
// scheduler: which threads happened to share a core decided the daemon's
// CPU per event and its latency by a third from one run to the next. One
// CPU for the daemon alone makes it repeat within a few per cent.
//
// Call it first thing in main. With a single CPU there is nothing to
// separate and it returns nil; it also returns nil in the re-executed
// process. On success it does not return.
func Isolate() error {
	if os.Getenv(daemonCPUEnv) != "" {
		return nil
	}
	runtime.LockOSThread() // the mask set below is this thread's; exec keeps it
	defer runtime.UnlockOSThread()
	own, err := threadAffinity()
	if err != nil {
		return err
	}
	cpus := own.list()
	if len(cpus) < 2 {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := setThreadAffinity(cpuSetOf(cpus[1:]...)); err != nil {
		return err
	}
	err = syscall.Exec(exe, os.Args, append(os.Environ(), daemonCPUEnv+"="+strconv.Itoa(cpus[0])))
	_ = setThreadAffinity(own) // exec failed: carry on unseparated, as before the call
	return fmt.Errorf("re-exec %s: %w", exe, err)
}

// DaemonCPU returns the CPU Isolate set aside, if it did.
func DaemonCPU() (int, bool) {
	cpu, err := strconv.Atoi(os.Getenv(daemonCPUEnv))
	return cpu, err == nil && cpu >= 0 && cpu < len(cpuSet{})*64
}

// start starts cmd — on the daemon's CPU alone when Isolate set one aside:
// a child inherits the affinity of the thread that forks it.
func start(cmd *exec.Cmd) error {
	cpu, ok := DaemonCPU()
	if !ok {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	own, err := threadAffinity()
	if err != nil {
		return err
	}
	if err := setThreadAffinity(cpuSetOf(cpu)); err != nil {
		return err
	}
	err = cmd.Start()
	if rerr := setThreadAffinity(own); rerr != nil && err == nil {
		// This thread would stay on the daemon's CPU: no measurement.
		_ = cmd.Process.Kill()
		_ = cmd.Wait() // reaped; the kill is why it ended
		err = rerr
	}
	return err
}
