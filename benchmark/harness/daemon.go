// Package harness drives the system under test — the artemisd binary, as
// a child process — through what an operator has: feed sockets and files
// in; /v1/alerts/stream, /v1/alerts, /v1/health, /metrics and /v1/lookup
// out; and a stub REST controller the daemon's mitigation posts to. It
// imports none of the daemon's own packages, so a refactor of how the
// node is assembled can neither break nor bias the measurement.
//
// All traffic is host loopback or local files.
package harness

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// stopGrace is how long a daemon gets to drain after SIGTERM before it is
// killed; a wedged child fails the run instead of hanging it.
const stopGrace = 15 * time.Second

// Daemon is one artemisd child process.
type Daemon struct {
	cmd    *exec.Cmd
	stderr *os.File
	exited chan struct{}
	err    error
}

// startDaemon execs artemisd with the generated config, capturing its
// stderr (the node's log) to logPath.
func startDaemon(bin, config, logPath string) (*Daemon, error) {
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-config", config)
	cmd.Stdout = log
	cmd.Stderr = log
	if err := start(cmd); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &Daemon{cmd: cmd, stderr: log, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// Pid returns the child's process id.
func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// Exited reports whether the child has ended (it should not, mid-run).
func (d *Daemon) Exited() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

// Stop asks the daemon to drain (SIGTERM), kills it if it does not within
// stopGrace, and always reaps it.
func (d *Daemon) Stop() error {
	defer d.stderr.Close()
	if d.Exited() {
		return fmt.Errorf("artemisd exited on its own: %v", d.err)
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // a race with exit is reported by Wait below
	select {
	case <-d.exited:
		return nil
	case <-time.After(stopGrace):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("artemisd did not drain after SIGTERM; killed")
	}
}

// freePort reserves an ephemeral loopback port and releases it for the
// daemon to bind: artemisd takes its listen address from the config and
// does not report the port it got.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// cpuSeconds returns the child's CPU time so far, threads that have
// exited included, from the process's scheduler clock (the clock
// clock_getcpuclockid(3) names): nanoseconds the scheduler accounted, not
// the utime+stime of /proc/<pid>/stat. Those are sampled at the timer
// tick — the task that is running when the tick falls is charged all of
// it — and a daemon that wakes on the generator's millisecond schedule
// keeps one phase against a 4 ms tick for a whole run: the figure came
// out at 19 or at 26 us per event depending on where the run's first tick
// fell.
func (d *Daemon) cpuSeconds() (float64, error) {
	const schedClock = 2 // CPUCLOCK_SCHED
	var ts syscall.Timespec
	clock := uintptr(^d.Pid()<<3 | schedClock)
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", d.Pid(), e)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// statusField reads the number on one "Key:   N [kB]" line of a
// /proc status file.
func statusField(path, key string) (float64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0, false
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		return v, err == nil
	}
	return 0, false
}

// peakRSSMiB returns the child's resident-set high-water mark.
func (d *Daemon) peakRSSMiB() (float64, error) {
	kb, ok := statusField(fmt.Sprintf("/proc/%d/status", d.Pid()), "VmHWM")
	if !ok {
		return 0, fmt.Errorf("no VmHWM for pid %d", d.Pid())
	}
	return kb / 1024, nil
}

// contextSwitches sums voluntary and involuntary switches over the
// child's live threads.
func (d *Daemon) contextSwitches() float64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", d.Pid()))
	var total float64
	for _, t := range tasks {
		v, _ := statusField(t, "voluntary_ctxt_switches")
		n, _ := statusField(t, "nonvoluntary_ctxt_switches")
		total += v + n
	}
	return total
}

// waitFor polls cond every step until it holds, ctx ends or the daemon
// dies.
func (d *Daemon) waitFor(ctx context.Context, step time.Duration, what string, cond func() bool) error {
	t := time.NewTicker(step)
	defer t.Stop()
	for {
		if cond() {
			return nil
		}
		if d.Exited() {
			return fmt.Errorf("artemisd exited while waiting for %s: %v", what, d.err)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("timed out waiting for %s", what)
		case <-t.C:
		}
	}
}

// hostCPU reads the machine-wide CPU accounting line of /proc/stat:
// ticks stolen by the hypervisor (time a virtual CPU was ready to run and
// was not run) and total ticks.
func hostCPU() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
