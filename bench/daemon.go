package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps everything it writes: the pland
// binary, daemon logs, traces and output documents. It sits inside the
// checkout and is ignored by git.
const buildDir = ".bench_build"

// readyTimeout bounds how long a replica may take from exec to /readyz
// 200. The slowest set-up here (serve_hit's 40 warm-up builds) is ≈1 s.
const readyTimeout = 30 * time.Second

// buildPland compiles cmd/pland into buildDir and returns the binary's
// path. It runs before any clock starts; build time is not a metric.
func buildPland(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "pland"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/pland")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/pland (run from the repository root): %w\n%s", err, out)
	}
	return bin, nil
}

// reservePorts returns n distinct free loopback ports. All listeners are
// held until every port is known, so one call never hands out a port
// twice; the window between release and the child's bind is the usual
// unavoidable one.
func reservePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		held = append(held, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// daemon is one running pland child.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	debug   string // debug listener base URL, "" when off
	logPath string
	exited  chan struct{} // closed once the child has been reaped
	waitErr error         // valid after exited is closed
}

// startDaemon execs pland on addr with the given extra flags, in its own
// process group, with stderr captured to logPath.
func startDaemon(bin string, port, debugPort int, logPath string, flags ...string) (*daemon, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	d := &daemon{
		base:    fmt.Sprintf("http://127.0.0.1:%d", port),
		logPath: logPath,
		exited:  make(chan struct{}),
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, flags...)
	if debugPort != 0 {
		d.debug = fmt.Sprintf("http://127.0.0.1:%d", debugPort)
		args = append(args, "-debug-addr", fmt.Sprintf("127.0.0.1:%d", debugPort))
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = logFile
	// Own process group so stop can signal the whole group; Pdeathsig so
	// a benchmark killed from outside never leaves a daemon behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pland: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls /readyz until it answers 200. It fails, rather than
// hangs, when the child exits early or the deadline passes.
func (d *daemon) waitReady(ctx context.Context, client *http.Client) error {
	deadline := time.NewTimer(readyTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(250 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("pland exited before ready (%v); log: %s", d.waitErr, d.logTail())
		case <-deadline.C:
			return fmt.Errorf("pland not ready on %s within %v; log: %s", d.base, readyTimeout, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		resp, err := client.Get(d.base + "/readyz")
		if err != nil {
			continue // not listening yet
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
}

// stop terminates the child's process group and reaps it: SIGTERM for a
// graceful shutdown, SIGKILL if that takes more than two seconds.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return // already reaped; its pid may belong to someone else by now
	default:
	}
	pgid := -d.cmd.Process.Pid
	_ = syscall.Kill(pgid, syscall.SIGTERM) // fails only when already gone
	select {
	case <-d.exited:
	case <-time.After(2 * time.Second):
		_ = syscall.Kill(pgid, syscall.SIGKILL)
		<-d.exited
	}
}

func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// clockTicks is USER_HZ, the unit of the CPU fields in /proc/<pid>/stat.
// It is 100 on every Linux configuration Go supports; reading it needs cgo.
const clockTicks = 100

// procCPUSeconds returns the user+system CPU time a process has used.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU fields in stat line %q", stat)
	}
	return float64(utime+stime) / clockTicks, nil
}

// procPeakRSSMB returns a process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fleet is the set of daemons one workload phase runs against.
type fleet struct {
	daemons []*daemon
	ref     *daemon // the reference server of a closed-loop workload
	setupS  float64 // exec → every replica ready and pre-touched
}

func (f *fleet) stop() {
	for _, d := range f.daemons {
		d.stop()
	}
	if f.ref != nil {
		f.ref.stop()
	}
}

// sum adds up one /proc reading over the fleet's daemons.
func (f *fleet) sum(read func(pid int) (float64, error)) (float64, error) {
	var sum float64
	for _, d := range f.daemons {
		v, err := read(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// cpuSeconds sums the CPU used so far by every daemon of the fleet.
func (f *fleet) cpuSeconds() (float64, error) { return f.sum(procCPUSeconds) }

// peakRSSMB sums the daemons' peak resident sets.
func (f *fleet) peakRSSMB() (float64, error) { return f.sum(procPeakRSSMB) }
