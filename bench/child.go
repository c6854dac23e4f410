package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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

// child is one running sti-serve process. Every spawn is stopped through
// stop, which waits for the process to end; Pdeathsig covers the one path
// a defer cannot (the benchmark itself being killed).
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logPath string
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts sti-serve and returns once /healthz answers and probe (the
// first classify) has succeeded. The returned duration is spawn → first
// successful classify: Load + Replan + Warm as a user waits for them.
func spawn(ctx context.Context, bin string, flags []string, logPath string, probe func(base string) error) (*child, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, 0, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("bench: starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	if err := c.waitHealthy(ctx); err != nil {
		c.stop()
		return nil, 0, fmt.Errorf("%w\n%s", err, c.logTail())
	}
	if err := probe(c.base); err != nil {
		c.stop()
		return nil, 0, fmt.Errorf("bench: first classify: %w\n%s", err, c.logTail())
	}
	return c, time.Since(start), nil
}

func (c *child) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck — drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("bench: sti-serve exited before /healthz answered: %v", c.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("bench: sti-serve did not answer /healthz within 30s")
		}
	}
}

// stop ends the child and waits for it: SIGTERM for the server's graceful
// drain, SIGKILL if that takes longer than a few seconds.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck — already exited is fine
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck — already exited is fine
		<-c.exited
	}
}

func (c *child) logTail() string {
	data, _ := os.ReadFile(c.logPath) // diagnostics only
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return "sti-serve log tail:\n" + string(data)
}

// clockTick is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 10 * time.Millisecond

// cpuTime reads the child's user+system CPU time so far.
func (c *child) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("bench: malformed /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: malformed /proc stat times %q %q", fields[11], fields[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS reads the child's resident-set high-water mark (VmHWM) in bytes.
func (c *child) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bench: malformed VmHWM line %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}
