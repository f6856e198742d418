package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one snaptask-server process under test.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// startServer launches the server binary on a fresh loopback port with
// GOMAXPROCS pinned to procs. Its log goes to logPath.
func startServer(bin string, procs int, logPath string, args ...string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	all := append([]string{"-addr", addr, "-log-level", "error"}, args...)
	cmd := exec.Command(bin, all...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls GET /readyz until it answers 200, the process exits, or
// the timeout passes.
func (p *serverProc) waitReady(ctx context.Context, hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("server exited before ready: %v", p.err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("server not ready in time")
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (p *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// cpuSeconds reads the CPU time (user and system) the process has used so
// far. Time the hypervisor stole from it is not counted.
func (p *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return statCPUSeconds(string(data))
}

// statCPUSeconds parses a /proc/<pid>/stat line: utime and stime are
// fields 14 and 15, in USER_HZ (100 Hz) ticks. The command name, field 2,
// is parenthesised and may hold spaces and parentheses itself, so fields
// are counted from the last ") ".
func statCPUSeconds(line string) (float64, error) {
	i := strings.LastIndex(line, ") ")
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(line[i+2:]) // from field 3, the state
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var ticks float64
	for _, v := range f[11:13] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return ticks / 100, nil
}

// stop shuts the server down gracefully (SIGTERM), killing it if it has
// not exited within the grace period, and waits until it has ended.
func (p *serverProc) stop() error {
	select {
	case <-p.exited:
		return fmt.Errorf("server exited early: %v", p.err)
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		return p.err
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return errors.New("server ignored SIGTERM")
	}
}
