package main

import (
	"bytes"
	"context"
	"encoding/json"
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

// server is a celia-server child process listening on loopback.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	err    error // the process's exit status, set before exited closes
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs the server binary with the given flags plus -addr;
// its log goes to logPath. The child is killed if this process dies.
func startServer(bin string, flags []string, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, addr: addr, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	return s, nil
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited during start-up: %v", s.err)
		default:
		}
		resp, err := hc.Get("http://" + s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not healthy after %v", timeout)
}

// stop sends SIGTERM (the server drains and exits) and waits; a server
// that has not exited after 20 s is killed.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exiting if this fails; the wait below decides
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill() // best effort; the wait below reaps it
		<-s.exited
	}
}

// cpuTime is the process's user plus system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 10 ms).
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", rest)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(utime+stime) * tick, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// warmQueries are the set-up's one analytic request per app: the
// paper's running examples, distinct from every generated query.
var warmQueries = []request{
	{Kind: "mincost", App: "galaxy", Body: []byte(`{"app":"galaxy","n":65536,"a":8000,"deadline_hours":24}`)},
	{Kind: "mincost", App: "sand", Body: []byte(`{"app":"sand","n":8192000000,"a":0.32,"deadline_hours":24}`)},
	{Kind: "mincost", App: "x264", Body: []byte(`{"app":"x264","n":8000,"a":20,"deadline_hours":2}`)},
}

// warm sends the warm queries in order, then checks /readyz: every app
// must report a built index, so a snapshot that failed to restore (and
// left the app serving from the scan) fails the set-up.
func warm(ctx context.Context, c *client) error {
	for _, q := range warmQueries {
		rep, err := c.post(ctx, q, -1)
		if err != nil {
			return fmt.Errorf("warm %s: %w", q.App, err)
		}
		if rep.status != http.StatusOK {
			return fmt.Errorf("warm %s: status %d: %s", q.App, rep.status, rep.body)
		}
	}
	body, err := c.get(ctx, "/readyz")
	if err != nil {
		return err
	}
	var ready struct {
		Status string `json:"status"`
		Index  map[string]struct {
			State string `json:"state"`
		} `json:"index"`
	}
	if err := json.Unmarshal(body, &ready); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}
	for app, st := range ready.Index {
		if st.State != "built" {
			return fmt.Errorf("readyz: %s index %q after warm-up (%s)", app, st.State, body)
		}
	}
	return nil
}

// setUp starts a server and times it from exec until it is healthy and
// every warm query has been answered.
func setUp(ctx context.Context, bin string, flags []string, logPath string) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(bin, flags, logPath)
	if err != nil {
		return nil, 0, err
	}
	if err := s.waitHealthy(60 * time.Second); err != nil {
		s.stop()
		return nil, 0, err
	}
	c := newClient(s.addr, 1)
	defer c.close()
	if err := warm(ctx, c); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}
