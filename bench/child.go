package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// moduleRoot walks up from the working directory to the directory holding
// go.mod: the checkout root under `go run ./bench`, one level up under
// `go test ./bench`.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

var (
	serverOnce sync.Once
	serverBin  string
	serverErr  error
)

// buildServer compiles the real cmd/lsserve once per harness process into
// the checkout's build directory. Its time is not part of setup_s.
func buildServer() (string, error) {
	serverOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			serverErr = err
			return
		}
		bin := filepath.Join(root, buildDir, "bin", "lsserve")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/lsserve")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			serverErr = fmt.Errorf("go build ./cmd/lsserve: %v\n%s", err, out)
			return
		}
		serverBin = bin
	})
	return serverBin, serverErr
}

// child is one lsserve process under test.
type child struct {
	name string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds, so a lost race shows up as a child that
// never becomes healthy — a set-up error, never a wrong measurement.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startChild launches lsserve in its own process group with stdout and
// stderr captured to logDir, and waits until /healthz answers.
func startChild(ctx context.Context, name, logDir string, args ...string) (*child, error) {
	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{name: name, base: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState
		close(c.done)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.done:
			c.stop()
			return nil, fmt.Errorf("%s exited before becoming healthy (see %s)", name, logf.Name())
		case <-ctx.Done():
			c.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("%s not healthy after 15s (see %s)", name, logf.Name())
		}
	}
}

// stop ends the child — SIGTERM first so lsserve drains and reports, then
// SIGKILL to the whole group — waits for it, and returns its lifetime CPU
// seconds from the kernel's rusage and its peak RSS in MB (read while it is
// still alive, see peakRSSMB).
func (c *child) stop() (cpuS, rssMB float64) {
	if c == nil || c.cmd.Process == nil {
		return 0, 0
	}
	pgid := c.cmd.Process.Pid
	rssMB = peakRSSMB(strconv.Itoa(pgid), 0)
	syscall.Kill(-pgid, syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-c.done:
	case <-time.After(3 * time.Second):
	}
	syscall.Kill(-pgid, syscall.SIGKILL) //nolint:errcheck // sweeps any straggler of the group
	<-c.done
	c.log.Close()
	if ps := c.cmd.ProcessState; ps != nil {
		cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok && rssMB == 0 {
			rssMB = float64(ru.Maxrss) / 1024 // no /proc: rusage, in KiB
		}
	}
	return cpuS, rssMB
}

// fleet is the set of children of one workload plus the count of requests
// they answered.
type fleet struct {
	children []*child
	counts   atomic.Int64
}

// stopAll stops the children newest first (a coordinator before its
// workers) and sums their CPU and peak RSS.
func (f *fleet) stopAll() (cpuS, rssMB float64) {
	for i := len(f.children) - 1; i >= 0; i-- {
		cpu, rss := f.children[i].stop()
		cpuS += cpu
		rssMB += rss
	}
	f.children = nil
	return cpuS, rssMB
}

// httpClient is one keep-alive connection's worth of client.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute},
		Timeout:   60 * time.Second,
	}
}

// upload registers a CSV dataset on a server.
func upload(ctx context.Context, hc *http.Client, base, name, schema, csv string) error {
	u := base + "/v1/datasets?name=" + url.QueryEscape(name) + "&schema=" + url.QueryEscape(schema)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader([]byte(csv)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("uploading %s: %s: %s", name, resp.Status, body)
	}
	return nil
}

// uploadTables registers D and R of the SQL workloads on a server.
func uploadTables(ctx context.Context, hc *http.Client, base string, fix *sqlFixture) error {
	if err := upload(ctx, hc, base, "D", schemaD, fix.data.csvD()); err != nil {
		return err
	}
	return upload(ctx, hc, base, "R", schemaR, fix.data.csvR())
}

// getJSON decodes a GET response into v.
func getJSON(ctx context.Context, hc *http.Client, u string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
