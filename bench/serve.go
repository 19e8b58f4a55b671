package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `robustqo serve` subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan struct{} // closed once Wait has returned
}

// startServer launches the server on a port that is free now, waits
// until it answers on "/", and returns how long that took.
func startServer(ctx context.Context, bin, outDir string, lines int) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()

	logf, err := os.OpenFile(filepath.Join(outDir, "serve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "serve", "-lines", strconv.Itoa(lines), "-parallelism", "1", "-debug-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without running its clean-up, the kernel
	// stops the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	start := time.Now()
	started := make(chan error)
	go func() {
		// Pdeathsig fires when the forking thread ends, so the goroutine
		// that starts the child keeps its thread until the child is gone.
		runtime.LockOSThread()
		err := cmd.Start()
		started <- err
		if err != nil {
			return
		}
		_ = cmd.Wait() // the exit status of a server told to stop carries no news
		close(s.exited)
	}()
	if err := <-started; err != nil {
		logf.Close()
		return nil, 0, err
	}

	hc := &http.Client{Timeout: time.Second}
	deadline := time.After(60 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("server exited during start-up; see %s", logf.Name())
		case <-deadline:
			s.stop()
			return nil, 0, fmt.Errorf("server not ready after 60s; see %s", logf.Name())
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the process to end (SIGKILL after 15 s),
// and closes the log.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already ended
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// counters scrapes /metrics and returns the plain counter series.
func (s *server) counters() (map[string]int64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseCounters(resp.Body)
}

// parseCounters reads the "name value" lines of the text exposition;
// histogram sums, which are not whole numbers, are left out.
func parseCounters(text io.Reader) (map[string]int64, error) {
	out := map[string]int64{}
	sc := bufio.NewScanner(text)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out, sc.Err()
}

// client is one keep-alive HTTP connection to the server.
type client struct {
	hc    *http.Client
	base  string
	stmts map[int]string // tpl -> prepared statement id on this server
}

func newClient(base string, stmts map[int]string) *client {
	return &client{
		hc:    &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base:  base,
		stmts: stmts,
	}
}

// reply is what the benchmark reads out of a query response.
type reply struct {
	rows int
	sim  float64
}

// prepare registers the request's statement shape with the server.
func (c *client) prepare(ctx context.Context, r *request) error {
	body, err := c.get(ctx, "/prepare?sql="+url.QueryEscape(r.sql))
	if err != nil {
		return err
	}
	var got struct {
		Stmt string `json:"stmt"`
	}
	if err := json.Unmarshal(body, &got); err != nil || got.Stmt == "" {
		return fmt.Errorf("prepare: unexpected reply %q", body)
	}
	c.stmts[r.tpl] = got.Stmt
	return nil
}

// do sends one request and parses the reply. Anything but a 200 with a
// row count is an error.
func (c *client) do(ctx context.Context, r *request) (reply, error) {
	var path string
	if id, ok := c.stmts[r.tpl]; ok && r.prepared {
		path = "/exec?stmt=" + id + "&args=" + url.QueryEscape(r.spec.args())
	} else {
		path = "/query?sql=" + url.QueryEscape(r.sql)
	}
	if r.threshold != 0 {
		path += "&threshold=" + strconv.FormatFloat(r.threshold, 'g', -1, 64)
	}
	body, err := c.get(ctx, path)
	if err != nil {
		return reply{}, err
	}
	return parseReply(string(body))
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// parseReply reads the two trailing lines of a query response:
//
//	simulated execution: 0.3612 s
//	(1 rows)
func parseReply(body string) (reply, error) {
	var out reply
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) < 2 {
		return out, fmt.Errorf("short reply %q", body)
	}
	if _, err := fmt.Sscanf(lines[len(lines)-1], "(%d rows)", &out.rows); err != nil {
		return out, fmt.Errorf("no row count in %q", lines[len(lines)-1])
	}
	if _, err := fmt.Sscanf(lines[len(lines)-2], "simulated execution: %f s", &out.sim); err != nil {
		return out, fmt.Errorf("no simulated time in %q", lines[len(lines)-2])
	}
	return out, nil
}
