package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one lggd process, started only through its flags.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped

	mu   sync.Mutex
	tail []string // last log lines, for error reports
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startDaemon launches bin with args and waits until it logs its listen
// address and answers /readyz with 200.
func startDaemon(ctx context.Context, bin, name string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// The kernel kills the daemon if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
		// Drain whatever a long line left so the daemon never blocks on
		// its log pipe, then reap it.
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case addr := <-addrc:
		d.url = "http://" + addr
	case <-d.exited:
		return nil, fmt.Errorf("%s exited during start-up: %s", name, d.logTail())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not report its address in 30s", name)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	if err := waitReady(ctx, d.url); err != nil {
		d.kill()
		return nil, fmt.Errorf("%s: %w: %s", name, err, d.logTail())
	}
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, "GET", base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("not ready after 30s")
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than 15 s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

// kill ends the daemon at once and waits until it has been reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// procStats reads a process's peak resident set (VmHWM) and CPU time.
func procStats(pid int) (hwmMB float64, cpu time.Duration, err error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			hwmMB = kb / 1024
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	s := string(stat)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		t, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
		}
		ticks += t
	}
	return hwmMB, time.Duration(ticks) * 10 * time.Millisecond, nil
}

// scrape fetches a daemon's /metrics and sums each series by name.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}

// parseProm reads Prometheus text format, summing samples by metric name
// across label sets.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}
