package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server subprocess: funseekerd or funseeker-lb, listening
// on a loopback port. Its stderr (the access log) is kept only as a
// short tail for error messages.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	logs *tailBuf
	done chan struct{}
}

// tailBuf keeps the last few KiB written to it.
type tailBuf struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuf) Write(p []byte) (int, error) {
	const keep = 4 << 10
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > keep {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-keep:]...)
	}
	return len(p), nil
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// live holds every started, not yet stopped process, so an interrupted
// run can stop them all.
var live struct {
	sync.Mutex
	procs map[*proc]bool
}

// stopAll stops every live process and waits for each to exit.
func stopAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.stop()
	}
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

// startProc runs binary with args plus -addr on a fresh loopback port
// and waits until its health endpoint answers. The child is killed if
// this process dies first.
func startProc(name, binary, health string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(binary, append([]string{"-addr", addr}, args...)...)
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, logs: &tailBuf{}, done: make(chan struct{})}
	cmd.Stdout, cmd.Stderr = p.logs, p.logs
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*proc]bool)
	}
	live.procs[p] = true
	live.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status is reported through done
		close(p.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(p.url + health)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited during start-up: %s", name, p.logs)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s not healthy after 20s: %s", name, p.logs)
		}
	}
}

// stop terminates the process and waits until it has exited.
func (p *proc) stop() {
	if p == nil {
		return
	}
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // a failed signal leaves the kill below
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// hwmMB is the process's peak resident set (VmHWM) in MiB.
func (p *proc) hwmMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

func vmHWM(statusPath string) (float64, error) {
	b, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// totalAlloc reads the cumulative heap bytes a funseekerd has allocated
// from its expvar memstats.
func (p *proc) totalAlloc(c *http.Client) (uint64, error) {
	var v struct {
		Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
	}
	if err := getJSON(c, p.url+"/debug/vars", &v); err != nil {
		return 0, err
	}
	return v.Memstats.TotalAlloc, nil
}

// pollPause is how long a poller that has waited so far pauses before
// its next poll: an eighth of the wait, between 50 µs and 2 ms. The
// poller then takes little CPU from the work it waits for, and the time
// it reports is late by at most about an eighth.
func pollPause(waited time.Duration) time.Duration {
	return min(max(waited/8, 50*time.Microsecond), 2*time.Millisecond)
}

// awaitResult polls GET /v1/result until the store holds key, pausing
// between polls, and fails once deadline has passed. One key per
// request keeps the poll's cost independent of how many results the
// store already holds, which a /v1/keys listing would not.
func (p *proc) awaitResult(c *http.Client, key string, deadline time.Time) error {
	t0 := time.Now()
	for {
		resp, err := c.Get(p.url + "/v1/result?key=" + key)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			return nil
		case resp.StatusCode != http.StatusNotFound:
			return fmt.Errorf("%s: GET /v1/result: status %d", p.name, resp.StatusCode)
		case time.Now().After(deadline):
			return fmt.Errorf("%s: result %s not stored in time", p.name, key)
		}
		time.Sleep(pollPause(time.Since(t0)))
	}
}

// awaitCount polls series on /metrics, pausing between polls, until it
// reaches want, and returns the value it read then. It fails once
// deadline has passed.
func (p *proc) awaitCount(c *http.Client, series string, want float64, deadline time.Time) (float64, error) {
	t0 := time.Now()
	for {
		v, err := p.promSample(c, series)
		switch {
		case err != nil:
			return 0, err
		case v >= want:
			return v, nil
		case time.Now().After(deadline):
			return 0, fmt.Errorf("%s: %s is %v, want %v", p.name, series, v, want)
		}
		time.Sleep(pollPause(time.Since(t0)))
	}
}

// storeKeys lists every key the node's store holds (GET /v1/keys).
func (p *proc) storeKeys(c *http.Client) (map[string]bool, error) {
	var v struct {
		Keys []string `json:"keys"`
	}
	if err := getJSON(c, p.url+"/v1/keys", &v); err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(v.Keys))
	for _, k := range v.Keys {
		out[k] = true
	}
	return out, nil
}

// promSample returns the value of one unlabelled series (or the sum of
// all series whose name and label prefix match) from /metrics.
func (p *proc) promSample(c *http.Client, prefix string) (float64, error) {
	resp, err := c.Get(p.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var sum float64
	found := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		sum += v
		found = true
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("%s: no %s series", p.name, prefix)
	}
	return sum, nil
}

// histogram is a cumulative Prometheus histogram: upper bounds and the
// count of samples at or below each.
type histogram struct {
	le  []float64
	cum []float64
}

// promHistogram reads the buckets of histogram family name.
func (p *proc) promHistogram(c *http.Client, name string) (histogram, error) {
	resp, err := c.Get(p.url + "/metrics")
	if err != nil {
		return histogram{}, err
	}
	defer resp.Body.Close()
	var h histogram
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name+`_bucket{le="`)
		if !ok {
			continue
		}
		bound, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			return h, fmt.Errorf("malformed bucket %q", line)
		}
		le, err := strconv.ParseFloat(bound, 64)
		if bound == "+Inf" {
			le, err = 1e300, nil
		}
		if err != nil {
			return h, err
		}
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return h, err
		}
		h.le, h.cum = append(h.le, le), append(h.cum, n)
	}
	return h, sc.Err()
}

// minus returns the histogram of samples observed after o was taken.
func (h histogram) minus(o histogram) histogram {
	out := histogram{le: h.le, cum: make([]float64, len(h.cum))}
	for i := range h.cum {
		out.cum[i] = h.cum[i]
		if i < len(o.cum) {
			out.cum[i] -= o.cum[i]
		}
	}
	return out
}

// plus adds another histogram with the same bounds.
func (h histogram) plus(o histogram) histogram {
	if len(h.le) == 0 {
		return o
	}
	out := histogram{le: h.le, cum: make([]float64, len(h.cum))}
	for i := range h.cum {
		out.cum[i] = h.cum[i] + o.cum[i]
	}
	return out
}

// quantile interpolates the q-quantile inside its bucket, as
// Prometheus's histogram_quantile does; 0 for an empty histogram.
func (h histogram) quantile(q float64) float64 {
	if len(h.cum) == 0 || h.cum[len(h.cum)-1] == 0 {
		return 0
	}
	rank := q * h.cum[len(h.cum)-1]
	prevLe, prevCum := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			if h.le[i] >= 1e300 {
				return prevLe
			}
			if c == prevCum {
				return h.le[i]
			}
			return prevLe + (h.le[i]-prevLe)*(rank-prevCum)/(c-prevCum)
		}
		prevLe, prevCum = h.le[i], c
	}
	return prevLe
}

// count is the number of samples in the histogram.
func (h histogram) count() float64 {
	if len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// workDir makes a fresh directory for one run's server state under the
// build directory of the checkout.
func workDir(root, name string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
