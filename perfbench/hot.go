package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// analyze-hot parameters. The rates are fixed, not derived from the
// host, so a faster program reaches a higher ladder step. They are this
// benchmark's own choices, not taken from a request trace; README.md
// gives the reasons and the figures measured with them.
const (
	// hotRate is about a ninth of max_rps on the reference host (about
	// 4,400 requests/s on 2 vCPUs), so p50_ms and tail_ms measure
	// service time at light load rather than queueing.
	hotRate = 500.0
	// hotTailLimit is the tail a ladder rate must meet. On the reference
	// host it is about 15 times the fixed-rate tail and 20 times the
	// median cold-analysis round trip, so a step fails when requests
	// queue, not because its never-seen share is slow.
	hotTailLimit  = 25.0 // ms
	hotFreshEvery = 32   // every 32nd request is never-seen (about 3%)
	// hotZipfS is the popularity skew over the pool. math/rand's Zipf
	// needs an exponent above 1; 1.1 is the mildest round value it takes.
	hotZipfS    = 1.1
	ladderBase  = 50.0 // lowest ladder rate, requests/s
	ladderStep  = 1.05 // ratio between neighbouring ladder rates
	ladderSteps = 137  // 50 .. ~38000 requests/s, room for a 4x faster server
	convergeOps = 128  // never-seen requests timed until the store serves them
)

// newClient makes an HTTP client that uses at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
}

// analyzeResp is the part of a /v1/analyze response (or a batch
// member's result) the benchmark checks.
type analyzeResp struct {
	Cached    any      `json:"cached"`
	ElapsedMS float64  `json:"elapsed_ms"`
	Entries   []uint64 `json:"entries"`
}

// tier names the result tier that served a response: "cold" for a
// fresh analysis, else the cached field's value.
func (a *analyzeResp) tier() string {
	if s, ok := a.Cached.(string); ok {
		return s
	}
	return "cold"
}

// postAnalyze sends one image and returns the parsed response and its
// store key. Any status but 200 and any malformed body is an error.
func postAnalyze(c *http.Client, base string, raw []byte, config int) (*analyzeResp, string, error) {
	resp, err := c.Post(base+"/v1/analyze?config="+strconv.Itoa(config), "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var a analyzeResp
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, "", fmt.Errorf("malformed response: %w", err)
	}
	return &a, resp.Header.Get("X-Funseeker-Store-Key"), nil
}

// hotReq is one scheduled request: when it is due, which pool image it
// carries, and a nonzero stamp when it must be a never-seen copy.
type hotReq struct {
	due   time.Duration
	rank  int
	fresh uint64
}

// hotOut is what became of one scheduled request. Times are relative
// to the phase start; done is when the request completed, failed or
// was given up.
type hotOut struct {
	due, late, sent, done time.Duration
	tier                  string
	elapsedMS             float64
	bytes                 int
	ok                    bool // completed and passed the output check
	abandoned             bool // not sent because its ladder step had already failed
}

// latencyMS is the request's latency from its due time. For a request
// that timed out unsent it is how long it waited before being given up,
// a lower bound that is always finite.
func (o *hotOut) latencyMS() float64 {
	return float64((o.done - o.due).Nanoseconds()) / 1e6
}

// latencies returns the latencies of the requests that were attempted:
// sent, or given up after timing out.
func latencies(outs []hotOut) []float64 {
	xs := make([]float64, 0, len(outs))
	for i := range outs {
		if !outs[i].abandoned {
			xs = append(xs, outs[i].latencyMS())
		}
	}
	return xs
}

// hotState is the analyze-hot run: its pool, references and server.
type hotState struct {
	e      *env
	r      *report
	c      *http.Client
	srv    *proc
	pool   []*image
	refs   []reference
	stamps uint64 // last never-seen stamp handed out
	keys   []string
	unsent int64      // requests that timed out unsent
	mu     sync.Mutex // guards r, keys and unsent during a phase
}

// schedule spaces requests evenly at rate per second for d. Each picks
// a pool image by Zipf popularity; every hotFreshEvery-th is instead a
// never-seen copy, of pool images taken in a fixed stride so that every
// phase's cold requests cover the pool's sizes evenly.
func (h *hotState) schedule(seed int64, rate float64, d time.Duration) []hotReq {
	n := int(rate * d.Seconds())
	ranks := zipfDraws(seed, n, len(h.pool), hotZipfS)
	out := make([]hotReq, n)
	for i := range out {
		out[i] = hotReq{due: time.Duration(float64(i) / rate * float64(time.Second)), rank: ranks[i]}
		if i%hotFreshEvery == hotFreshEvery-1 {
			h.stamps++
			out[i].rank = int(h.stamps*37) % len(h.pool)
			out[i].fresh = h.stamps
		}
	}
	return out
}

// openLoop sends reqs at their due times over at most nproc
// connections, whatever the responses do. A request not sent within a
// second after the last one was due times out: it is given up unsent,
// counts as attempted and as missing any limit, and its latency is the
// time it waited. With a finite limitMS the loop abandons the step once
// more than minBeyond requests have missed the limit, since the step
// has then failed; abandoned requests are never sent and not attempted.
func (h *hotState) openLoop(reqs []hotReq, limitMS float64) (outs []hotOut, aborted bool) {
	outs = make([]hotOut, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends
	start := time.Now()
	cutoff := time.Second
	if len(reqs) > 0 {
		cutoff += reqs[len(reqs)-1].due
	}
	abortable := !math.IsInf(limitMS, 1)
	var missed atomic.Int64
	failed := func() bool { return abortable && missed.Load() > minBeyond }
	var wg sync.WaitGroup
	for w := 0; w < h.e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := range queue {
				q, o := reqs[i], &outs[i]
				if failed() {
					o.abandoned = true
					continue
				}
				if now := time.Since(start); now > cutoff {
					o.done = now // timed out unsent
					missed.Add(1)
					h.mu.Lock()
					h.r.Attempted++
					h.unsent++
					h.mu.Unlock()
					continue
				}
				im, raw := h.pool[q.rank], h.pool[q.rank].Raw
				if q.fresh != 0 {
					buf = stamp(buf, raw, 1<<32+q.fresh)
					raw = buf
				}
				o.sent = time.Since(start)
				a, key, err := postAnalyze(h.c, h.srv.url, raw, im.Config)
				o.done = time.Since(start)
				h.mu.Lock()
				h.r.Attempted++
				switch {
				case err != nil:
					h.r.fail("%s: %v", im.Name, err)
				case entriesHash(a.Entries) != h.refs[q.rank].hash:
					h.r.fail("%s: %s result differs from the cold reference", im.Name, a.tier())
				case q.fresh != 0 && a.tier() != "cold":
					h.r.fail("%s: never-seen image served from %s", im.Name, a.tier())
				default:
					o.ok, o.tier, o.elapsedMS, o.bytes = true, a.tier(), a.ElapsedMS, len(raw)
					if q.fresh != 0 {
						h.keys = append(h.keys, key)
					}
				}
				h.mu.Unlock()
				if !o.ok || o.latencyMS() > limitMS {
					missed.Add(1)
				}
			}
		}()
	}
	for i, q := range reqs {
		if failed() {
			aborted = true
		} else if wait := q.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		outs[i].due, outs[i].late = q.due, time.Since(start)-q.due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs, aborted || failed()
}

// probe is one ladder step's verdict.
type probe struct {
	pass      bool
	rps, mbs  float64
	tailMS    float64
	completed int
}

// judge decides whether a ladder step of length d passed: every request
// completed and the tail stayed within hotTailLimit.
func judge(outs []hotOut, aborted bool, d time.Duration) probe {
	lat := latencies(outs)
	var p probe
	var bytes int
	var last time.Duration
	for i := range outs {
		if outs[i].ok {
			p.completed++
			bytes += outs[i].bytes
			last = max(last, outs[i].done)
		}
	}
	t, ok := summarize(lat)
	span := max(last, d).Seconds()
	p.tailMS, p.rps, p.mbs = t.Tail, float64(p.completed)/span, float64(bytes)/1e6/span
	p.pass = ok && !aborted && p.completed == len(outs) && t.Tail <= hotTailLimit
	return p
}

// search binary-searches ladder indexes (lo, hi) for the highest rate
// whose probe passes. A failed step is tried once more before it
// counts, so a passing stall of the shared host does not end the
// search early.
func (h *hotState) search(seed int64, lo, hi int, d time.Duration, all *[]hotOut) (int, probe) {
	var best probe
	for step := 0; hi-lo > 1; step++ {
		mid := (lo + hi) / 2
		rate := ladderBase * math.Pow(ladderStep, float64(mid))
		var p probe
		for try := 0; try < 2 && !p.pass; try++ {
			outs, aborted := h.openLoop(h.schedule(seed+int64(2*step+try), rate, d), hotTailLimit)
			*all = append(*all, outs...)
			p = judge(outs, aborted, d)
			h.r.Notes = append(h.r.Notes, fmt.Sprintf("ladder %.0f/s: pass=%v tail=%.2fms completed=%d/%d",
				rate, p.pass, p.tailMS, p.completed, len(outs)))
		}
		if p.pass {
			lo, best = mid, p
		} else {
			hi = mid
		}
	}
	return lo, best
}

// setup generates the pool, analyzes every image cold through a
// funseekerd with a store, then restarts it on the warm store with an
// LRU sized to a quarter of the pool's results, and fills that LRU
// with Zipf traffic.
func (h *hotState) setup(dir string) error {
	pool, err := generate(hotSlots, h.e.seed)
	if err != nil {
		return err
	}
	h.pool, h.refs, h.stamps = pool, make([]reference, len(pool)), 0
	storeDir := filepath.Join(dir, "store")
	if err := os.RemoveAll(storeDir); err != nil {
		return err
	}
	bin := filepath.Join(h.e.bin, "funseekerd")
	first, err := startProc("funseekerd", bin, "/v1/healthz", "-store-dir", storeDir)
	if err != nil {
		return err
	}
	for i, im := range pool {
		a, _, err := postAnalyze(h.c, first.url, im.Raw, im.Config)
		if err != nil {
			first.stop()
			return fmt.Errorf("warm-up %s: %w", im.Name, err)
		}
		h.refs[i] = newReference(a.Entries, im.Truth)
	}
	var st struct {
		Cache struct{ Bytes int64 }
	}
	err = getJSON(h.c, first.url+"/v1/stats", &st)
	first.stop()
	if err != nil {
		return err
	}
	h.srv, err = startProc("funseekerd", bin, "/v1/healthz",
		"-store-dir", storeDir, "-cache-bytes", strconv.FormatInt(st.Cache.Bytes/4, 10))
	if err != nil {
		return err
	}
	for i, rank := range zipfDraws(h.e.seed^0x3a, 4*len(pool), len(pool), hotZipfS) {
		im := pool[rank]
		a, _, err := postAnalyze(h.c, h.srv.url, im.Raw, im.Config)
		if err != nil {
			return fmt.Errorf("LRU warm-up request %d: %w", i, err)
		}
		if entriesHash(a.Entries) != h.refs[rank].hash {
			return fmt.Errorf("LRU warm-up %s: %s result differs from the cold reference", im.Name, a.tier())
		}
	}
	return nil
}

func runAnalyzeHot(e *env) (*report, error) {
	h := &hotState{e: e, r: newReport("analyze-hot", e), c: newClient(e.nproc)}
	r := h.r
	dir, err := workDir(e.root, "analyze-hot")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		h.srv.stop()
		t0 := time.Now()
		err := h.setup(dir)
		if err != nil {
			h.srv.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer h.srv.stop()
	r.Metrics["setup_s"] = medianOf(setups)
	r.inputShares(h.pool)
	queue0, err := h.srv.promHistogram(h.c, "funseeker_engine_queue_wait_seconds")
	if err != nil {
		return nil, err
	}

	// Fixed rate: latency from each request's due time, in one-second
	// windows. Converge samples are taken between windows, so they too
	// are spread over the run. alloc_b_per_b is read around the windows
	// only: their request count is fixed, and the converge requests and
	// polls stay out of it.
	windows := max(int((e.seconds * 2 / 5).Seconds()), 1)
	var lat [][]float64
	var lates, conv []float64
	var all []hotOut
	var allocated, windowBytes float64
	for w := 0; w < windows; w++ {
		alloc0, err := h.srv.totalAlloc(h.c)
		if err != nil {
			return nil, err
		}
		outs, _ := h.openLoop(h.schedule(e.seed*7919+int64(w), hotRate, time.Second), math.Inf(1))
		alloc1, err := h.srv.totalAlloc(h.c)
		if err != nil {
			return nil, err
		}
		allocated += float64(alloc1 - alloc0)
		all = append(all, outs...)
		lat = append(lat, latencies(outs))
		for i := range outs {
			lates = append(lates, float64(outs[i].late.Nanoseconds())/1e6)
			windowBytes += float64(outs[i].bytes)
		}
		xs, err := h.converge(convergeOps / windows)
		if err != nil {
			return nil, err
		}
		conv = append(conv, xs...)
	}
	t, err := r.windowLatency("fixed_rate_ms", lat)
	if err != nil {
		return nil, err
	}
	queue1, err := h.srv.promHistogram(h.c, "funseeker_engine_queue_wait_seconds")
	if err != nil {
		return nil, err
	}
	lt, err := r.latency("generator_late_ms", lates)
	if err != nil {
		return nil, err
	}
	r.Metrics["p50_ms"], r.Metrics["tail_ms"] = t.P50, t.Tail
	r.Metrics["alloc_b_per_b"] = ratio(allocated, windowBytes)
	r.Metrics["harness.late_ms.tail"] = lt.Tail
	r.Metrics["converge_ms"] = medianOf(conv)

	// Ladder: three searches, each with its own requests; the second and
	// third search a bracket around the first's answer, and below it if
	// nothing in the bracket passes. max_rps is their median.
	probeD := e.seconds / 20
	first, p := h.search(e.seed*104729, -1, ladderSteps, probeD, &all)
	if first < 0 {
		return nil, fmt.Errorf("no ladder rate met the %.0f ms tail limit", hotTailLimit)
	}
	found := []probe{p}
	for k := 1; k < 3; k++ {
		seed := e.seed*104729 + int64(1000*k)
		lo := max(first-8, -1)
		i, p := h.search(seed, lo, min(first+6, ladderSteps), probeD, &all)
		if i <= lo {
			if i, p = h.search(seed+500, -1, lo+1, probeD, &all); i < 0 {
				return nil, fmt.Errorf("no ladder rate met the %.0f ms tail limit", hotTailLimit)
			}
		}
		found = append(found, p)
	}
	slices.SortFunc(found, func(a, b probe) int { return cmp.Compare(a.rps, b.rps) })
	r.Metrics["max_rps"], r.Metrics["mb_s"] = found[1].rps, found[1].mbs

	r.Metrics["harness.timed_out_unsent"] = float64(h.unsent)
	if h.unsent > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("%d requests timed out unsent; their latency is the time they waited", h.unsent))
	}
	tiers := map[string]int64{}
	var httpMS []float64
	tierMS := map[string][]float64{}
	for _, o := range all {
		if o.ok {
			tiers[o.tier]++
			rtt := float64((o.done - o.sent).Nanoseconds()) / 1e6
			httpMS = append(httpMS, rtt-o.elapsedMS)
			tierMS[o.tier] = append(tierMS[o.tier], rtt)
		}
	}
	r.Metrics["f1"] = f1Of(h.refs)
	if r.Metrics["rss_mb"], err = h.srv.hwmMB(); err != nil {
		return nil, err
	}
	var served int64
	for _, n := range tiers {
		served += n
	}
	for tier, n := range tiers {
		r.Shares["tier."+tier] = ratio(float64(n), float64(served))
	}
	if !e.trace {
		return r, nil
	}

	m := r.Metrics
	tierShares(m, tiers, served)
	m["funseekerd.http_ms.p50"] = medianOf(httpMS)
	for _, tier := range []string{"lru", "store", "cold"} {
		m["funseekerd.tier_ms."+tier] = medianOf(tierMS[tier])
	}
	qw := queue1.minus(queue0)
	m["engine.queue_wait_ms.p50"] = 1e3 * qw.quantile(0.5)
	m["engine.queue_wait_ms.tail"] = 1e3 * qw.quantile(1-minBeyond/max(qw.count(), minBeyond+1))
	keys := h.keys[max(len(h.keys)-64, 0):]
	if err := resultCalls(h.c, h.srv, h.srv, keys, m); err != nil {
		return nil, err
	}
	h.srv.stop()
	if err := storeCalls(filepath.Join(dir, "store"), filepath.Join(dir, "store-copy"), m); err != nil {
		return nil, err
	}
	return r, layerPass(h.pool, filepath.Join(dir, "layer-store"), m)
}

// converge sends n never-seen requests one at a time and times, for
// each, how long after the response the node's store serves the result.
func (h *hotState) converge(n int) ([]float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		h.stamps++
		rank := int(h.stamps*37) % len(h.pool)
		im := h.pool[rank]
		raw := stamp(nil, im.Raw, 1<<32+h.stamps)
		a, key, err := postAnalyze(h.c, h.srv.url, raw, im.Config)
		h.r.Attempted++
		if err != nil || entriesHash(a.Entries) != h.refs[rank].hash || key == "" {
			h.r.fail("%s: converge request: %v", im.Name, err)
			continue
		}
		h.keys = append(h.keys, key)
		t0 := time.Now()
		if err := h.srv.awaitResult(h.c, key, t0.Add(5*time.Second)); err != nil {
			return nil, fmt.Errorf("%s: %w", im.Name, err)
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return xs, nil
}

// resultCalls times GET /v1/result on from and PUT /v1/result of the
// same value on to, for each of keys.
func resultCalls(c *http.Client, from, to *proc, keys []string, m map[string]float64) error {
	var gets, puts []float64
	for _, k := range keys {
		t0 := time.Now()
		resp, err := c.Get(from.url + "/v1/result?key=" + k)
		if err != nil {
			return err
		}
		val, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /v1/result: status %d, %v", resp.StatusCode, err)
		}
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e6)
		req, err := http.NewRequest(http.MethodPut, to.url+"/v1/result?key="+k, bytes.NewReader(val))
		if err != nil {
			return err
		}
		t0 = time.Now()
		resp, err = c.Do(req)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("PUT /v1/result: status %d, %v", resp.StatusCode, err)
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m["funseekerd.result_get_ms.p50"] = medianOf(gets)
	m["funseekerd.result_put_ms.p50"] = medianOf(puts)
	return nil
}
