package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/funseeker/funseeker/internal/ring"
)

// batchMembers is the number of images in one cluster-batch upload.
const batchMembers = 6

// clusterCacheBytes is each node's result-cache budget. Every member is
// never-seen, so the cache only fills; a small budget is full and
// evicting within the first seconds, so memory and allocation figures
// are a steady state rather than a function of the run's length.
const clusterCacheBytes = 8 << 20

// clusterWindow is the span of batch latencies summarized together.
const clusterWindow = 4 * time.Second

// hopSamples is how many warm requests each side of lb.hop_ms takes.
const hopSamples = 40

// clusterState is the cluster-batch run: two funseekerd nodes, each
// with one worker and its own store, behind a funseeker-lb that keeps
// every result on both.
type clusterState struct {
	e      *env
	r      *report
	c      *http.Client
	nodes  [2]*proc
	lb     *proc
	base   []*image
	refs   []reference
	batchN int // batches uploaded so far; stamps never repeat
	// copied is the router's replica-write count once the last batch
	// had converged.
	copied float64
}

func (cs *clusterState) stop() {
	cs.lb.stop()
	cs.nodes[0].stop()
	cs.nodes[1].stop()
}

// batchOut is one upload's outcome.
type batchOut struct {
	latency   time.Duration // upload start to summary line
	serverMS  float64       // the summary's elapsed_ms
	gaps      []float64     // ms between consecutive member records
	memberMS  map[string][]float64
	keys      []string
	bytes     int
	converge  time.Duration // summary line until the router has copied every member
	completed bool
}

// upload sends the next batch of never-seen member images through the
// router and waits until both nodes' stores hold every member: the
// serving node stores a result before it streams the record, and the
// router counts a replica write once the sibling's PUT has returned.
// Polling the router's counter rather than the nodes keeps the wait out
// of the nodes' allocation figures. With
// checkCold every record must be a cold result equal to its member's
// reference; without it (set-up) the records become the references.
func (cs *clusterState) upload(checkCold bool) (*batchOut, error) {
	k := cs.batchN
	cs.batchN++
	var tarBuf bytes.Buffer
	tw := tar.NewWriter(&tarBuf)
	members := make([]int, batchMembers)
	out := &batchOut{memberMS: map[string][]float64{}}
	for j := range members {
		members[j] = (k*batchMembers + j) % len(cs.base)
		raw := stamp(nil, cs.base[members[j]].Raw, 1<<36+uint64(k))
		out.bytes += len(raw)
		if err := tw.WriteHeader(&tar.Header{Name: fmt.Sprintf("m%d", j), Mode: 0o644, Size: int64(len(raw))}); err != nil {
			return nil, err
		}
		if _, err := tw.Write(raw); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}

	t0 := time.Now()
	resp, err := cs.c.Post(cs.lb.url+"/v1/batch?config=4", "application/x-tar", &tarBuf)
	if err != nil {
		cs.r.fail("batch %d: %v", k, err)
		return out, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) // only quoted in the failure note
		cs.r.fail("batch %d: status %d: %s", k, resp.StatusCode, bytes.TrimSpace(body))
		return out, nil
	}
	br := bufio.NewReader(resp.Body)
	var prev time.Time
	seen := 0
	for {
		line, err := br.ReadBytes('\n')
		now := time.Now()
		if len(bytes.TrimSpace(line)) == 0 && err != nil {
			break
		}
		var rec struct {
			Index    int          `json:"index"`
			Error    string       `json:"error"`
			Result   *analyzeResp `json:"result"`
			StoreKey string       `json:"store_key"`
			Summary  bool         `json:"summary"`
			Items    int          `json:"items"`
			OK       int          `json:"ok"`
			Elapsed  float64      `json:"elapsed_ms"`
		}
		if jerr := json.Unmarshal(line, &rec); jerr != nil {
			cs.r.fail("batch %d: malformed record %q", k, line)
			return out, nil
		}
		if rec.Summary {
			out.latency, out.serverMS = now.Sub(t0), rec.Elapsed
			if rec.Items != batchMembers || rec.OK != batchMembers || seen != batchMembers {
				cs.r.fail("batch %d: summary items=%d ok=%d after %d records", k, rec.Items, rec.OK, seen)
				return out, nil
			}
			break
		}
		seen++
		if !prev.IsZero() {
			out.gaps = append(out.gaps, float64(now.Sub(prev).Nanoseconds())/1e6)
		}
		prev = now
		if rec.Index < 0 || rec.Index >= batchMembers || rec.Result == nil || rec.StoreKey == "" {
			cs.r.fail("batch %d: member record %q", k, line)
			return out, nil
		}
		m := members[rec.Index]
		tier := rec.Result.tier()
		switch {
		case entriesHash(rec.Result.Entries) != cs.refs[m].hash && checkCold:
			cs.r.fail("batch %d: member %d differs from its cold reference", k, rec.Index)
			return out, nil
		case tier != "cold" && checkCold:
			cs.r.fail("batch %d: never-seen member %d served from %s", k, rec.Index, tier)
			return out, nil
		}
		out.memberMS[tier] = append(out.memberMS[tier], rec.Result.ElapsedMS)
		out.keys = append(out.keys, rec.StoreKey)
		if !checkCold {
			cs.refs[m] = newReference(rec.Result.Entries, cs.base[m].Truth)
		}
		if err != nil {
			break
		}
	}
	if out.latency == 0 {
		cs.r.fail("batch %d: stream ended without a summary", k)
		return out, nil
	}
	done := t0.Add(out.latency)
	copied, err := cs.lb.awaitCount(cs.c, "funseekerlb_replica_writes_total", cs.copied+batchMembers, done.Add(10*time.Second))
	if err != nil {
		cs.r.fail("batch %d: %v", k, err)
		return out, nil
	}
	out.converge = time.Since(done)
	cs.copied = copied
	out.completed = true
	return out, nil
}

// setup generates the base set, starts the nodes and the router on
// fresh stores, and uploads every base image once; those cold results
// are the references.
func (cs *clusterState) setup(dir string) error {
	base, err := generate(batchSlots, cs.e.seed)
	if err != nil {
		return err
	}
	cs.base, cs.refs, cs.batchN, cs.copied = base, make([]reference, len(base)), 0, 0
	var urls []string
	for i := range cs.nodes {
		storeDir := filepath.Join(dir, fmt.Sprintf("node%d", i))
		if err := os.RemoveAll(storeDir); err != nil {
			return err
		}
		cs.nodes[i], err = startProc(fmt.Sprintf("funseekerd-%d", i), filepath.Join(cs.e.bin, "funseekerd"),
			"/v1/healthz", "-jobs", "1", "-store-dir", storeDir, "-cache-bytes", strconv.Itoa(clusterCacheBytes))
		if err != nil {
			return err
		}
		urls = append(urls, cs.nodes[i].url)
	}
	cs.lb, err = startProc("funseeker-lb", filepath.Join(cs.e.bin, "funseeker-lb"), "/v1/healthz",
		"-backends", strings.Join(urls, ","), "-replicas", "2")
	if err != nil {
		return err
	}
	for cs.batchN*batchMembers < len(base) {
		b, err := cs.upload(false)
		if err != nil {
			return err
		}
		if !b.completed {
			return fmt.Errorf("warm-up batch failed: %v", cs.r.Notes)
		}
	}
	return nil
}

func runClusterBatch(e *env) (*report, error) {
	cs := &clusterState{e: e, r: newReport("cluster-batch", e), c: newClient(e.nproc)}
	r := cs.r
	dir, err := workDir(e.root, "cluster-batch")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		cs.stop()
		t0 := time.Now()
		if err := cs.setup(dir); err != nil {
			cs.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer cs.stop()
	r.Metrics["setup_s"] = medianOf(setups)
	r.inputShares(cs.base)

	var alloc0, alloc1 [2]uint64
	var queue0, queue1 histogram
	for i, n := range cs.nodes {
		if alloc0[i], err = n.totalAlloc(cs.c); err != nil {
			return nil, err
		}
		h, err := n.promHistogram(cs.c, "funseeker_engine_queue_wait_seconds")
		if err != nil {
			return nil, err
		}
		queue0 = queue0.plus(h)
	}
	writes0, err := cs.lb.promSample(cs.c, "funseekerlb_replica_writes_total")
	if err != nil {
		return nil, err
	}

	var (
		conv, httpMS, gaps []float64
		memberMS           = map[string][]float64{}
		keys               []string
		batchKeys          [][]string
		bytesUp            int
		busy               time.Duration
		members            int
	)
	start := time.Now()
	deadline := start.Add(e.seconds)
	windows := max(int(e.seconds/clusterWindow), 1)
	lat := make([][]float64, windows) // batch latencies per clusterWindow
	for time.Now().Before(deadline) {
		w := min(int(time.Since(start)/clusterWindow), windows-1)
		b, err := cs.upload(true)
		if err != nil {
			return nil, err
		}
		r.Attempted++
		if !b.completed {
			continue
		}
		members += batchMembers
		bytesUp += b.bytes
		busy += b.latency
		lat[w] = append(lat[w], float64(b.latency.Nanoseconds())/1e6)
		conv = append(conv, float64(b.converge.Nanoseconds())/1e6)
		httpMS = append(httpMS, float64(b.latency.Nanoseconds())/1e6-b.serverMS)
		gaps = append(gaps, b.gaps...)
		keys = append(keys, b.keys...)
		batchKeys = append(batchKeys, b.keys)
		for tier, xs := range b.memberMS {
			memberMS[tier] = append(memberMS[tier], xs...)
		}
	}
	t, err := r.windowLatency("batch_ms", lat)
	if err != nil {
		return nil, err
	}
	writes1, err := cs.lb.promSample(cs.c, "funseekerlb_replica_writes_total")
	if err != nil {
		return nil, err
	}
	var allocated, rss float64
	for i, n := range cs.nodes {
		if alloc1[i], err = n.totalAlloc(cs.c); err != nil {
			return nil, err
		}
		allocated += float64(alloc1[i] - alloc0[i])
		h, err := n.promHistogram(cs.c, "funseeker_engine_queue_wait_seconds")
		if err != nil {
			return nil, err
		}
		queue1 = queue1.plus(h)
	}
	if err := cs.checkStored(batchKeys); err != nil {
		return nil, err
	}
	for _, p := range []*proc{cs.nodes[0], cs.nodes[1], cs.lb} {
		hwm, err := p.hwmMB()
		if err != nil {
			return nil, err
		}
		rss += hwm
	}
	r.Metrics["mb_s"] = float64(bytesUp) / 1e6 / busy.Seconds()
	r.Metrics["max_rps"] = float64(len(conv)) / busy.Seconds()
	r.Metrics["p50_ms"], r.Metrics["tail_ms"] = t.P50, t.Tail
	r.Metrics["f1"] = f1Of(cs.refs)
	r.Metrics["alloc_b_per_b"] = ratio(allocated, float64(bytesUp))
	r.Metrics["rss_mb"] = rss
	r.Metrics["converge_ms"] = medianOf(conv)
	r.Shares["tier.cold"] = ratio(float64(len(memberMS["cold"])), float64(members))
	if !e.trace {
		return r, nil
	}

	m := r.Metrics
	tiers := map[string]int64{}
	for tier, xs := range memberMS {
		tiers[tier] = int64(len(xs))
		m["funseekerd.tier_ms."+tier] = medianOf(xs)
	}
	tierShares(m, tiers, int64(members))
	m["funseekerd.http_ms.p50"] = medianOf(httpMS)
	m["funseekerd.batch_gap_ms.p50"] = medianOf(gaps)
	m["lb.replica_write_ratio"] = ratio(writes1-writes0, float64(members))
	qw := queue1.minus(queue0)
	m["engine.queue_wait_ms.p50"] = 1e3 * qw.quantile(0.5)
	m["engine.queue_wait_ms.tail"] = 1e3 * qw.quantile(1-minBeyond/max(qw.count(), minBeyond+1))
	keys = keys[max(len(keys)-64, 0):]
	if err := resultCalls(cs.c, cs.nodes[0], cs.nodes[1], keys, m); err != nil {
		return nil, err
	}
	if m["lb.hop_ms.p50"], err = cs.hop(); err != nil {
		return nil, err
	}
	cs.stop()
	if err := storeCalls(filepath.Join(dir, "node0"), filepath.Join(dir, "store-copy"), m); err != nil {
		return nil, err
	}
	return r, layerPass(cs.base, filepath.Join(dir, "layer-store"), m)
}

// checkStored lists both nodes' stores and fails every batch one of
// whose members either store lacks.
func (cs *clusterState) checkStored(batches [][]string) error {
	for _, n := range cs.nodes {
		have, err := n.storeKeys(cs.c)
		if err != nil {
			return err
		}
		for i, keys := range batches {
			if slices.ContainsFunc(keys, func(k string) bool { return !have[k] }) {
				cs.r.fail("completed batch %d: %s's store lacks a member", i, n.name)
			}
		}
	}
	return nil
}

// hop compares the same warm image sent through the router with it
// sent directly to its owner on the router's ring, alternating the two.
func (cs *clusterState) hop() (float64, error) {
	im := cs.base[0]
	rg := ring.New(0)
	for _, n := range cs.nodes {
		rg.Add(n.url)
	}
	sum := sha256.Sum256(im.Raw)
	owner, _ := rg.Lookup(sum[:])
	direct := cs.nodes[0]
	if owner == cs.nodes[1].url {
		direct = cs.nodes[1]
	}
	if _, _, err := postAnalyze(cs.c, cs.lb.url, im.Raw, im.Config); err != nil {
		return 0, err
	}
	var via, dir []float64
	for i := 0; i < hopSamples; i++ {
		for _, target := range []*proc{cs.lb, direct} {
			t0 := time.Now()
			a, _, err := postAnalyze(cs.c, target.url, im.Raw, im.Config)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			if err != nil {
				return 0, err
			}
			if a.tier() != "lru" || entriesHash(a.Entries) != cs.refs[0].hash {
				return 0, fmt.Errorf("hop probe via %s: %s result, want the owner's LRU", target.name, a.tier())
			}
			if target == cs.lb {
				via = append(via, ms)
			} else {
				dir = append(dir, ms)
			}
		}
	}
	return medianOf(via) - medianOf(dir), nil
}
