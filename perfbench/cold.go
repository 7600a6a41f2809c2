package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/funseeker/funseeker/internal/engine"
)

// entriesHash fingerprints an entry list for the identical-output check.
func entriesHash(entries []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, e := range entries {
		for i := range b {
			b[i] = byte(e >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// reference is an image's first cold result: every later result for
// the same image must have the same entries, so it scores the same.
type reference struct {
	hash  uint64
	score prf
}

func newReference(entries []uint64, truth []uint64) reference {
	return reference{entriesHash(entries), score(entries, truth)}
}

// f1Of is the micro-F1 of a workload's distinct images. Every response
// must equal its image's reference or it fails the run, so this is the
// score of every response without the jitter of how often each image
// happened to be requested: a seed always gives the same f1.
func f1Of(refs []reference) float64 {
	var p prf
	for _, ref := range refs {
		p.add(ref.score)
	}
	return p.f1()
}

// coldCacheBytes is corpus-cold's result-cache budget: small enough
// that the cache is full, and evicting, within the first second, so
// memory and allocation figures are those of a steady state and do not
// grow with the run's length.
const coldCacheBytes = 8 << 20

// coldSetup generates the corpus, builds an engine with nproc workers
// as the funseeker -jobs corpus mode does, and warms it with one pass over the
// corpus, whose results become the references.
func coldSetup(e *env) ([]*image, *engine.Engine, []reference, error) {
	ims, err := generate(coldSlots, e.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := engine.New(engine.Config{Jobs: e.nproc, CacheBytes: coldCacheBytes})
	if err != nil {
		return nil, nil, nil, err
	}
	refs := make([]reference, len(ims))
	for i, im := range ims {
		res, err := eng.Analyze(context.Background(), im.Raw, optsFor(im.Config))
		if err != nil {
			eng.Close()
			return nil, nil, nil, fmt.Errorf("warm-up %s: %w", im.Name, err)
		}
		refs[i] = newReference(res.Report.Entries, im.Truth)
	}
	return ims, eng, refs, nil
}

// coldLoop is one closed-loop measurement: nproc callers each analyze
// the next corpus image as soon as their previous one returns. Pass p
// over the corpus stamps p into every image, so no image is ever seen
// twice and the result cache never hits.
type coldLoop struct {
	lat       [][]float64 // per-op Analyze latency, ms, per segment
	queue     []float64   // caller wait minus Result.Elapsed, ms
	bytes     int64
	ops       int64
	elapsed   time.Duration
	allocated uint64
	sources   map[string]int64
}

// coldSegment is how long the closed loop runs between two rounds of
// converge samples; latency is summarized per segment.
const coldSegment = 2 * time.Second

func runColdLoop(e *env, r *report, eng *engine.Engine, ims []*image, refs []reference,
	d time.Duration, between func()) *coldLoop {
	out := &coldLoop{sources: map[string]int64{}}
	var (
		next atomic.Int64
		mu   sync.Mutex
	)
	next.Store(int64(len(ims))) // pass 0 is the set-up's
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for seg := 0; out.elapsed < d; seg++ {
		out.lat = append(out.lat, nil)
		start := time.Now()
		deadline := start.Add(min(coldSegment, d-out.elapsed))
		var wg sync.WaitGroup
		for w := 0; w < e.nproc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []byte
				for time.Now().Before(deadline) {
					n := next.Add(1) - 1
					i := int(n % int64(len(ims)))
					im := ims[i]
					buf = stamp(buf, im.Raw, uint64(n/int64(len(ims))))
					t0 := time.Now()
					res, err := eng.Analyze(context.Background(), buf, optsFor(im.Config))
					wait := time.Since(t0)
					mu.Lock()
					out.ops++
					out.lat[seg] = append(out.lat[seg], float64(wait.Nanoseconds())/1e6)
					switch {
					case err != nil:
						r.fail("%s: %v", im.Name, err)
					case entriesHash(res.Report.Entries) != refs[i].hash:
						r.fail("%s: entries differ from the cold reference", im.Name)
					default:
						out.bytes += int64(len(buf))
						src := res.CacheSource
						if src == "" {
							src = "cold"
							out.queue = append(out.queue, float64((wait-res.Elapsed).Nanoseconds())/1e6)
						}
						out.sources[src]++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		out.elapsed += time.Since(start)
		runtime.ReadMemStats(&ms1)
		out.allocated += ms1.TotalAlloc - ms0.TotalAlloc
		between()
		runtime.ReadMemStats(&ms0)
	}
	return out
}

func (l *coldLoop) mbs() float64 { return float64(l.bytes) / 1e6 / l.elapsed.Seconds() }

// resetPeakRSS restarts the kernel's VmHWM accounting for this process,
// so rss_mb covers the measurement and not the corpus generation.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func runCorpusCold(e *env) (*report, error) {
	r := newReport("corpus-cold", e)
	var (
		setups []float64
		ims    []*image
		eng    *engine.Engine
		refs   []reference
	)
	for i := 0; i < setupReps; i++ {
		if eng != nil {
			eng.Close()
		}
		t0 := time.Now()
		var err error
		ims, eng, refs, err = coldSetup(e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer eng.Close()
	r.Metrics["setup_s"] = medianOf(setups)
	r.inputShares(ims)
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting peak RSS: %w", err)
	}

	// The loop runs untraced; the per-layer numbers come from layerPass.
	var conv []float64
	round := uint64(0)
	loop := runColdLoop(e, r, eng, ims, refs, e.seconds, func() {
		round++
		conv = append(conv, lruVisible(eng, ims, refs, r, round)...)
	})
	r.Attempted += loop.ops
	t, err := r.windowLatency("op_ms", loop.lat)
	if err != nil {
		return nil, err
	}
	hwm, err := vmHWM("/proc/self/status")
	if err != nil {
		return nil, err
	}
	r.Metrics["mb_s"] = loop.mbs()
	r.Metrics["p50_ms"] = t.P50
	r.Metrics["tail_ms"] = t.Tail
	r.Metrics["max_rps"] = float64(loop.ops) / loop.elapsed.Seconds()
	r.Metrics["f1"] = f1Of(refs)
	r.Metrics["alloc_b_per_b"] = ratio(float64(loop.allocated), float64(loop.bytes))
	r.Metrics["rss_mb"] = hwm
	r.Metrics["converge_ms"] = medianOf(conv)
	for src, n := range loop.sources {
		r.Shares["tier."+src] = ratio(float64(n), float64(loop.ops))
	}
	if !e.trace {
		return r, nil
	}

	q, err := r.latency("queue_wait_ms", loop.queue)
	if err != nil {
		return nil, err
	}
	m := r.Metrics
	m["engine.queue_wait_ms.p50"] = q.P50
	m["engine.queue_wait_ms.tail"] = q.Tail
	tierShares(m, loop.sources, loop.ops)
	dir, err := workDir(e.root, "corpus-cold")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "layer-store")
	if err := layerPass(ims, storeDir, m); err != nil {
		return nil, err
	}
	return r, storeCalls(storeDir, filepath.Join(dir, "store-copy"), m)
}

// lruVisible samples corpus mode's converge time: after a fresh
// image's analysis returns, how long a second request for it takes to
// be answered from the engine's result cache. One sample per image;
// round makes each call's images never-seen.
func lruVisible(eng *engine.Engine, ims []*image, refs []reference, r *report, round uint64) []float64 {
	var xs []float64
	var buf []byte
	for i, im := range ims {
		buf = stamp(buf, im.Raw, 1<<40+round<<16+uint64(i))
		r.Attempted += 2
		res, err := eng.Analyze(context.Background(), buf, optsFor(im.Config))
		if err != nil || entriesHash(res.Report.Entries) != refs[i].hash {
			r.fail("%s: fresh analysis differs from the cold reference (%v)", im.Name, err)
			continue
		}
		t0 := time.Now()
		res, err = eng.Analyze(context.Background(), buf, optsFor(im.Config))
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil || res.CacheSource != "lru" || entriesHash(res.Report.Entries) != refs[i].hash {
			r.fail("%s: repeat request not served from the LRU with the cold entries (%v)", im.Name, err)
		}
	}
	return xs
}

// tierShares records which tier served each result, as fractions.
func tierShares(m map[string]float64, sources map[string]int64, ops int64) {
	for _, tier := range []string{"lru", "store", "cold", "coalesced"} {
		m["engine."+tier+"_share"] = ratio(float64(sources[tier]), float64(ops))
	}
}
