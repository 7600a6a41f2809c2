package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/engine"
	"github.com/funseeker/funseeker/internal/store"
)

// optsFor maps a FunSeeker configuration number to engine options.
func optsFor(config int) core.Options {
	if config == 5 {
		return core.Config5
	}
	return core.Config4
}

// layerPass replays a workload's distinct inputs through each layer's
// public functions on one goroutine, with a span around every call:
// engine.Analyze on a fresh image, then the same image through
// elfx.Load, the analysis stages the engine would run for its
// configuration, and core.IdentifyCtx on the built context. The same
// replay also runs bare, without spans or allocation reads, as the
// baseline of harness.trace_overhead. It fills the elfx, analysis,
// core, engine.self, engine.hit and harness.trace_overhead metrics into
// m. The engine writes its results through to a store in storeDir.
func layerPass(ims []*image, storeDir string, m map[string]float64) error {
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	eng, err := engine.New(engine.Config{Jobs: 1, Store: st})
	if err != nil {
		return err
	}
	defer eng.Close()

	ctx := context.Background()
	tr := newTracer()
	var (
		mbAll, mbSmall, mbLarge   float64
		sweepAlloc, identifyAlloc uint64
		sweepSmall, sweepLarge    time.Duration
		bare                      time.Duration // replay time without tracing
		entries, kept, jumps      int
		hits                      []float64
		buf                       []byte
		ms0, ms1                  runtime.MemStats
		allocsAround              = func(f func()) uint64 {
			runtime.ReadMemStats(&ms0)
			f()
			runtime.ReadMemStats(&ms1)
			return ms1.TotalAlloc - ms0.TotalAlloc
		}
	)
	for i, im := range ims {
		buf = stamp(buf, im.Raw, 1<<48+uint64(i)) // never seen by this engine
		opts := optsFor(im.Config)
		mb := float64(len(buf)) / 1e6
		mbAll += mb

		viaEngine := func() error {
			id := tr.begin("engine.Analyze", i, -1)
			res, err := eng.Analyze(ctx, buf, opts)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", im.Name, err)
			}
			if res.CacheSource != "" {
				return fmt.Errorf("%s: layer pass expected a cold analysis, got %q", im.Name, res.CacheSource)
			}
			t0 := time.Now()
			hit, err := eng.Analyze(ctx, buf, opts)
			hits = append(hits, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil || hit.CacheSource != "lru" {
				return fmt.Errorf("%s: repeat analysis was not an LRU hit (%v)", im.Name, err)
			}
			return nil
		}
		// replay runs the image through the layer calls. With a tracer it
		// records a span around each call and the sweep and identify
		// allocations, and adds to the layer figures; with nil it only
		// does the calls.
		replay := func(t *tracer) error {
			root := t.begin("replay", i, -1)
			defer t.end(root)
			measure := func(f func()) uint64 {
				if t == nil {
					f()
					return 0
				}
				return allocsAround(f)
			}
			var bin *elfx.Binary
			var err error
			id := t.begin("elfx.Load", i, root)
			bin, err = elfx.Load(buf)
			t.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", im.Name, err)
			}
			actx := analysis.NewContext(bin)
			var sw *analysis.Sweep
			var sweepDur time.Duration
			sweepA := measure(func() {
				id := t.begin("analysis.sweep", i, root)
				t0 := time.Now()
				sw, err = actx.SweepCtx(ctx)
				sweepDur = time.Since(t0)
				t.end(id)
			})
			if err != nil {
				return fmt.Errorf("%s: %w", im.Name, err)
			}
			// FILTERENDBR (configurations 4 and 5) needs the FDEs and the
			// landing pads; only configuration 5 builds the FDE index.
			id = t.begin("analysis.eh_parse", i, root)
			_, ehErr := actx.FDEs()
			t.end(id)
			id = t.begin("analysis.landing_pad", i, root)
			_, padErr := actx.LandingPads()
			t.end(id)
			if opts.FuseEH {
				id = t.begin("analysis.fde_index", i, root)
				_, _ = actx.FDEIndex() // core reports an unreadable index as a warning
				t.end(id)
			}
			if ehErr != nil || padErr != nil {
				return fmt.Errorf("%s: exception metadata: %v %v", im.Name, ehErr, padErr)
			}
			var rep *core.Report
			identifyA := measure(func() {
				id := t.begin("core.identify", i, root)
				rep, err = core.IdentifyCtx(ctx, actx, opts)
				t.end(id)
			})
			if err != nil {
				return fmt.Errorf("%s: %w", im.Name, err)
			}
			if t == nil {
				return nil
			}
			if im.large() {
				sweepLarge += sweepDur
				mbLarge += mb
			} else {
				sweepSmall += sweepDur
				mbSmall += mb
			}
			sweepAlloc += sweepA
			identifyAlloc += identifyA
			entries += len(rep.Entries)
			kept += len(rep.TailCallTargets)
			jumps += len(sw.JumpRefs)
			return nil
		}
		bareReplay := func() error {
			t0 := time.Now()
			err := replay(nil)
			bare += time.Since(t0)
			return err
		}
		// Rotate which step runs first so none always finds the image
		// already in the CPU caches.
		steps := []func() error{viaEngine, func() error { return replay(tr) }, bareReplay}
		k := i % len(steps)
		steps = append(steps[k:], steps[:k]...)
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
	}

	tot, self := tr.totals(), tr.selfTimes()
	msPer := func(d time.Duration, mb float64) float64 { return ratio(float64(d.Nanoseconds())/1e6, mb) }
	layers := tot["elfx.Load"] + tot["analysis.sweep"] + tot["analysis.eh_parse"] +
		tot["analysis.landing_pad"] + tot["analysis.fde_index"] + tot["core.identify"]
	m["elfx.load_ms_per_mb"] = msPer(tot["elfx.Load"], mbAll)
	m["analysis.sweep_ms_per_mb.small"] = msPer(sweepSmall, mbSmall)
	m["analysis.sweep_ms_per_mb.large"] = msPer(sweepLarge, mbLarge)
	m["analysis.sweep_alloc_b_per_b"] = ratio(float64(sweepAlloc), mbAll*1e6)
	m["analysis.eh_parse_ms_per_mb"] = msPer(tot["analysis.eh_parse"], mbAll)
	m["analysis.landing_pad_ms_per_mb"] = msPer(tot["analysis.landing_pad"], mbAll)
	m["analysis.fde_index_ms_per_mb"] = msPer(tot["analysis.fde_index"], mbAll)
	m["core.identify_self_ms_per_mb"] = msPer(self["core.identify"], mbAll)
	m["core.identify_alloc_b_per_b"] = ratio(float64(identifyAlloc), mbAll*1e6)
	m["core.entries"] = float64(entries)
	m["core.tail_accept_ratio"] = ratio(float64(kept), float64(jumps))
	m["engine.self_ms_per_mb"] = msPer(tot["engine.Analyze"]-layers, mbAll)
	m["engine.hit_us"] = medianOf(hits)
	m["harness.trace_overhead"] = ratio(float64(tot["replay"]), float64(bare))
	// For the record: the layer spans plus engine.self are the traced
	// engine.Analyze wall time by construction; the replay's own self
	// time is the harness glue between layer calls.
	m["trace.engine_ms_per_mb"] = msPer(tot["engine.Analyze"], mbAll)
	m["trace.layers_ms_per_mb"] = msPer(layers, mbAll)
	m["trace.replay_self_ms_per_mb"] = msPer(self["replay"], mbAll)
	if err := eng.Close(); err != nil {
		return err
	}
	return st.Close()
}

// storeCalls copies every record of the store in src, with its real keys
// and values, into a fresh store at dst through direct Put calls, reads
// each back with Get, and records the median latency of each call.
func storeCalls(src, dst string, m map[string]float64) error {
	st, err := store.Open(src, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	type rec struct{ k, v []byte }
	var recs []rec
	if err := st.ReadAll(func(k, v []byte) error {
		recs = append(recs, rec{append([]byte(nil), k...), append([]byte(nil), v...)})
		return nil
	}); err != nil {
		return err
	}
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	cp, err := store.Open(dst, store.Options{})
	if err != nil {
		return err
	}
	defer cp.Close()
	puts := make([]float64, 0, len(recs))
	for _, r := range recs {
		t0 := time.Now()
		if err := cp.Put(r.k, r.v); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	gets := make([]float64, 0, len(recs))
	for _, r := range recs {
		t0 := time.Now()
		_, ok, err := cp.Get(r.k)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil || !ok {
			return fmt.Errorf("store copy lost a record (%v)", err)
		}
	}
	m["store.put_us.p50"] = medianOf(puts)
	m["store.get_us.p50"] = medianOf(gets)
	return cp.Close()
}
