package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/engine"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 100, 1000, 1301} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so summarize must sort
		}
		s, ok := summarize(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, minBeyond)
		}
		if want := 100 * float64(n-minBeyond) / float64(n); math.Abs(s.Pct-want) > 1e-9 || s.Count != n {
			t.Errorf("n=%d: pct %.4f count %d, want %.4f %d", n, s.Pct, s.Count, want, n)
		}
	}
	s, _ := summarize([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11, 12})
	if s.P50 != 6.5 || s.Tail != 2 || s.Pct != 200.0/12 {
		t.Errorf("12 samples: got %+v", s)
	}
	if _, ok := summarize(make([]float64, minBeyond)); ok {
		t.Error("a sample of minBeyond values must have no tail")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	parent := span{Start: ms(0), End: ms(100)}
	children := []span{
		{Start: ms(30), End: ms(60)},
		{Start: ms(10), End: ms(40)},  // overlaps the first: [10,60] covered once
		{Start: ms(90), End: ms(120)}, // clipped to [90,100]
		{Start: ms(-5), End: ms(2)},   // clipped to [0,2]
		{Start: ms(50), End: ms(55)},  // inside [10,60]
	}
	if got, want := selfTime(parent, children), ms(100-50-10-2); got != want {
		t.Errorf("self time %v, want %v", got, want)
	}

	tr := newTracer()
	root := tr.begin("root", 0, -1)
	a := tr.begin("a", 0, root)
	b := tr.begin("b", 0, root)
	tr.end(a)
	tr.end(b)
	tr.end(root)
	self, tot := tr.selfTimes(), tr.totals()
	if self["root"] < 0 || self["root"] > tot["root"] {
		t.Errorf("root self %v outside [0, %v]", self["root"], tot["root"])
	}
	if covered := tot["root"] - self["root"]; covered > tot["a"]+tot["b"] {
		t.Errorf("children cover %v of the root, more than their summed %v", covered, tot["a"]+tot["b"])
	}
}

func TestMicroF1(t *testing.T) {
	p := score([]uint64{1, 2, 3, 5}, []uint64{2, 3, 4})
	if p != (prf{TP: 2, FP: 2, FN: 1}) {
		t.Fatalf("score: %+v", p)
	}
	if got, want := p.f1(), 4.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("f1 %v, want %v", got, want)
	}
	// Micro-F1 pools the counts: a perfect small result and a poor
	// large one average to less than the mean of their F1s.
	var micro prf
	micro.add(score([]uint64{1}, []uint64{1}))
	micro.add(score([]uint64{10, 11, 12, 13}, []uint64{10, 20, 21, 22}))
	if got, want := micro.f1(), 4.0/10; math.Abs(got-want) > 1e-12 {
		t.Errorf("micro-F1 %v, want %v", got, want)
	}
	if (prf{}).f1() != 0 {
		t.Error("empty score must have F1 0")
	}
}

func TestZipfDrawIsFixedBySeed(t *testing.T) {
	a, b := zipfDraws(7, 500, 128, hotZipfS), zipfDraws(7, 500, 128, hotZipfS)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different draws")
	}
	if reflect.DeepEqual(a, zipfDraws(8, 500, 128, hotZipfS)) {
		t.Error("different seeds, same draws")
	}
	counts := make([]int, 128)
	for _, r := range a {
		if r < 0 || r >= 128 {
			t.Fatalf("rank %d outside the pool", r)
		}
		counts[r]++
	}
	if counts[0] <= counts[64] {
		t.Errorf("rank 0 drawn %d times, rank 64 %d: not skewed", counts[0], counts[64])
	}
}

func TestScheduleIsFixedBySeed(t *testing.T) {
	h := &hotState{pool: make([]*image, 128)}
	a := h.schedule(3, 500, time.Second)
	h.stamps = 0
	b := h.schedule(3, 500, time.Second)
	if !reflect.DeepEqual(a, b) || len(a) != 500 {
		t.Fatalf("schedules differ or have the wrong length (%d)", len(a))
	}
	fresh := 0
	for _, q := range a {
		if q.fresh != 0 {
			fresh++
		}
	}
	if fresh != 500/hotFreshEvery {
		t.Errorf("%d never-seen requests, want %d", fresh, 500/hotFreshEvery)
	}
}

// TestUnsentRequestsKeepTheSummary feeds a fixed-rate window in which
// the generator fell behind and gave requests up unsent through the
// summary path: the tail must stay a finite number, no lower than the
// time the unsent requests waited, and the JSON line must be printed.
func TestUnsentRequestsKeepTheSummary(t *testing.T) {
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	var windows [][]float64
	for w := 0; w < 3; w++ {
		outs := make([]hotOut, 40)
		for i := range outs {
			due := ms(float64(2 * i))
			outs[i] = hotOut{due: due, done: due + ms(1), ok: true}
		}
		if w == 1 {
			for i := 20; i < 40; i++ { // timed out after a 1.5 s stall
				outs[i].ok, outs[i].done = false, ms(1500)
			}
			outs[39].abandoned = true // not attempted: left out
		}
		windows = append(windows, latencies(outs))
	}
	if n := len(windows[1]); n != 39 {
		t.Fatalf("stalled window has %d latencies, want 39", n)
	}
	r := newReport("analyze-hot", &env{})
	got, err := r.windowLatency("fixed_rate_ms", windows)
	if err != nil {
		t.Fatal(err)
	}
	pooled := r.Tails["fixed_rate_ms.pooled"]
	if got.Tail != 1 || math.IsInf(pooled.Tail, 0) || pooled.Tail < 1500-2*38 {
		t.Fatalf("window tail %v, pooled tail %v: want 1 and at least the stall's wait", got.Tail, pooled.Tail)
	}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = 1
	}
	r.Metrics["p50_ms"], r.Metrics["tail_ms"] = got.P50, pooled.Tail
	var buf bytes.Buffer
	if err := printReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var sum struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if !sum.Correct || sum.Metrics["tail_ms"].Value != pooled.Tail {
		t.Errorf("summary %+v, want correct with tail_ms %v", sum, pooled.Tail)
	}

	// A figure with no JSON form must fail the run, not print a result.
	r.Metrics["tail_ms"] = math.Inf(1)
	buf.Reset()
	if err := printReport(&buf, r); err == nil {
		t.Error("an infinite metric printed without an error")
	}
	if bytes.Contains(buf.Bytes(), []byte(`"correct"`)) {
		t.Error("an infinite metric still printed a summary line")
	}
}

func TestCorpusIsFixedBySeed(t *testing.T) {
	slots := []slot{
		{corpus.Coreutils, false, 40, x64},
		{corpus.SPEC, true, 60, x32},
		{corpus.Coreutils, false, 40, arm64BTI},
		{corpus.SPEC, true, 60, x64NoCET},
	}
	a, err := generate(slots, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(slots, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(slots, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name || !bytes.Equal(a[i].Raw, b[i].Raw) || !reflect.DeepEqual(a[i].Truth, b[i].Truth) {
			t.Errorf("slot %d: same seed, different image", i)
		}
		if bytes.Equal(a[i].Raw, c[i].Raw) {
			t.Errorf("slot %d: different seeds, same image", i)
		}
		sp, err := specFor(slots[i], 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(sp.Funcs) != slots[i].Funcs || (sp.Lang.String() == "c++") != slots[i].CPP {
			t.Errorf("slot %d: spec has %d funcs, lang %v", i, len(sp.Funcs), sp.Lang)
		}
	}
	if a[3].Config != 5 || a[0].Config != 4 {
		t.Errorf("configs %d, %d: -nocet images need configuration 5", a[3].Config, a[0].Config)
	}
}

func TestStampedCopyAnalyzesIdentically(t *testing.T) {
	ims, err := generate([]slot{{corpus.SPEC, true, 60, x64}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	a, err := eng.Analyze(context.Background(), ims[0].Raw, optsFor(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Analyze(context.Background(), stamp(nil, ims[0].Raw, 99), optsFor(4))
	if err != nil {
		t.Fatal(err)
	}
	if b.CacheSource != "" || a.SHA256 == b.SHA256 {
		t.Errorf("stamped copy served from %q with hash equal=%v; want a cold miss", b.CacheSource, a.SHA256 == b.SHA256)
	}
	if entriesHash(a.Report.Entries) != entriesHash(b.Report.Entries) {
		t.Error("stamped copy analyzed differently")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := histogram{le: []float64{1, 2, 4, 1e300}, cum: []float64{10, 30, 40, 40}}
	if got := h.quantile(0.5); got != 1.5 {
		t.Errorf("median %v, want 1.5", got)
	}
	d := h.minus(histogram{le: h.le, cum: []float64{10, 10, 10, 10}})
	if d.count() != 30 || d.quantile(0.5) != 1.75 {
		t.Errorf("delta count %v median %v", d.count(), d.quantile(0.5))
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the harness prints from in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness %s %s %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}
