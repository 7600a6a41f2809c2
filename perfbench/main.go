// Command perfbench is funseeker's benchmark. It generates seeded synth
// inputs, drives one named workload against the program, checks every
// output against ground truth, and prints each metric by name and unit;
// the last line of standard output is a JSON summary.
//
//	bash perfbench/run.sh --workload corpus-cold --seed 1 --seconds 10 --trace 0
//
// run.sh builds this command, funseekerd and funseeker-lb from the
// checkout first, so no compilation is timed. With --trace 1 the
// summary carries the per-layer metrics instead of the end-to-end ones.
// -out writes the full report, host fingerprint included, to a file;
// "perfbench compare old.json new.json" compares two such reports and
// refuses when they come from different hosts.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 3

// env is what a workload needs from the command line.
type env struct {
	root    string // checkout root; all state lives under .bench_build
	bin     string // directory holding funseekerd and funseeker-lb
	seed    int64
	seconds time.Duration
	trace   bool
	nproc   int
}

// report is one run's full outcome.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Host      fingerprint        `json:"host"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Tails     map[string]tail    `json:"tails"`
	Shares    map[string]float64 `json:"shares"`
	Notes     []string           `json:"notes,omitempty"`
}

func newReport(workload string, e *env) *report {
	return &report{
		Workload: workload, Seed: e.seed, Trace: e.trace, Host: hostFingerprint(),
		Metrics: map[string]float64{}, Tails: map[string]tail{}, Shares: map[string]float64{},
	}
}

// latency records the median and tail of xs (milliseconds) under name;
// it is an error to have too few samples for a tail.
func (r *report) latency(name string, xs []float64) (tail, error) {
	t, ok := summarize(xs)
	if !ok {
		return t, fmt.Errorf("%s: %d samples, need more than %d for a tail", name, len(xs), minBeyond)
	}
	r.Tails[name] = t
	return t, nil
}

// windowLatency records the median and tail of each window of samples
// and returns the median over windows of both, so a stall of the shared
// host moves one window rather than the result. The pooled figures of
// all samples are recorded beside it.
func (r *report) windowLatency(name string, windows [][]float64) (tail, error) {
	var p50s, tails, pooled []float64
	var w tail
	for i, xs := range windows {
		pooled = append(pooled, xs...)
		t, ok := summarize(xs)
		if !ok {
			return t, fmt.Errorf("%s window %d: %d samples, need more than %d for a tail", name, i, len(xs), minBeyond)
		}
		p50s, tails, w = append(p50s, t.P50), append(tails, t.Tail), t
	}
	w.P50, w.Tail = medianOf(p50s), medianOf(tails)
	r.Tails[name+".window_median"] = w
	_, err := r.latency(name+".pooled", pooled)
	return w, err
}

// fail counts a failed op and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, "FAIL "+fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*report, error){
	"corpus-cold":   runCorpusCold,
	"analyze-hot":   runAnalyzeHot,
	"cluster-batch": runClusterBatch,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		workload = flag.String("workload", "", "workload: corpus-cold, analyze-hot or cluster-batch")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measurement length in seconds")
		trace    = flag.Int("trace", 0, "1 reports the traced per-layer metrics")
		root     = flag.String("root", ".", "checkout root")
		bin      = flag.String("bin", "", "directory with the funseekerd and funseeker-lb binaries (default <root>/.bench_build/bin)")
		out      = flag.String("out", "", "also write the full report as JSON to this file")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}
	e := &env{root: *root, bin: *bin, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, nproc: runtime.NumCPU()}
	if e.bin == "" {
		e.bin = filepath.Join(e.root, ".bench_build", "bin")
	}
	// A signal stops and reaps every server before exiting; Pdeathsig
	// covers a harness that dies without one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	type outcome struct {
		r   *report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := fn(e)
		done <- outcome{r, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-ctx.Done():
		stopAll()
		return 1, errors.New("interrupted")
	}
	if o.err != nil {
		return 1, o.err
	}
	r := o.r
	if *out != "" {
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	if err := printReport(os.Stdout, r); err != nil {
		return 1, err
	}
	if r.Failed > 0 {
		return 1, fmt.Errorf("%d of %d ops failed the output check", r.Failed, r.Attempted)
	}
	return 0, nil
}

// printReport writes the human-readable report and, last, the JSON
// summary. A metric that is not a finite number has no JSON form: the
// summary is then left out and an error returned, so a broken figure
// fails the run instead of printing an empty result.
func printReport(out io.Writer, r *report) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v\n", r.Workload, r.Seed, r.Trace)
	fmt.Fprintf(w, "host: %s\n", r.Host)
	fmt.Fprintf(w, "ops: attempted=%d failed=%d fail_ratio=%.6f\n", r.Attempted, r.Failed,
		ratio(float64(r.Failed), float64(r.Attempted)))
	for _, k := range sortedKeys(r.Shares) {
		fmt.Fprintf(w, "share %-24s %.4f\n", k, r.Shares[k])
	}
	for _, k := range sortedKeys(r.Tails) {
		t := r.Tails[k]
		fmt.Fprintf(w, "latency %-22s p50=%.3f tail=%.3f (p%.2f of %d samples)\n", k, t.P50, t.Tail, t.Pct, t.Count)
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	summary := map[string]any{}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		fmt.Fprintf(w, "%-34s %14.6f %-6s moves/means: %s\n", d.Name, v, d.Unit, d.Moves)
		summary[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	for _, k := range sortedKeys(r.Metrics) {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == k }) {
			fmt.Fprintf(w, "extra %-28s %14.6f\n", k, r.Metrics[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   summary,
	})
	if err == nil {
		fmt.Fprintf(w, "%s\n", line)
	}
	return errors.Join(err, w.Flush())
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// fingerprint identifies the host and toolchain a result was measured
// with; results are only comparable between equal fingerprints.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOAMD64    string `json:"goamd64"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s goamd64=%s", f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.GOAMD64)
}

func hostFingerprint() fingerprint {
	f := fingerprint{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), GOAMD64: "n/a"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				f.GOAMD64 = s.Value
			}
		}
	}
	return f
}

// compare prints old and new metric values side by side. Numbers from
// different hosts or toolchains say nothing about the code, so it
// refuses to compare across fingerprints.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare old.json new.json")
	}
	var rs [2]report
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if rs[0].Host != rs[1].Host {
		return fmt.Errorf("refusing to compare across hosts:\n  old: %s\n  new: %s", rs[0].Host, rs[1].Host)
	}
	if rs[0].Workload != rs[1].Workload || rs[0].Trace != rs[1].Trace {
		return fmt.Errorf("refusing to compare %s (trace=%v) with %s (trace=%v)",
			rs[0].Workload, rs[0].Trace, rs[1].Workload, rs[1].Trace)
	}
	for _, k := range sortedKeys(rs[0].Metrics) {
		o, n := rs[0].Metrics[k], rs[1].Metrics[k]
		fmt.Printf("%-34s %14.6f %14.6f %8.3fx\n", k, o, n, ratio(n, o))
	}
	return nil
}
