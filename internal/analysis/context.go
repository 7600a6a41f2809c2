// Package analysis provides the shared per-binary analysis context.
//
// Every identifier in this module — the four FunSeeker configurations and
// the IDA, Ghidra, and FETCH baseline models — starts from the same
// expensive artifacts: one linear-sweep disassembly of .text, the
// end-branch set E with its indirect-return annotations, the direct
// call/jump reference sets C and J, the parsed .eh_frame FDE records, and
// the exception landing-pad set. Before this package existed each tool
// recomputed them independently, so one evaluation cell did ~7× redundant
// work per binary.
//
// Context memoizes each artifact under sync.Once: it is computed exactly
// once per binary, on first demand, and every later consumer — including
// consumers on other goroutines — gets the cached value. All artifacts
// are immutable after construction, so a single Context is safe to share
// across the evaluation runner's worker pool. Per-stage wall-clock costs
// and hit/miss counts are recorded in Stats (see stats.go) so the runtime
// tables can report where time actually goes.
//
// The sweep itself is produced by an architecture Backend (see
// backend.go): x86/CET and AArch64/BTI today, dispatched from the ELF
// header. The memo is per-arch — forcing a foreign backend onto a binary
// (a test, or a caller second-guessing a corrupt header) computes and
// caches its own sweep without disturbing the native one.
package analysis

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/funseeker/funseeker/internal/arm64"
	"github.com/funseeker/funseeker/internal/ehframe"
	"github.com/funseeker/funseeker/internal/ehinfo"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// JumpRef records one direct jump instruction and its target.
type JumpRef struct {
	// Src is the address of the jump instruction.
	Src uint64
	// Target is the absolute destination.
	Target uint64
	// Cond reports whether the jump is conditional (Jcc). The AArch64
	// backend records unconditional jumps only, so it is always false
	// there.
	Cond bool
}

// Sweep carries everything one linear-sweep disassembly pass collects:
// the materialized instruction index plus the derived reference sets the
// identification algorithms consume. The reference-set vocabulary is
// backend-neutral — "end branch" means whatever landmark the ISA places
// at indirect-call targets (ENDBR on x86, call-accepting BTI/PACIASP
// pads on AArch64). All fields are populated once and must be treated as
// read-only.
type Sweep struct {
	// Arch is the backend that produced the sweep.
	Arch elfx.Arch

	// Index is the materialized x86 linear-sweep disassembly, nil when
	// another backend produced the sweep.
	Index *x86.Index
	// ARM64 is the materialized AArch64 sweep, nil for x86 backends.
	ARM64 *arm64.Index

	// Endbrs is E: every landmark address in .text, ascending.
	Endbrs []uint64
	// EndbrSet is Endbrs as a membership set.
	EndbrSet map[uint64]bool
	// AfterIRCall marks end-branch addresses immediately preceded by a
	// call to a PLT entry of an indirect-return (setjmp-family) function.
	// Always empty on AArch64, where no analog is needed (see JumpPads).
	AfterIRCall map[uint64]bool
	// JumpPads is the indirect-jump-only landmark set (BTI j switch
	// labels), excluded from E by the ISA itself. Empty on x86, where the
	// single ENDBR encoding accepts calls and jumps alike.
	JumpPads []uint64

	// CallTargets is C: every direct-call target inside .text, ascending.
	CallTargets []uint64
	// CallTargetSet is CallTargets as a membership set.
	CallTargetSet map[uint64]bool
	// AllCallTargets additionally includes direct-call targets outside
	// .text (PLT stubs and the like).
	AllCallTargets map[uint64]bool

	// JumpRefs is every direct jump with its source retained for
	// SELECTTAILCALL: conditional and unconditional on x86, unconditional
	// only on AArch64 (matching the BTI algorithm's J).
	JumpRefs []JumpRef
	// JumpTargets is J restricted to .text, ascending, deduplicated.
	JumpTargets []uint64
	// JumpTargetSet is JumpTargets as a membership set.
	JumpTargetSet map[uint64]bool
	// UncondJumpTargets is the unconditional-only target set (any
	// address), the DirJmpTarget property of the Figure 3 study.
	UncondJumpTargets map[uint64]bool
}

// sweepMemo is one architecture's slot of the per-arch sweep cache.
//
// It is not a sync.Once: a canceled computation must leave the cache
// empty so the next caller recomputes under its own context, and a
// caller waiting behind an in-flight computation must still be able to
// honor its own cancellation. mu guards both fields; inflight is
// non-nil (and closed on completion) while some goroutine is computing.
type sweepMemo struct {
	mu       sync.Mutex
	inflight chan struct{}
	sweep    *Sweep
}

// supersetMemo is one architecture's slot of the byte-level marker-scan
// cache.
type supersetMemo struct {
	once onceStage
	vas  []uint64
}

// Context is the shared per-binary analysis state. Create one per binary
// with NewContext, hand it to every analyzer interested in that binary,
// and each shared artifact is computed exactly once no matter how many
// tools, configurations, or goroutines consume it.
type Context struct {
	bin *elfx.Binary

	// sweeps and supersets are indexed by elfx.Arch: one memo slot per
	// backend, so sweeps of different architectures over the same bytes
	// never collide. In the overwhelmingly common case only the binary's
	// native slot is ever touched.
	sweeps    [elfx.NArch]sweepMemo
	supersets [elfx.NArch]supersetMemo

	ehOnce  onceStage
	fdes    []ehframe.FDE
	ehWarns []string
	ehErr   error

	padsOnce onceStage
	pads     map[uint64]bool
	padsErr  error

	fdeIxOnce onceStage
	fdeIx     *FDEIndex
	fdeIxErr  error

	stats statCounters
}

// NewContext wraps a loaded binary in a fresh analysis context. Nothing
// is computed until first demand.
func NewContext(bin *elfx.Binary) *Context {
	return &Context{bin: bin}
}

// Binary returns the underlying loaded binary.
func (c *Context) Binary() *elfx.Binary { return c.bin }

// Sweep returns the memoized linear-sweep artifacts of the binary's
// native architecture, computing them on first call.
func (c *Context) Sweep() *Sweep {
	sw, _ := c.SweepCtx(context.Background()) // background never cancels
	return sw
}

// SweepCtx returns the memoized linear-sweep artifacts of the binary's
// native architecture, computing them under ctx on first call.
func (c *Context) SweepCtx(ctx context.Context) (*Sweep, error) {
	return c.SweepArchCtx(ctx, elfx.ArchAuto)
}

// SweepArchCtx returns the memoized linear-sweep artifacts for arch
// (ArchAuto selects the binary's native architecture), computing them
// under ctx on first call. Cancellation is cooperative: the sweep checks
// ctx at stride boundaries, so an aborted request stops burning CPU
// within tens of microseconds. A canceled computation
// is not memoized — the next caller recomputes under its own context —
// and a caller waiting behind another goroutine's in-flight computation
// returns ctx.Err() as soon as its own context is done.
func (c *Context) SweepArchCtx(ctx context.Context, arch elfx.Arch) (*Sweep, error) {
	be, err := BackendFor(resolveArch(c.bin, arch))
	if err != nil {
		return nil, err
	}
	m := &c.sweeps[be.Arch()]
	for {
		m.mu.Lock()
		if m.sweep != nil {
			m.mu.Unlock()
			c.stats.sweep.hits.Add(1)
			return m.sweep, nil
		}
		if m.inflight == nil {
			// We are the computing goroutine.
			wait := make(chan struct{})
			m.inflight = wait
			m.mu.Unlock()

			start := time.Now()
			sw, err := be.BuildSweep(ctx, c.bin)

			m.mu.Lock()
			m.inflight = nil
			if err == nil {
				m.sweep = sw
				c.stats.sweep.observe(time.Since(start))
			}
			close(wait)
			m.mu.Unlock()
			if err != nil {
				return nil, err
			}
			return sw, nil
		}
		wait := m.inflight
		m.mu.Unlock()
		select {
		case <-wait:
			// Loop: either the sweep is memoized now, or the computing
			// goroutine was canceled and we take over with our own ctx.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Index returns the memoized x86 instruction index (one linear sweep).
// It is nil for binaries whose native backend is not x86; the x86-only
// baseline models are the only consumers.
func (c *Context) Index() *x86.Index { return c.Sweep().Index }

// IndexCtx returns the memoized x86 instruction index, computing the
// sweep under ctx on first call (see SweepCtx for cancellation
// semantics).
func (c *Context) IndexCtx(ctx context.Context) (*x86.Index, error) {
	sw, err := c.SweepCtx(ctx)
	if err != nil {
		return nil, err
	}
	return sw.Index, nil
}

// FDEs returns the memoized .eh_frame FDE records. Binaries without an
// .eh_frame section yield an empty slice without a parse.
func (c *Context) FDEs() ([]ehframe.FDE, error) {
	if len(c.bin.EHFrame) == 0 {
		return nil, nil
	}
	c.ehOnce.do(&c.stats.ehParse, func() {
		c.fdes, c.ehWarns, c.ehErr = ehframe.ParseWithWarnings(c.bin.EHFrame, c.bin.EHFrameAddr, c.bin.PtrSize())
	})
	return c.fdes, c.ehErr
}

// EHWarnings returns the non-fatal degradations the .eh_frame parse
// applied (unknown CIE augmentations, skipped FDEs). It shares the
// memoized parse with FDEs; a well-formed section yields none.
func (c *Context) EHWarnings() []string {
	_, _ = c.FDEs()
	return c.ehWarns
}

// FDEIndex is the interval view of a binary's FDE records: the set of
// pc-begin addresses (candidate function entries under EH-fused
// detection, per Pang et al., arXiv:2104.03168) plus a merged coverage
// map answering "does some FDE cover this address?". All fields are
// read-only after construction.
type FDEIndex struct {
	// Starts is every FDE pc-begin that lies inside .text, ascending,
	// deduplicated.
	Starts []uint64
	// StartSet is Starts as a membership set.
	StartSet map[uint64]bool

	// begins/ends are the merged coverage intervals, sorted by begin.
	begins []uint64
	ends   []uint64
}

// Covers reports whether addr falls inside some FDE coverage interval
// [pc-begin, pc-begin+pc-range).
func (ix *FDEIndex) Covers(addr uint64) bool {
	i := sort.Search(len(ix.begins), func(i int) bool { return ix.begins[i] > addr })
	return i > 0 && addr < ix.ends[i-1]
}

// Interior reports whether addr is strictly inside an FDE coverage
// interval — covered, but not a pc-begin. An FDE-covered tail-call
// "target" that is Interior is part of an already-known function, not a
// new entry.
func (ix *FDEIndex) Interior(addr uint64) bool {
	return ix.Covers(addr) && !ix.StartSet[addr]
}

// FDEIndex returns the memoized interval index over the binary's FDE
// records, derived from the memoized parse (so the whole context still
// performs at most one .eh_frame parse). Binaries without .eh_frame
// yield an empty index.
func (c *Context) FDEIndex() (*FDEIndex, error) {
	c.fdeIxOnce.do(&c.stats.fdeIndex, func() {
		fdes, err := c.FDEs()
		if err != nil {
			c.fdeIxErr = err
			return
		}
		c.fdeIx = buildFDEIndex(c.bin, fdes)
	})
	return c.fdeIx, c.fdeIxErr
}

// buildFDEIndex materializes the start set and merged coverage intervals
// for the FDEs that land in .text.
func buildFDEIndex(bin *elfx.Binary, fdes []ehframe.FDE) *FDEIndex {
	textEnd := bin.TextAddr + uint64(len(bin.Text))
	ix := &FDEIndex{StartSet: make(map[uint64]bool)}
	type iv struct{ begin, end uint64 }
	ivs := make([]iv, 0, len(fdes))
	for _, fde := range fdes {
		if fde.PCBegin < bin.TextAddr || fde.PCBegin >= textEnd {
			continue
		}
		if !ix.StartSet[fde.PCBegin] {
			ix.StartSet[fde.PCBegin] = true
			ix.Starts = append(ix.Starts, fde.PCBegin)
		}
		end := fde.PCBegin + fde.PCRange
		if end > textEnd {
			end = textEnd
		}
		if end > fde.PCBegin {
			ivs = append(ivs, iv{fde.PCBegin, end})
		}
	}
	slices.Sort(ix.Starts)
	slices.SortFunc(ivs, func(a, b iv) int {
		switch {
		case a.begin < b.begin:
			return -1
		case a.begin > b.begin:
			return 1
		}
		return 0
	})
	for _, v := range ivs {
		n := len(ix.begins)
		if n > 0 && v.begin <= ix.ends[n-1] {
			if v.end > ix.ends[n-1] {
				ix.ends[n-1] = v.end
			}
			continue
		}
		ix.begins = append(ix.begins, v.begin)
		ix.ends = append(ix.ends, v.end)
	}
	return ix
}

// LandingPads returns the memoized exception landing-pad set, derived
// from the memoized FDE records (so the whole context performs at most
// one .eh_frame parse). The returned map is read-only.
func (c *Context) LandingPads() (map[uint64]bool, error) {
	c.padsOnce.do(&c.stats.landingPad, func() {
		fdes, err := c.FDEs()
		if err != nil {
			c.pads, c.padsErr = nil, err
			return
		}
		c.pads = ehinfo.LandingPadsFromFDEs(c.bin, fdes)
	})
	return c.pads, c.padsErr
}

// SupersetEndbrs returns the memoized byte-level landmark scan of the
// binary's native architecture (see SupersetMarkers).
func (c *Context) SupersetEndbrs() []uint64 {
	return c.SupersetMarkers(elfx.ArchAuto)
}

// SupersetMarkers returns the memoized byte-level landmark scan for arch
// (ArchAuto selects the binary's native architecture): every address at
// which a call-accepting landmark encoding occurs, at any byte offset of
// .text, ascending. This is the superset-disassembly pairing the paper's
// §VI proposes; it is kept separate from Sweep because only the
// SupersetEndbrScan option consumes it. Architectures without a backend
// yield nil.
func (c *Context) SupersetMarkers(arch elfx.Arch) []uint64 {
	be, err := BackendFor(resolveArch(c.bin, arch))
	if err != nil {
		return nil
	}
	m := &c.supersets[be.Arch()]
	m.once.do(&c.stats.superset, func() {
		m.vas = be.ScanMarkers(c.bin.Text, c.bin.TextAddr)
	})
	return m.vas
}

// ObserveFilter records one FILTERENDBR stage execution of duration d.
func (c *Context) ObserveFilter(d time.Duration) { c.stats.filter.observe(d) }

// ObserveTailCall records one SELECTTAILCALL stage execution of
// duration d.
func (c *Context) ObserveTailCall(d time.Duration) { c.stats.tailCall.observe(d) }
