package analysis

import (
	"context"
	"fmt"

	"github.com/funseeker/funseeker/internal/arm64"
	"github.com/funseeker/funseeker/internal/cet"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// Backend is the per-ISA dispatch seam: everything the identification
// pipeline needs from an architecture — the linear sweep with its
// derived reference sets, and the byte-level landmark scan — behind one
// interface. The neutral Sweep vocabulary (landmarks E, call targets C,
// jump references J) is what lets core run the same FILTERENDBR /
// SELECTTAILCALL refinements over any backend; a third ISA plugs in by
// implementing these two methods and claiming an elfx.Arch value in
// BackendFor.
type Backend interface {
	// Arch names the architecture the backend implements.
	Arch() elfx.Arch
	// BuildSweep runs one linear sweep over bin's text and derives the
	// reference sets. On cancellation the partial work is discarded and
	// ctx.Err() returned.
	BuildSweep(ctx context.Context, bin *elfx.Binary) (*Sweep, error)
	// ScanMarkers finds call-accepting landmark encodings at every byte
	// offset of text (not only at sweep instruction boundaries),
	// ascending — the superset-disassembly pairing of the paper's §VI.
	ScanMarkers(text []byte, base uint64) []uint64
}

// BackendFor returns the backend implementing arch. ArchAuto is not a
// backend — resolve it against a Binary first (Context does this).
func BackendFor(arch elfx.Arch) (Backend, error) {
	switch arch {
	case elfx.ArchX86:
		return x86Backend{mode: x86.Mode32}, nil
	case elfx.ArchX86_64:
		return x86Backend{mode: x86.Mode64}, nil
	case elfx.ArchAArch64:
		return arm64Backend{}, nil
	}
	return nil, fmt.Errorf("analysis: no backend for architecture %q", arch)
}

// resolveArch maps the ArchAuto wildcard to bin's own architecture.
// Hand-built Binary values (tests, synthesizers) may carry no Arch at
// all; those fall back to the historical x86 rule via Mode.
func resolveArch(bin *elfx.Binary, arch elfx.Arch) elfx.Arch {
	if arch == elfx.ArchAuto {
		arch = bin.Arch
	}
	if arch == elfx.ArchAuto {
		if bin.Mode == x86.Mode32 {
			return elfx.ArchX86
		}
		return elfx.ArchX86_64
	}
	return arch
}

// x86Backend is the CET/endbr backend, at the decode mode matching its
// Arch. It is the original hard-wired pipeline moved behind the seam;
// the golden and property tests pin its output bit-identical to the
// pre-seam implementation.
type x86Backend struct {
	mode x86.Mode
}

// Arch implements Backend.
func (b x86Backend) Arch() elfx.Arch {
	if b.mode == x86.Mode32 {
		return elfx.ArchX86
	}
	return elfx.ArchX86_64
}

// BuildSweep implements Backend: one x86 linear sweep, with endbr
// landmarks, direct call/jump targets, and the indirect-return-call
// annotations FILTERENDBR consumes. The sweep runs on the calling
// goroutine and checks ctx every stride of decoded text.
func (b x86Backend) BuildSweep(ctx context.Context, bin *elfx.Binary) (*Sweep, error) {
	idx, err := x86.BuildIndexCtx(ctx, bin.Text, bin.TextAddr, b.mode)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{
		Arch:              b.Arch(),
		Index:             idx,
		AfterIRCall:       make(map[uint64]bool),
		AllCallTargets:    make(map[uint64]bool),
		JumpTargetSet:     make(map[uint64]bool),
		UncondJumpTargets: make(map[uint64]bool),
	}
	havePrev := false
	var prev *x86.Inst
	insts := sw.Index.Insts
	for i := range insts {
		inst := &insts[i]
		switch inst.Class {
		case x86.ClassEndbr64, x86.ClassEndbr32:
			sw.Endbrs = append(sw.Endbrs, inst.Addr)
			if havePrev && prev.Class == x86.ClassCallRel && prev.HasTarget {
				if name, ok := bin.PLTName(prev.Target); ok && cet.IsIndirectReturnFunc(name) {
					sw.AfterIRCall[inst.Addr] = true
				}
			}
		case x86.ClassCallRel:
			if inst.HasTarget {
				sw.AllCallTargets[inst.Target] = true
			}
		case x86.ClassJmpRel, x86.ClassJccRel:
			if inst.HasTarget {
				cond := inst.Class == x86.ClassJccRel
				sw.JumpRefs = append(sw.JumpRefs, JumpRef{Src: inst.Addr, Target: inst.Target, Cond: cond})
				if bin.InText(inst.Target) {
					sw.JumpTargetSet[inst.Target] = true
				}
				if !cond {
					sw.UncondJumpTargets[inst.Target] = true
				}
			}
		}
		prev = inst
		havePrev = true
	}
	sw.finishSets(bin)
	return sw, nil
}

// ScanMarkers implements Backend: the 4-byte ENDBR encodings (F3 0F 1E
// FA/FB) at every byte offset of text. Encodings whose tail would
// straddle the end of the section are not matches.
func (x86Backend) ScanMarkers(text []byte, base uint64) []uint64 {
	var out []uint64
	for off := 0; off+4 <= len(text); off++ {
		if text[off] != 0xF3 || text[off+1] != 0x0F || text[off+2] != 0x1E {
			continue
		}
		if b := text[off+3]; b != 0xFA && b != 0xFB {
			continue
		}
		out = append(out, base+uint64(off))
	}
	return out
}

// arm64Backend is the BTI backend. The landmark mapping follows the
// paper's §VI sketch (and internal/bticore, whose output the diffcheck
// oracle pins this backend against): call-accepting pads (BTI c / jc,
// PACIASP) play the role of ENDBR in E, BL of direct calls in C, and
// unconditional B of the direct jumps SELECTTAILCALL refines. BTI j pads
// — indirect-jump-only switch labels — are what FILTERENDBR removes by
// analysis on x86; here the ISA names them, so they are excluded from E
// at sweep time and reported separately in JumpPads.
type arm64Backend struct{}

// Arch implements Backend.
func (arm64Backend) Arch() elfx.Arch { return elfx.ArchAArch64 }

// BuildSweep implements Backend: one fixed-width AArch64 sweep.
func (arm64Backend) BuildSweep(ctx context.Context, bin *elfx.Binary) (*Sweep, error) {
	ix, err := arm64.BuildIndexCtx(ctx, bin.Text, bin.TextAddr)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{
		Arch:              elfx.ArchAArch64,
		ARM64:             ix,
		AfterIRCall:       make(map[uint64]bool),
		AllCallTargets:    make(map[uint64]bool),
		JumpTargetSet:     make(map[uint64]bool),
		UncondJumpTargets: make(map[uint64]bool),
	}
	for i := range ix.Insts {
		inst := &ix.Insts[i]
		switch inst.Class {
		case arm64.ClassBTI:
			if inst.BTI.AcceptsCall() {
				sw.Endbrs = append(sw.Endbrs, inst.Addr)
			} else if inst.BTI.AcceptsJump() {
				sw.JumpPads = append(sw.JumpPads, inst.Addr)
			}
		case arm64.ClassPACIASP:
			sw.Endbrs = append(sw.Endbrs, inst.Addr)
		case arm64.ClassBL:
			if inst.HasTarget {
				sw.AllCallTargets[inst.Target] = true
			}
		case arm64.ClassB:
			if inst.HasTarget {
				sw.JumpRefs = append(sw.JumpRefs, JumpRef{Src: inst.Addr, Target: inst.Target})
				if bin.InText(inst.Target) {
					sw.JumpTargetSet[inst.Target] = true
				}
				sw.UncondJumpTargets[inst.Target] = true
			}
		}
	}
	sw.finishSets(bin)
	return sw, nil
}

// ScanMarkers implements Backend via the word-aligned call-pad scan.
func (arm64Backend) ScanMarkers(text []byte, base uint64) []uint64 {
	return arm64.ScanCallPads(text, base)
}

// finishSets derives the membership sets and sorted slices every backend
// shares: EndbrSet from the (already ascending) landmark stream, and the
// in-text call/jump target slices from their sets.
func (sw *Sweep) finishSets(bin *elfx.Binary) {
	sw.EndbrSet = make(map[uint64]bool, len(sw.Endbrs))
	for _, e := range sw.Endbrs {
		sw.EndbrSet[e] = true
	}
	sw.CallTargetSet = make(map[uint64]bool, len(sw.AllCallTargets))
	for t := range sw.AllCallTargets {
		if bin.InText(t) {
			sw.CallTargetSet[t] = true
		}
	}
	sw.CallTargets = sortedKeys(sw.CallTargetSet)
	sw.JumpTargets = sortedKeys(sw.JumpTargetSet)
}
