package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"github.com/funseeker/funseeker/internal/armsynth"
	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// largeText is the .text size at and above which the analysis layer
// selects its sharded sweep; the corpus straddles it on purpose.
const largeText = 256 << 10

// target is how one image is built.
type target int

const (
	x64 target = iota
	x32
	arm64BTI
	x64NoCET
)

// slot fixes everything about one input image except its content, which
// the seed decides: the suite, the language, the function count and the
// build. A fixed slot table keeps the size and kind mix of every seed's
// inputs the same, so seeds differ only in program structure.
type slot struct {
	Suite  corpus.Suite
	CPP    bool
	Funcs  int
	Target target
}

// image is one generated input with its ground truth.
type image struct {
	Name   string
	Raw    []byte
	Truth  []uint64 // ascending true entry addresses
	Config int      // FunSeeker configuration to request: 4, or 5 for -nocet
	Text   int      // .text bytes
	Slot   slot
}

func (im *image) large() bool { return im.Text >= largeText }

// coldSlots is the corpus-cold corpus: the three suites at function
// counts of about 12x the paper's per-program scale, so .text spans
// roughly 40-600 KiB, on both sides of largeText. It holds x86-64 and
// x86-32 C, C++ with landing pads, an AArch64/BTI share and a -nocet
// share that needs configuration 5.
var coldSlots = []slot{
	{corpus.Coreutils, false, 300, x64}, {corpus.Coreutils, false, 380, x64},
	{corpus.Coreutils, false, 460, x64}, {corpus.Coreutils, false, 540, x64},
	{corpus.Coreutils, false, 620, x64}, {corpus.Coreutils, false, 720, x64},
	{corpus.Coreutils, false, 820, x64}, {corpus.Coreutils, false, 350, x32},
	{corpus.Coreutils, false, 550, x32}, {corpus.Coreutils, false, 800, x32},
	{corpus.Binutils, false, 1500, x64}, {corpus.Binutils, false, 1900, x64},
	{corpus.Binutils, false, 2300, x64}, {corpus.Binutils, false, 2700, x64},
	{corpus.Binutils, false, 1700, x32}, {corpus.Binutils, false, 2500, x32},
	{corpus.SPEC, true, 900, x64}, {corpus.SPEC, true, 1400, x64},
	{corpus.SPEC, true, 1900, x64}, {corpus.SPEC, true, 2500, x64},
	{corpus.SPEC, true, 3200, x64}, {corpus.SPEC, false, 1200, x64},
	{corpus.SPEC, true, 1100, x32}, {corpus.SPEC, true, 2100, x32},
	{corpus.Coreutils, false, 700, arm64BTI}, {corpus.Binutils, false, 1800, arm64BTI},
	{corpus.SPEC, false, 2800, arm64BTI}, {corpus.Coreutils, false, 500, x64NoCET},
	{corpus.SPEC, true, 1500, x64NoCET}, {corpus.Binutils, false, 2000, x64NoCET},
}

// hotSlots is the analyze-hot pool: 128 small-to-medium CET images
// (about 3-70 KiB of .text). Popularity rank r gets hotSlots[r], so the
// hottest images have the same sizes under every seed.
var hotSlots = ladder(128, 20, 420, 0x5eed)

// batchSlots is the cluster-batch base set, uploaded in stamped copies.
var batchSlots = ladder(48, 40, 360, 0xba7c)

// ladder returns n CET slots whose function counts grow geometrically
// from lo to hi, shuffled by a fixed permutation so neighbouring slots
// differ in size; every seventh is x86-32 and every fifth SPEC C++.
func ladder(n, lo, hi int, perm int64) []slot {
	order := rand.New(rand.NewSource(perm)).Perm(n)
	out := make([]slot, n)
	for i := range out {
		k := order[i]
		f := float64(lo) * math.Pow(float64(hi)/float64(lo), float64(k)/float64(n-1))
		s := slot{Suite: corpus.Coreutils, Funcs: int(f), Target: x64}
		if i%5 == 0 {
			s.Suite, s.CPP = corpus.SPEC, true
		}
		if i%7 == 3 {
			s.Target = x32
		}
		out[i] = s
	}
	return out
}

// specFor draws the program for slot s under seed: the first program of
// the suite whose language matches, regenerated at the slot's function
// count.
func specFor(s slot, seed int64) (*synth.ProgSpec, error) {
	const tries = 32
	specs := corpus.Generate(s.Suite, corpus.Options{Seed: seed, Programs: tries})
	for i, sp := range specs {
		if (sp.Lang == synth.LangCPP) != s.CPP {
			continue
		}
		scale := (float64(s.Funcs) + 0.5) / float64(len(sp.Funcs))
		return corpus.Generate(s.Suite, corpus.Options{Seed: seed, Programs: i + 1, Scale: scale})[i], nil
	}
	return nil, fmt.Errorf("no %v program with cpp=%v in %d draws", s.Suite, s.CPP, tries)
}

// build compiles slot s of seed into an image.
func build(s slot, seed int64, idx int) (*image, error) {
	sp, err := specFor(s, seed)
	if err != nil {
		return nil, err
	}
	opts := []synth.OptLevel{synth.O0, synth.O1, synth.O2, synth.O3, synth.Os, synth.Ofast}
	opt := opts[idx%len(opts)]
	im := &image{Name: fmt.Sprintf("%03d-%s", idx, sp.Name), Config: 4, Slot: s}
	switch s.Target {
	case arm64BTI:
		res, err := armsynth.Compile(sp, armsynth.Config{Opt: opt, PAC: idx%2 == 1})
		if err != nil {
			return nil, err
		}
		im.Raw, im.Truth = res.Image, res.GT.SortedEntries()
	default:
		cfg := synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, PIE: idx%2 == 0, Opt: opt}
		if idx%3 == 1 {
			cfg.Compiler = synth.Clang
		}
		if s.Target == x32 {
			cfg.Mode = x86.Mode32
		}
		if s.Target == x64NoCET {
			cfg.NoCET = true
			im.Config = 5
		}
		res, err := synth.Compile(sp, cfg)
		if err != nil {
			return nil, err
		}
		im.Raw, im.Truth = res.Stripped, res.GT.SortedEntries()
	}
	bin, err := elfx.Load(im.Raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", im.Name, err)
	}
	im.Text = len(bin.Text)
	return im, nil
}

// generate builds every slot under seed on up to nproc goroutines. The
// result is in slot order and depends only on the slots and the seed.
func generate(slots []slot, seed int64) ([]*image, error) {
	out := make([]*image, len(slots))
	errs := make([]error, len(slots))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = build(slots[i], seed*1000+int64(i), i)
			}
		}()
	}
	for i := range slots {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stamp writes n into the ELF identification padding (e_ident bytes
// 9-15), which no loader reads: the copy is a never-seen image to every
// content-addressed cache and store, while its analysis is unchanged.
func stamp(dst, src []byte, n uint64) []byte {
	dst = append(dst[:0], src...)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], n)
	copy(dst[9:16], b[:7])
	return dst
}

// inputShares records the input properties optimisations key on, as
// fractions of the workload's distinct images.
func (r *report) inputShares(ims []*image) {
	var large, cpp, nocet, arm float64
	for _, im := range ims {
		if im.large() {
			large++
		}
		if im.Slot.CPP {
			cpp++
		}
		if im.Slot.Target == x64NoCET {
			nocet++
		}
		if im.Slot.Target == arm64BTI {
			arm++
		}
	}
	n := float64(len(ims))
	r.Shares["input.large_text"], r.Shares["input.cpp"] = large/n, cpp/n
	r.Shares["input.nocet"], r.Shares["input.aarch64"] = nocet/n, arm/n
}
