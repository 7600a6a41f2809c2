package x86

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// cancelTestText returns a deterministic multi-megabyte code buffer —
// large enough that every cancellation path crosses many cancelStride
// boundaries. Generated once and shared read-only across the tests.
var cancelTestTextOnce = sync.OnceValue(func() []byte {
	rng := rand.New(rand.NewSource(20260806))
	return GenText(2<<20, Mode64, rng, 0)
})

func cancelTestText(tb testing.TB) []byte {
	tb.Helper()
	return cancelTestTextOnce()
}

func TestLinearSweepCtxBackgroundMatchesPlain(t *testing.T) {
	text := cancelTestText(t)
	var plain, viaCtx int
	wantSkipped := LinearSweep(text, 0x401000, Mode64, func(*Inst) bool { plain++; return true })
	skipped, err := LinearSweepCtx(context.Background(), text, 0x401000, Mode64, func(*Inst) bool { viaCtx++; return true })
	if err != nil {
		t.Fatalf("LinearSweepCtx: %v", err)
	}
	if viaCtx != plain || skipped != wantSkipped {
		t.Fatalf("ctx sweep diverged: %d insts / %d skips, want %d / %d", viaCtx, skipped, plain, wantSkipped)
	}
}

func TestLinearSweepCtxPreCanceled(t *testing.T) {
	text := cancelTestText(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	_, err := LinearSweepCtx(ctx, text, 0x401000, Mode64, func(*Inst) bool { n++; return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 0 {
		t.Fatalf("pre-canceled sweep still decoded %d instructions", n)
	}
}

// TestLinearSweepCtxMidSweep cancels from inside the callback and checks
// the sweep stops within one cancellation stride: determinism without
// wall-clock assertions.
func TestLinearSweepCtxMidSweep(t *testing.T) {
	text := cancelTestText(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAt = 1000
	n := 0
	var lastAddr uint64
	_, err := LinearSweepCtx(ctx, text, 0, Mode64, func(inst *Inst) bool {
		n++
		lastAddr = inst.Addr
		if n == stopAt {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// After the cancel the sweep may finish the current stride but no
	// more: the last decoded address stays within one stride of the
	// cancellation point.
	if lastAddr > uint64(stopAt*maxInstLen+cancelStride) {
		t.Fatalf("sweep ran %#x bytes past cancellation (stride %#x)", lastAddr, cancelStride)
	}
	if n >= len(text)/2 {
		t.Fatalf("sweep decoded %d instructions after mid-sweep cancel", n)
	}
}

func TestBuildIndexCtxMatchesSequential(t *testing.T) {
	text := cancelTestText(t)
	want := BuildIndex(text, 0x401000, Mode64)
	got, err := BuildIndexCtx(context.Background(), text, 0x401000, Mode64)
	if err != nil {
		t.Fatalf("BuildIndexCtx: %v", err)
	}
	// Background context must take the exact BuildIndex path.
	if len(got.Insts) != len(want.Insts) || got.Skipped != want.Skipped {
		t.Fatalf("BuildIndexCtx diverged: %d insts / %d skips, want %d / %d",
			len(got.Insts), got.Skipped, len(want.Insts), want.Skipped)
	}
}

// TestBuildIndexCtx pins the outcomes of the one x86 index builder on
// text well past 256 KiB: a live context yields BuildIndex's index
// instruction for instruction, a done one yields (nil, ctx.Err()),
// never a partial index.
func TestBuildIndexCtx(t *testing.T) {
	text := cancelTestText(t)

	t.Run("background matches sequential", func(t *testing.T) {
		want := BuildIndex(text, 0x401000, Mode64)
		got, err := BuildIndexCtx(context.Background(), text, 0x401000, Mode64)
		if err != nil {
			t.Fatalf("BuildIndexCtx: %v", err)
		}
		if len(got.Insts) != len(want.Insts) {
			t.Fatalf("ctx build diverged: %d insts, want %d", len(got.Insts), len(want.Insts))
		}
		for i := range got.Insts {
			if got.Insts[i] != want.Insts[i] {
				t.Fatalf("inst %d diverged: %+v vs %+v", i, got.Insts[i], want.Insts[i])
			}
		}
	})

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		idx, err := BuildIndexCtx(ctx, text, 0x401000, Mode64)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if idx != nil {
			t.Fatal("canceled build returned a non-nil index")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		// A deadline already in the past: the build must observe it at
		// its first stride check.
		ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
		defer cancel()
		idx, err := BuildIndexCtx(ctx, text, 0x401000, Mode64)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if idx != nil {
			t.Fatal("expired build returned a non-nil index")
		}
	})
}
