package x86

import "context"

// cancelStride is the number of code bytes a cancellation-aware sweep
// decodes between context checks. The stride keeps the check off the
// per-instruction hot path (one ctx.Err() per 64 KiB of text costs
// nothing measurable) while still bounding how much work a canceled
// request can keep doing: a few tens of microseconds of decode.
const cancelStride = 64 << 10

// LinearSweepCtx is LinearSweep with cooperative cancellation: the sweep
// checks ctx every cancelStride bytes of input (including before the
// first instruction) and returns ctx.Err() if the context is done. A
// context that can never be canceled dispatches to the allocation-free
// LinearSweep unchanged.
//
// On cancellation the instructions already delivered to fn remain
// delivered; callers must treat the whole result as abandoned.
func LinearSweepCtx(ctx context.Context, code []byte, base uint64, mode Mode, fn func(*Inst) bool) (skipped int, err error) {
	if ctx.Done() == nil {
		return LinearSweep(code, base, mode, fn), nil
	}
	var inst Inst
	off, next := 0, 0
	for off < len(code) {
		if off >= next {
			if err := ctx.Err(); err != nil {
				return skipped, err
			}
			next = off + cancelStride
		}
		if err := DecodeInto(code[off:], base+uint64(off), mode, &inst); err != nil {
			off++
			skipped++
			continue
		}
		if !fn(&inst) {
			return skipped, nil
		}
		off += inst.Len
	}
	return skipped, nil
}

// BuildIndexCtx is BuildIndex with cooperative cancellation (see
// LinearSweepCtx). On cancellation it returns (nil, ctx.Err()) and the
// partial decode is discarded. It shares the two-pass exact-size build
// with BuildIndex.
func BuildIndexCtx(ctx context.Context, code []byte, base uint64, mode Mode) (*Index, error) {
	return buildIndex(ctx, code, base, mode)
}
