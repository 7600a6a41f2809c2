package x86

import (
	"math/rand"
	"sync"
	"testing"
)

// The sweep microbenchmark corpus: 4 MiB of compiler-shaped text per
// mode, built once. Large enough that MB/s figures are stable.
var (
	benchTextOnce sync.Once
	benchText64   []byte
	benchText32   []byte
)

func sweepBenchText(mode Mode) []byte {
	benchTextOnce.Do(func() {
		rng := rand.New(rand.NewSource(424242))
		benchText64 = GenText(4<<20, Mode64, rng, 0)
		benchText32 = GenText(4<<20, Mode32, rng, 0)
	})
	if mode == Mode32 {
		return benchText32
	}
	return benchText64
}

// BenchmarkDecode measures single-instruction decode over the mixed
// instruction stream (fast path + slow path in realistic proportion).
func BenchmarkDecode(b *testing.B) {
	code := sweepBenchText(Mode64)
	b.SetBytes(int64(len(code)))
	b.ReportAllocs()
	var inst Inst
	for i := 0; i < b.N; i++ {
		off := 0
		for off < len(code) {
			if err := DecodeInto(code[off:], uint64(off), Mode64, &inst); err != nil {
				off++
				continue
			}
			off += inst.Len
		}
	}
}

// BenchmarkSweep measures the raw LinearSweep callback loop.
func BenchmarkSweep(b *testing.B) {
	for _, mode := range []Mode{Mode64, Mode32} {
		b.Run(mode.String(), func(b *testing.B) {
			code := sweepBenchText(mode)
			b.SetBytes(int64(len(code)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				LinearSweep(code, 0x401000, mode, func(inst *Inst) bool {
					n++
					return true
				})
				if n == 0 {
					b.Fatal("empty sweep")
				}
			}
		})
	}
}

// BenchmarkBuildIndex measures the sequential index build — the paper's
// Table III linear-sweep cost, in MB/s.
func BenchmarkBuildIndex(b *testing.B) {
	code := sweepBenchText(Mode64)
	b.SetBytes(int64(len(code)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx := BuildIndex(code, 0x401000, Mode64)
		if len(idx.Insts) == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkIndexAt measures the rank/select boundary lookup.
func BenchmarkIndexAt(b *testing.B) {
	code := sweepBenchText(Mode64)
	idx := BuildIndex(code, 0x401000, Mode64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := idx.Base + uint64(i%len(code))
		idx.AtPtr(va)
	}
}
