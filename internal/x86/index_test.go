package x86

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBuildIndexMatchesSweepAll(t *testing.T) {
	code := []byte{
		0xF3, 0x0F, 0x1E, 0xFA, // endbr64
		0x55,             // push rbp
		0x48, 0x89, 0xE5, // mov rbp, rsp
		0xE8, 0x00, 0x00, 0x00, 0x00, // call +0
		0xC9, // leave
		0xC3, // ret
	}
	idx := BuildIndex(code, 0x4000, Mode64)
	flat := SweepAll(code, 0x4000, Mode64)
	if len(idx.Insts) != len(flat) {
		t.Fatalf("index has %d instructions, SweepAll %d", len(idx.Insts), len(flat))
	}
	for i := range flat {
		if idx.Insts[i].Addr != flat[i].Addr || idx.Insts[i].Len != flat[i].Len {
			t.Fatalf("inst %d: index %+v vs sweep %+v", i, idx.Insts[i], flat[i])
		}
	}
	if idx.Skipped != 0 {
		t.Errorf("Skipped = %d on well-formed code", idx.Skipped)
	}
}

func TestIndexAt(t *testing.T) {
	code := []byte{0x90, 0x90, 0xC3} // nop; nop; ret
	idx := BuildIndex(code, 0x100, Mode64)
	if inst, ok := idx.At(0x101); !ok || inst.Class != ClassNop {
		t.Errorf("At(0x101) = %+v, %v", inst, ok)
	}
	if _, ok := idx.At(0x103); ok {
		t.Error("At past the end must miss")
	}
	if _, ok := idx.At(0x0FF); ok {
		t.Error("At before the base must miss")
	}
}

func TestIndexRange(t *testing.T) {
	code := []byte{0x90, 0x90, 0x90, 0x90, 0xC3}
	idx := BuildIndex(code, 0x100, Mode64)
	if got := idx.Range(0x101, 0x104); len(got) != 3 {
		t.Errorf("Range(0x101,0x104) returned %d instructions, want 3", len(got))
	}
	if got := idx.Range(0x104, 0x104); got != nil {
		t.Errorf("empty range returned %d instructions", len(got))
	}
	if got := idx.Range(0x0, 0x1000); len(got) != 5 {
		t.Errorf("covering range returned %d instructions, want 5", len(got))
	}
}

// TestIndexConcurrentReaders hammers one index from many goroutines
// (run with -race in CI): an Index is immutable after construction and
// must serve At/AtPtr/Range concurrently without synchronization. The
// text is 256 KiB, the size of the larger binaries in a corpus run.
func TestIndexConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	code := GenText(256<<10, Mode64, rng, 0.05)
	idx := BuildIndex(code, 0x401000, Mode64)
	flat := SweepAll(code, 0x401000, Mode64)
	if len(idx.Insts) != len(flat) {
		t.Fatalf("index has %d instructions, SweepAll %d", len(idx.Insts), len(flat))
	}
	for i := range flat {
		if idx.Insts[i] != flat[i] {
			t.Fatalf("inst %d: index %+v vs sweep %+v", i, idx.Insts[i], flat[i])
		}
	}

	const readers = 8
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				va := idx.Base + uint64(rng.Intn(len(code)))
				inst, ok := idx.At(va)
				p := idx.AtPtr(va)
				if ok != (p != nil) {
					t.Errorf("At(%#x) ok=%v but AtPtr=%v", va, ok, p)
					return
				}
				if ok && (*p != inst || inst.Addr != va) {
					t.Errorf("At(%#x) inconsistent with AtPtr", va)
					return
				}
				if i%64 == 0 {
					lo := idx.Base + uint64(rng.Intn(len(code)))
					sub := idx.Range(lo, lo+256)
					for j := 1; j < len(sub); j++ {
						if sub[j].Addr <= sub[j-1].Addr {
							t.Errorf("Range not ascending at %#x", sub[j].Addr)
							return
						}
					}
				}
			}
		}(int64(r))
	}
	wg.Wait()
}
