package main

import (
	"math"
	"math/rand"
	"slices"
)

// minBeyond is how many samples must lie above a reported tail value:
// the tail is the highest percentile that still has this many samples
// beyond it, so it is never set by a handful of outliers.
const minBeyond = 10

// tail is a latency summary: the median and the highest percentile with
// at least minBeyond samples beyond it, with the percentile it is and
// the number of samples it was taken from.
type tail struct {
	P50   float64
	Tail  float64
	Pct   float64
	Count int
}

// summarize sorts xs in place and returns its median and tail. A sample
// of minBeyond or fewer values has no tail; ok is then false.
func summarize(xs []float64) (s tail, ok bool) {
	slices.Sort(xs)
	n := len(xs)
	s.Count = n
	if n == 0 {
		return s, false
	}
	s.P50 = median(xs)
	if n <= minBeyond {
		return s, false
	}
	i := n - 1 - minBeyond // exactly minBeyond samples above index i
	s.Tail = xs[i]
	s.Pct = 100 * float64(i+1) / float64(n)
	return s, true
}

// median returns the middle of an ascending sample (the mean of the two
// middle values for an even count); 0 for an empty sample.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// medianOf returns the median of xs without reordering it.
func medianOf(xs []float64) float64 {
	c := slices.Clone(xs)
	slices.Sort(c)
	return median(c)
}

// prf counts the true positives, false positives and false negatives of
// identified entries against ground truth. Counts add across results, so
// the F1 of a sum is the micro-F1 of everything scored.
type prf struct {
	TP, FP, FN int64
}

// score compares ascending, duplicate-free address lists.
func score(got, truth []uint64) prf {
	var p prf
	i, j := 0, 0
	for i < len(got) && j < len(truth) {
		switch {
		case got[i] == truth[j]:
			p.TP++
			i++
			j++
		case got[i] < truth[j]:
			p.FP++
			i++
		default:
			p.FN++
			j++
		}
	}
	p.FP += int64(len(got) - i)
	p.FN += int64(len(truth) - j)
	return p
}

func (p *prf) add(o prf) {
	p.TP += o.TP
	p.FP += o.FP
	p.FN += o.FN
}

// f1 is the harmonic mean of precision and recall, 2TP / (2TP+FP+FN);
// 0 when nothing was scored.
func (p prf) f1() float64 {
	d := 2*p.TP + p.FP + p.FN
	if d == 0 {
		return 0
	}
	return float64(2*p.TP) / float64(d)
}

// zipfDraws returns n popularity ranks in [0, pool) drawn from a Zipf
// law with exponent s. The sequence depends only on its arguments.
func zipfDraws(seed int64, n, pool int, s float64) []int {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, s, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// ratio divides and maps a zero denominator to 0, for shares and
// per-byte figures of workloads that did not exercise the quantity.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(num) {
		return 0
	}
	return num / den
}
