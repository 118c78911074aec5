package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a tail
// percentile for the sample to support it.
const minBeyond = 10

// Tail windows: a sample stream is cut into windows of a fixed sample
// count, the tail rule picks the percentile inside each window, and the
// reported tail is the median over the complete windows. A fixed window
// keeps the percentile the same however many samples a run completes: a
// faster program completes more requests but reports the same percentile.
const (
	// warmWindow puts the warm workload's window tail at p99.33 (rank
	// 1490).
	warmWindow = 1500
	// coldWindow is the cold stream's block, one query per (kind, size,
	// mode), which puts its window tail at p86.1 (rank 62). The cold
	// samples are in stream order, so each window is one block: the same
	// mix of work in every window of every run.
	coldWindow = 72
)

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOf applies the tail rule to sorted samples: the highest percentile
// with at least minBeyond samples beyond it, which is the sample at rank
// n-minBeyond. It returns the value, the percentile and the number of
// samples beyond it. A tail is never below the median: when fewer than
// 2*minBeyond samples leave no such percentile at or above p50, the tail
// is the maximum, reported as percentile 100 with 0 samples beyond.
func tailOf(sorted []float64) (v, pct float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	r := n - minBeyond
	if r < rank(n, 50) {
		return sorted[n-1], 100, 0
	}
	return sorted[r-1], 100 * float64(r) / float64(n), minBeyond
}

// tail is the reported tail of a sample stream in completion order.
type tail struct {
	Value   float64
	Pct     float64 // percentile within a window
	Beyond  int     // samples beyond it within a window
	Window  int     // samples per window
	Windows int     // windows the median is taken over
}

// tailOverWindows applies the tail rule per window of `window` samples and
// reports the median over the complete windows, dropping the partial one;
// a stream shorter than one window is one window.
func tailOverWindows(samples []float64, window int) tail {
	n := len(samples)
	if n < window {
		s := sortedCopy(samples)
		v, p, b := tailOf(s)
		return tail{Value: v, Pct: p, Beyond: b, Window: n, Windows: 1}
	}
	var vals []float64
	var t tail
	for lo := 0; lo+window <= n; lo += window {
		v, p, b := tailOf(sortedCopy(samples[lo : lo+window]))
		vals = append(vals, v)
		t.Pct, t.Beyond = p, b
	}
	t.Value = median(vals)
	t.Window, t.Windows = window, len(vals)
	return t
}

// wholeWindows trims a stream-ordered sample list to whole windows, so
// that every run's figures are over the same mix of work however far into
// a window the run got; a list shorter than one window is kept whole.
func wholeWindows(xs []float64, window int) []float64 {
	if n := len(xs) / window * window; n > 0 {
		return xs[:n]
	}
	return xs
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
