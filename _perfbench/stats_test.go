package main

import (
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1) // 1..n
	}
	return out
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n, rank int // the tail is sample `rank` of 1..n
		beyond  int
	}{
		{19, 19, 0},  // no percentile at or above p50 has 10 beyond it: the maximum
		{20, 10, 10}, // p50
		{39, 29, 10},
		{72, 62, 10}, // the cold window
		{100, 90, 10},
		{1500, 1490, 10}, // the warm window
	}
	for _, c := range cases {
		v, p, b := tailOf(seq(c.n))
		pct := 100 * float64(c.rank) / float64(c.n)
		if c.beyond == 0 {
			pct = 100
		}
		if v != float64(c.rank) || p != pct || b != c.beyond {
			t.Errorf("n=%d: tail %v at p%v with %d beyond, want %v at p%v with %d beyond",
				c.n, v, p, b, c.rank, pct, c.beyond)
		}
	}
	if v, p, b := tailOf(nil); v != 0 || p != 0 || b != 0 {
		t.Errorf("empty: %v %v %v", v, p, b)
	}
}

func TestTailOverWindows(t *testing.T) {
	// Short streams are one window.
	short := tailOverWindows(seq(100), warmWindow)
	if short.Windows != 1 || short.Window != 100 || short.Pct != 90 || short.Value != 90 {
		t.Fatalf("short stream: %+v", short)
	}
	// Three windows of 1500 (plus a partial one, dropped) whose tails are
	// 1490, 2990 and 4490 (the samples rise steadily): the median is 2990.
	long := tailOverWindows(seq(3*warmWindow+500), warmWindow)
	if long.Windows != 3 || long.Window != warmWindow || long.Beyond != minBeyond || long.Value != 2990 {
		t.Fatalf("long stream: %+v", long)
	}
	// The cold window keeps its percentile whether a run completes 72 or
	// 200 samples.
	for _, n := range []int{72, 99, 150, 200} {
		if c := tailOverWindows(seq(n), coldWindow); c.Pct != 100*62.0/72 || c.Beyond != minBeyond {
			t.Fatalf("cold stream of %d: %+v", n, c)
		}
	}
	// A run that completes more than one window but fewer than two reads
	// only the first: its tail is rank 62 of samples 1..72.
	if c := tailOverWindows(seq(100), coldWindow); c.Windows != 1 || c.Window != coldWindow || c.Value != 62 {
		t.Fatalf("cold stream of 100: %+v", c)
	}
	// Too few samples for the rule: the tail is their maximum.
	if c := tailOverWindows(seq(4), coldWindow); c.Pct != 100 || c.Value != 4 {
		t.Fatalf("four samples: %+v", c)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatal(m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatal(m)
	}
	if m := median(nil); m != 0 {
		t.Fatal(m)
	}
}

func TestWholeWindows(t *testing.T) {
	if coldWindow != len(kinds)*len(sizes)*len(modes) {
		t.Fatalf("coldWindow %d, but a cold block is %d queries", coldWindow, len(kinds)*len(sizes)*len(modes))
	}
	// A run that got 10 queries into its third block reads two blocks.
	if got := wholeWindows(seq(154), coldWindow); len(got) != 144 || got[143] != 144 {
		t.Fatalf("154 samples: kept %d", len(got))
	}
	// Less than one block is kept whole.
	if got := wholeWindows(seq(60), coldWindow); len(got) != 60 {
		t.Fatalf("60 samples: kept %d", len(got))
	}
}
