package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "server.handler", Start: 0, End: 100},
		// Overlapping children count once; the part of a child outside
		// its parent does not count.
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild reduces its parent, not the root.
		{ID: 5, Parent: 2, Start: 12, End: 18},
		{ID: 6, Name: "alone", Start: 5, End: 7},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - (40 + 10), 2: 20 - 6, 3: 30, 4: 30, 5: 6, 6: 2}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerRecords(t *testing.T) {
	tr := newTracer()
	id := tr.newID()
	start := tr.now()
	tr.record(span{ID: id, Name: "x", Start: start, End: tr.now()})
	if got := tr.snapshot(); len(got) != 1 || got[0].ID != id || got[0].End < got[0].Start {
		t.Fatalf("snapshot %+v", got)
	}
	if tr.newID() == id {
		t.Fatal("span ids repeat")
	}
}
