package main

import (
	"reflect"
	"testing"

	"haswellep/internal/server"
)

func TestColdStreamDeterministic(t *testing.T) {
	a, b, c := newColdGen(7), newColdGen(7), newColdGen(8)
	differ := false
	for i := 0; i < 200; i++ {
		qa, qb := a.query(i), b.query(i)
		if qa != qb {
			t.Fatalf("query %d differs for one seed: %+v vs %+v", i, qa, qb)
		}
		differ = differ || qa != c.query(i)
	}
	if !differ {
		t.Fatal("seeds 7 and 8 generated the same stream")
	}
}

func TestColdStreamKeysAreDistinct(t *testing.T) {
	g := newColdGen(1)
	seen := map[string]int{}
	// Long enough to go round the smallest class pools with labels.
	for i := 0; i < 72*20; i++ {
		k, err := keyOf(g.query(i))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if j, dup := seen[k]; dup {
			t.Fatalf("queries %d and %d share key %s", j, i, k)
		}
		seen[k] = i
	}
}

func TestColdRoundsAreBalanced(t *testing.T) {
	g, h := newColdGen(3), newColdGen(4)
	n := len(kinds) * len(sizes)
	modesSeen := map[[3]any]int{}
	for round := 0; round < 6; round++ {
		count := map[[2]any]int{}
		for i := round * n; i < (round+1)*n; i++ {
			q := g.query(i)
			count[[2]any{q.Kind, q.SizeBytes}]++
			modesSeen[[3]any{q.Kind, q.SizeBytes, q.Mode}]++
			// Every seed, and every block, asks for the same work in the
			// same order.
			if o := h.query(i); o.Kind != q.Kind || o.SizeBytes != q.SizeBytes || o.Mode != q.Mode || shapeOf(o) != shapeOf(q) {
				t.Fatalf("query %d: class differs between seeds: %+v vs %+v", i, q, o)
			}
			if o := g.query(i % coldWindow); o.Kind != q.Kind || o.SizeBytes != q.SizeBytes || o.Mode != q.Mode || shapeOf(o) != shapeOf(q) {
				t.Fatalf("query %d: class differs from the first block's: %+v vs %+v", i, q, o)
			}
		}
		if len(count) != n {
			t.Fatalf("round %d covers %d of %d (kind, size) classes", round, len(count), n)
		}
	}
	if len(modesSeen) != n*len(modes) {
		t.Fatalf("six rounds cover %d of %d (kind, size, mode) classes", len(modesSeen), n*len(modes))
	}
	for c, k := range modesSeen {
		if k != 2 {
			t.Fatalf("class %v asked %d times in six rounds, want 2", c, k)
		}
	}
}

func TestWarmAndChaosDeterministic(t *testing.T) {
	if !reflect.DeepEqual(warmSet(5), warmSet(5)) || !reflect.DeepEqual(warmBatchIndices(5), warmBatchIndices(5)) {
		t.Fatal("warm inputs differ for one seed")
	}
	if reflect.DeepEqual(warmBatchIndices(5), warmBatchIndices(6)) {
		t.Fatal("seeds 5 and 6 generated the same warm requests")
	}
	set := warmSet(5)
	keys := map[string]bool{}
	for _, q := range set {
		k, err := keyOf(q)
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
		if q.SizeBytes > 1<<20 {
			t.Fatalf("warm key %s is larger than 1 MiB", k)
		}
	}
	if len(keys) != warmKeys {
		t.Fatalf("warm set has %d distinct keys, want %d", len(keys), warmKeys)
	}
	// Every plan seed the answer table records is some run seed's.
	plans := map[int64]bool{}
	for seed := int64(1); seed <= 100; seed++ {
		plans[chaosCampaignSeed(seed)] = true
	}
	if len(plans) != len(chaosSeeds) {
		t.Fatalf("seeds 1..100 reach %d of %d chaos plan seeds", len(plans), len(chaosSeeds))
	}
}

func TestRecipeReuse(t *testing.T) {
	lat := server.Query{Kind: "latency", Mode: "cod", Protocol: "mesi", FromNode: 0, ToNode: 2, SizeBytes: 1 << 20}
	bw := lat
	bw.Kind, bw.FromNode, bw.Cores = "bandwidth", 3, 2 // same home node, size and config
	other := lat
	other.Protocol = "moesi"
	place := server.Query{Kind: "placement", Mode: "cod", Protocol: "mesi", FromNode: 1, SizeBytes: 1 << 20}
	cases := []struct {
		qs   []server.Query
		want float64
	}{
		{nil, 0},
		{[]server.Query{lat, bw}, 0.5},
		{[]server.Query{lat, other}, 0},
		{[]server.Query{lat, place}, 0},   // places on all four nodes
		{[]server.Query{place, lat}, 0.5}, // node 2 already placed
	}
	for i, c := range cases {
		if got := recipeReuse(c.qs); got != c.want {
			t.Errorf("case %d: reuse %v, want %v", i, got, c.want)
		}
	}
}

func TestWarmRanksKeepTheirClass(t *testing.T) {
	a, b := warmSet(1), warmSet(2)
	differ := false
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Mode != b[i].Mode || a[i].SizeBytes != b[i].SizeBytes {
			t.Fatalf("rank %d: class differs between seeds: %+v vs %+v", i, a[i], b[i])
		}
		differ = differ || a[i] != b[i]
	}
	if !differ {
		t.Fatal("seeds 1 and 2 picked the same warm keys")
	}
}
