package main

import (
	"fmt"
	"math/rand"
	"sort"

	"haswellep/internal/server"
)

// The generators turn a seed into the inputs the program sees: wire-form
// what-if queries for the two serving workloads and a campaign plan for the
// chaos workload. Every query comes from a fixed, enumerable universe, so
// expected.json can hold the recorded answer of every query any seed can
// send, and every run checks every served answer against it.

// Working-set sizes, doubling from a private L2 (256 KiB) through the L3
// (30 MiB per socket on the 12-core die) to beyond it, so query costs
// spread smoothly rather than in a few far-apart steps.
var sizes = []int64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20}

var (
	kinds     = []string{"latency", "bandwidth", "placement"}
	modes     = []string{"source", "home", "cod"}
	protocols = []string{"mesif", "mesi", "moesi"}
)

// bandwidthCores gives the concurrent-reader count of a bandwidth query by
// size class; it only moves the modelled aggregate, not the work done.
var bandwidthCores = []int{1, 1, 2, 2, 4, 4, 8, 12}

// nodesOf is the NUMA node count of a snoop mode on the 2-socket system.
func nodesOf(mode string) int {
	if mode == "cod" {
		return 4
	}
	return 2
}

// universe returns every what-if query the serving workloads may send,
// grouped into classes by (kind, size): class kind*len(sizes)+size.
func universe() [][]server.Query {
	classes := make([][]server.Query, len(kinds)*len(sizes))
	for ki, kind := range kinds {
		for si, size := range sizes {
			var qs []server.Query
			for _, mode := range modes {
				for _, proto := range protocols {
					n := nodesOf(mode)
					for from := 0; from < n; from++ {
						if kind == "placement" {
							qs = append(qs, server.Query{Kind: kind, Mode: mode, Protocol: proto, FromNode: from, SizeBytes: size})
							continue
						}
						for to := 0; to < n; to++ {
							q := server.Query{Kind: kind, Mode: mode, Protocol: proto, FromNode: from, ToNode: to, SizeBytes: size}
							if kind == "bandwidth" {
								q.Cores = bandwidthCores[si]
							}
							qs = append(qs, q)
						}
					}
				}
			}
			classes[ki*len(sizes)+si] = qs
		}
	}
	return classes
}

// keyOf is a query's canonical memo key (what the server journals it
// under).
func keyOf(q server.Query) (string, error) {
	s, err := q.Spec()
	if err != nil {
		return "", err
	}
	return s.Key(), nil
}

// coldGen yields the whatif-cold stream. Every seed asks for the same
// work in the same order, and so does every block of 72 queries: one per
// (kind, size, mode), in rounds of 24 with the snoop mode rotating. Each
// block position also has a fixed shape (its protocol and, for latency
// and bandwidth, whether it stays on one node, crosses to the other node
// of a socket, or crosses sockets), because the shape, not the choice of
// nodes, sets what a query costs; the positions' shapes mix every protocol
// and distance. The seed
// picks the nodes among the position's mirror images and walks them one
// block at a time. Once they are used up the stream goes round them again
// with a Label, which partitions the memo key (the query is still a
// journal miss) without changing the answer.
type coldGen struct {
	// classes holds one block: the queries the stream sends at its i-th
	// position, in order.
	classes [][]server.Query
}

func newColdGen(seed int64) *coldGen {
	// A round walks the sizes upward, each size's three kinds in a row, so
	// the two clients mostly run queries of one size side by side.
	posOf := map[[3]int]int{} // (kind, size, mode) → position in the block
	for round := 0; round < len(modes); round++ {
		for s := range sizes {
			for k := range kinds {
				posOf[[3]int{k, s, (round + k + s) % len(modes)}] = len(posOf)
			}
		}
	}
	g := &coldGen{classes: make([][]server.Query, len(posOf))}
	modeIdx := map[string]int{}
	for i, m := range modes {
		modeIdx[m] = i
	}
	for ci, class := range universe() {
		k, s := ci/len(sizes), ci%len(sizes)
		for _, q := range class {
			c := posOf[[3]int{k, s, modeIdx[q.Mode]}]
			g.classes[c] = append(g.classes[c], q)
		}
	}
	r := rand.New(rand.NewSource(seed))
	for c, pool := range g.classes {
		g.classes[c] = oneShape(pool, c, r)
	}
	return g
}

// shapeOf is the part of a what-if query that sets its cost: the protocol
// and, for latency and bandwidth, the distance from the measuring node to
// the home node. Queries of one class and shape differ only in which nodes
// play the two roles.
func shapeOf(q server.Query) string {
	if q.Kind == "placement" {
		return q.Protocol
	}
	perSocket := nodesOf(q.Mode) / 2
	dist := "remote"
	switch {
	case q.FromNode == q.ToNode:
		dist = "local"
	case q.FromNode/perSocket == q.ToNode/perSocket:
		dist = "socket"
	}
	return q.Protocol + "/" + dist
}

// oneShape keeps the queries of one shape of a class, in the seed's
// order. The class's block position c picks the shape, so that one block
// mixes the shapes.
func oneShape(pool []server.Query, c int, r *rand.Rand) []server.Query {
	var order []string // first-seen order, the same for every seed
	groups := map[string][]server.Query{}
	for _, q := range pool {
		sh := shapeOf(q)
		if groups[sh] == nil {
			order = append(order, sh)
		}
		groups[sh] = append(groups[sh], q)
	}
	g := groups[order[c%len(order)]]
	r.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	return g
}

// query returns the i-th query of the stream.
func (g *coldGen) query(i int) server.Query {
	block, pos := i/len(g.classes), i%len(g.classes)
	pool := g.classes[pos]
	q := pool[block%len(pool)]
	if round := block / len(pool); round > 0 {
		q.Label = fmt.Sprintf("r%d", round)
	}
	return q
}

// Warm workload shape: a key set of warmKeys queries, requested in batches
// of warmBatch queries whose keys follow a Zipf law over the set, so
// batches carry duplicates and hot keys. As in the cold stream, the key at
// each rank has the same kind, size (256 KiB to 1 MiB, so set-up stays
// cheap) and mode for every seed; the seed picks its protocol and nodes.
const (
	warmKeys    = 48
	warmBatch   = 16
	warmBatches = 1024
	warmZipfS   = 1.2
	warmSizes   = 3
)

// warmSet returns the seed's warm key set, hottest rank first.
func warmSet(seed int64) []server.Query {
	byClass := map[[3]string][]server.Query{}
	var classes [][3]string // first-seen order, so shuffles are reproducible
	for _, class := range universe() {
		for _, q := range class {
			if q.SizeBytes <= sizes[warmSizes-1] {
				c := [3]string{q.Kind, q.Mode, sizeName(q.SizeBytes)}
				if byClass[c] == nil {
					classes = append(classes, c)
				}
				byClass[c] = append(byClass[c], q)
			}
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, c := range classes {
		p := byClass[c]
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	set := make([]server.Query, warmKeys)
	used := map[[3]string]int{}
	for i := range set {
		k, sz := i%len(kinds), (i/len(kinds))%warmSizes
		m := (i/(len(kinds)*warmSizes) + k + sz) % len(modes)
		c := [3]string{kinds[k], modes[m], sizeName(sizes[sz])}
		set[i] = byClass[c][used[c]]
		used[c]++
	}
	return set
}

// warmBatchIndices returns the seed's request pool: warmBatches batches of
// indices into the warm key set, skewed toward the first keys.
func warmBatchIndices(seed int64) [][]int {
	r := rand.New(rand.NewSource(seed ^ 0xba7c4))
	z := rand.NewZipf(r, warmZipfS, 1, warmKeys-1)
	out := make([][]int, warmBatches)
	for b := range out {
		idx := make([]int, warmBatch)
		for i := range idx {
			idx[i] = int(z.Uint64())
		}
		out[b] = idx
	}
	return out
}

// The chaos probe's campaign sweeps chaosRates (rate 0 first, the inert
// baseline) under a fault-plan seed from chaosSeeds.
var (
	chaosRates = []float64{0, 0.02, 0.05, 0.1}
	chaosSeeds = []int64{1, 2, 3, 4, 5, 6}
)

// chaosCampaignSeed returns the fault-plan seed of a run's campaign.
func chaosCampaignSeed(seed int64) int64 {
	return chaosSeeds[rand.New(rand.NewSource(seed^0xc4a05)).Intn(len(chaosSeeds))]
}

// mix summarizes a query list: the share of each kind, mode and size, and
// the placement recipe reuse.
type mix struct {
	N            int                `json:"n"`
	Kind         map[string]float64 `json:"kind"`
	Mode         map[string]float64 `json:"mode"`
	Size         map[string]float64 `json:"size"`
	RecipeReuse  float64            `json:"recipe_reuse"`
	DistinctKeys int                `json:"distinct_keys"`
	Labelled     int                `json:"labelled_queries"`
}

// recipes lists the placements a what-if query performs: the buffer is
// modified then flushed by the first core of each home node it measures,
// on a machine of the query's configuration.
func recipes(q server.Query) []string {
	cfg := fmt.Sprintf("%s/%s", q.Mode, q.Protocol)
	if q.Kind == "placement" {
		out := make([]string, nodesOf(q.Mode))
		for to := range out {
			out[to] = fmt.Sprintf("%s/home%d/%d", cfg, to, q.SizeBytes)
		}
		return out
	}
	return []string{fmt.Sprintf("%s/home%d/%d", cfg, q.ToNode, q.SizeBytes)}
}

// recipeReuse is the share of queries all of whose placements an earlier
// query in the list already performed.
func recipeReuse(qs []server.Query) float64 {
	if len(qs) == 0 {
		return 0
	}
	done := map[string]bool{}
	reused := 0
	for _, q := range qs {
		all := true
		rs := recipes(q)
		for _, r := range rs {
			all = all && done[r]
		}
		if all {
			reused++
		}
		for _, r := range rs {
			done[r] = true
		}
	}
	return float64(reused) / float64(len(qs))
}

func summarize(qs []server.Query) mix {
	m := mix{N: len(qs), Kind: map[string]float64{}, Mode: map[string]float64{}, Size: map[string]float64{}}
	keys := map[string]bool{}
	for _, q := range qs {
		m.Kind[q.Kind]++
		m.Mode[q.Mode]++
		m.Size[sizeName(q.SizeBytes)]++
		k, _ := keyOf(q)
		keys[k] = true
		if q.Label != "" {
			m.Labelled++
		}
	}
	for _, mm := range []map[string]float64{m.Kind, m.Mode, m.Size} {
		for k := range mm {
			mm[k] = round4(mm[k] / float64(len(qs)))
		}
	}
	m.RecipeReuse = round4(recipeReuse(qs))
	m.DistinctKeys = len(keys)
	return m
}

func sizeName(b int64) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%dMiB", b>>20)
	}
	return fmt.Sprintf("%dKiB", b>>10)
}

func round4(x float64) float64 {
	return float64(int64(x*10000+0.5)) / 10000
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
