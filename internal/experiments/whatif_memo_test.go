package experiments

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"haswellep/internal/bench"
	"haswellep/internal/coherence"
	"haswellep/internal/machine"
	"haswellep/internal/mesif"
	"haswellep/internal/topology"
	"haswellep/internal/units"
)

// placedSizes are the differential's working sets: one inside L2, one
// beyond a socket's 30 MiB L3, and one whose line count (65) is not a
// multiple of the checker's sample period.
var placedSizes = []int64{128 * units.KiB, 32 * units.MiB, 4*units.KiB + 64}

// TestPlacedRestoreMatchesReplay is the memo's differential proof, one
// subtest per snoop mode × protocol × size. In each, every what-if kind is
// answered twice — replaying every placement, and restoring every
// placement from the memo — and the two answers must be byte-identical
// JSON and leave identical engine state: caches, directories, every
// counter, and the transaction sequence number the sampled checker keys
// off. The subtest also compares the state right after one restored and
// one replayed placement reached by different histories.
func TestPlacedRestoreMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("27 systems × 3 what-if kinds, a third of them at 32 MiB; the -short race pass covers the fast tests")
	}
	for _, mode := range []machine.SnoopMode{machine.SourceSnoop, machine.HomeSnoop, machine.COD} {
		for _, proto := range coherence.IDs() {
			for _, size := range placedSizes {
				t.Run(fmt.Sprintf("%s/%s/%d", modeToken(mode), proto, size), func(t *testing.T) {
					t.Parallel()
					checkRestoreMatchesReplay(t, mode, proto, size)
				})
			}
		}
	}
}

func checkRestoreMatchesReplay(t *testing.T, mode machine.SnoopMode, proto coherence.ID, size int64) {
	memo := newPlacedStore(placedMemoBudget)
	lines := uint64(size / 64)
	spec := func(kind WhatIfKind) WhatIfSpec {
		s, err := WhatIfSpec{Kind: kind, Mode: mode, Protocol: proto, Die: topology.Die12,
			From: 0, To: 1, SizeBytes: size, Cores: 4}.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	newEnv := func(memo *placedStore) *Env {
		env, err := NewEnvCfg(spec(WhatIfLatency).Config())
		if err != nil {
			t.Fatal(err)
		}
		env.memo = memo
		return env
	}
	answer := func(kind WhatIfKind, memo *placedStore) (*Env, string) {
		env := newEnv(memo)
		ans, err := answerOn(env, spec(kind))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(ans)
		if err != nil {
			t.Fatal(err)
		}
		return env, string(b)
	}
	expectStats := func(when string, want placedStats) {
		t.Helper()
		if got := memo.snapshotStats(); got != want {
			t.Fatalf("%s: memo stats %+v, want %+v", when, got, want)
		}
	}

	// The placement kind places a buffer on every node: its first run
	// fills the memo for each, its second restores each.
	nodes := uint64(spec(WhatIfPlacement).Nodes())
	replayEnv, replayed := answer(WhatIfPlacement, memo)
	expectStats("replayed placement what-if", placedStats{misses: nodes, issued: 2 * lines * nodes})
	restoreEnv, restored := answer(WhatIfPlacement, memo)
	expectStats("restored placement what-if", placedStats{hits: nodes, misses: nodes, issued: 2 * lines * nodes})
	sameAnswer(t, WhatIfPlacement, replayEnv, replayed, restoreEnv, restored)

	// Latency and bandwidth (node 0 reading node 1's memory) restore the
	// entry the placement kind filled; their references run without a
	// memo.
	for i, kind := range []WhatIfKind{WhatIfLatency, WhatIfBandwidth} {
		replayEnv, replayed := answer(kind, nil)
		restoreEnv, restored := answer(kind, memo)
		expectStats("restored "+string(kind)+" what-if",
			placedStats{hits: nodes + uint64(i) + 1, misses: nodes, issued: 2 * lines * nodes})
		sameAnswer(t, kind, replayEnv, replayed, restoreEnv, restored)
	}

	// Right after the placement: each env first runs ten unrelated
	// transactions — a different ten on each — so the placement starts
	// mid-way through a sample period, on counters the two histories left
	// differently until Fresh.
	place := func(memo *placedStore, pre func(env *Env)) mesif.Snapshot {
		env := newEnv(memo)
		env.Fresh()
		pre(env)
		r := env.Alloc(1, size)
		env.Fresh()
		env.placeFlushed(env.FirstCore(1), r)
		if memo != nil && env.P.Issued() != 0 {
			t.Errorf("restored placement issued %d transactions", env.P.Issued())
		}
		return env.E.Snapshot()
	}
	want := place(nil, func(env *Env) { env.placeFlushed(env.FirstCore(0), env.Alloc(0, 5*64)) })
	got := place(memo, func(env *Env) {
		for _, l := range env.Alloc(0, 10*64).Lines() {
			env.E.Read(env.FirstCore(1), l)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot right after a restored placement differs from one after a replayed placement (seq %d vs %d)", got.Seq, want.Seq)
	}
	if want.Seq%16 == 0 {
		t.Errorf("sequence number %d leaves the sampler phase untested", want.Seq)
	}
}

// sameAnswer requires byte-identical answers and engine states from a
// replayed and a restored run, and no placement work on the restored one.
func sameAnswer(t *testing.T, kind WhatIfKind, replayEnv *Env, replayed string, restoreEnv *Env, restored string) {
	t.Helper()
	if replayed != restored {
		t.Errorf("%s: restored answer differs from replayed:\nreplayed: %s\nrestored: %s", kind, replayed, restored)
	}
	if a, b := replayEnv.E.Snapshot(), restoreEnv.E.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: engine state after the restored query differs from the replayed one (seq %d vs %d)", kind, b.Seq, a.Seq)
	}
	if n := restoreEnv.P.Issued(); n != 0 {
		t.Errorf("%s: restored query issued %d placement transactions, want 0", kind, n)
	}
}

// TestPlacedMemoWorkCounter pins the memo's work with the placer's
// deterministic transaction counter: a miss issues 2 × lines (a write and
// a flush per line), a hit issues none, and every bypass — a chaos point's
// fault-injecting engine, an attached flight recorder, a machine that ran
// a transaction since its Fresh — issues the full count again.
func TestPlacedMemoWorkCounter(t *testing.T) {
	const size = 64 * units.KiB
	lines := uint64(size / 64)
	memo := newPlacedStore(placedMemoBudget)
	place := func(env *Env, dirty bool) uint64 {
		env.memo = memo
		r := env.Alloc(1, size)
		env.Fresh()
		if dirty {
			env.E.Read(0, r.Lines()[0])
		}
		before := env.P.Issued()
		env.placeFlushed(env.FirstCore(1), r)
		return env.P.Issued() - before
	}
	if got := place(NewEnv(machine.COD), false); got != 2*lines {
		t.Errorf("miss issued %d transactions, want %d", got, 2*lines)
	}
	if got := place(NewEnv(machine.COD), false); got != 0 {
		t.Errorf("hit issued %d transactions, want 0", got)
	}
	// Rate 0 leaves the configuration untouched, so the key is the one
	// memoized above: only the injector keeps the point off the memo.
	for _, rate := range []float64{0, 0.05} {
		env, err := NewEnvWithFaultsProto(machine.COD, ChaosPlanAt(11, rate), coherence.MESIF)
		if err != nil {
			t.Fatal(err)
		}
		if got := place(env, false); got != 2*lines {
			t.Errorf("chaos engine at rate %g issued %d transactions, want the full %d", rate, got, 2*lines)
		}
	}
	recorded := NewEnv(machine.COD)
	defer recorded.AttachFlightRecorder(t.TempDir(), 0).Detach()
	if got := place(recorded, false); got != 2*lines {
		t.Errorf("flight-recorded env issued %d transactions, want the full %d", got, 2*lines)
	}
	if got := place(NewEnv(machine.COD), true); got != 2*lines {
		t.Errorf("not-just-Fresh env issued %d transactions, want the full %d", got, 2*lines)
	}
	want := placedStats{hits: 1, misses: 1, bypassed: 4, issued: 5 * 2 * lines}
	if got := memo.snapshotStats(); got != want {
		t.Errorf("memo stats %+v, want %+v", got, want)
	}
}

// TestWhatIfBundleDirBypassesMemo: through the serving entry point, a
// repeated query restores from the process-wide memo, while the same query
// with a bundle directory (flight recorder attached) replays its
// placement — and answers identically either way.
func TestWhatIfBundleDirBypassesMemo(t *testing.T) {
	s, err := WhatIfSpec{Kind: WhatIfLatency, Mode: machine.COD, Die: topology.Die12,
		From: 0, To: 1, SizeBytes: 96 * units.KiB}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	lines := uint64(s.SizeBytes / 64)
	first, err := RunWhatIf(nil, s, WhatIfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := placedMemo.snapshotStats()
	hit, err := RunWhatIf(nil, s, WhatIfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mid := placedMemo.snapshotStats()
	if mid.hits != before.hits+1 || mid.issued != before.issued {
		t.Errorf("repeat query: memo stats %+v -> %+v, want one hit and no transactions", before, mid)
	}
	bundled, err := RunWhatIf(nil, s, WhatIfOptions{BundleDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	after := placedMemo.snapshotStats()
	if after.hits != mid.hits || after.bypassed != mid.bypassed+1 || after.issued != mid.issued+2*lines {
		t.Errorf("bundle-dir query: memo stats %+v -> %+v, want a bypass issuing %d transactions", mid, after, 2*lines)
	}
	for _, a := range []WhatIfAnswer{hit, bundled} {
		if !reflect.DeepEqual(a, first) {
			t.Errorf("answer %+v differs from the first %+v", *a.Latency, *first.Latency)
		}
	}
}

// TestPlacedStoreBudget: the memo evicts oldest-first to stay within its
// byte budget and refuses an entry larger than the whole budget.
func TestPlacedStoreBudget(t *testing.T) {
	s := newPlacedStore(100)
	key := func(i int) placedKey { return placedKey{recipe: recipeModifiedFlushAll, size: int64(i)} }
	for i := 1; i <= 3; i++ {
		s.store(key(i), &placedEntry{bytes: 40})
	}
	if s.lookup(key(1)) != nil || s.lookup(key(2)) == nil || s.lookup(key(3)) == nil {
		t.Errorf("after three 40-byte entries in a 100-byte budget, want the oldest evicted")
	}
	if s.bytes != 80 {
		t.Errorf("retained %d bytes, want 80", s.bytes)
	}
	s.store(key(4), &placedEntry{bytes: 101})
	if s.lookup(key(4)) != nil || s.bytes != 80 {
		t.Errorf("an entry over the whole budget was stored")
	}
}

// TestPlacedMemoConcurrent: farm shards share the process-wide memo, so
// concurrent misses, stores, and restores of one key must be race-free
// and every goroutine must measure the same answer.
func TestPlacedMemoConcurrent(t *testing.T) {
	memo := newPlacedStore(placedMemoBudget)
	const workers, rounds = 4, 3
	got := make([][rounds]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			env := NewEnv(machine.COD)
			env.memo = memo
			r := env.Alloc(1, 64*units.KiB)
			for i := range got[w] {
				env.Fresh()
				env.placeFlushed(env.FirstCore(1), r)
				got[w][i] = bench.Latency(env.E, env.FirstCore(0), r).MeanNs
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if got[w] != got[0] {
			t.Errorf("worker %d measured %v, worker 0 %v", w, got[w], got[0])
		}
	}
	if st := memo.snapshotStats(); st.hits+st.misses != workers*rounds || st.hits == 0 {
		t.Errorf("memo stats %+v after %d placements", st, workers*rounds)
	}
}
