package metablocking

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sparker/internal/blocking"
	"sparker/internal/dataflow"
	"sparker/internal/profile"
)

// testIndex builds a deterministic block index over n dirty profiles with
// pseudo-random token blocks, for cross-implementation comparisons.
func testIndex(n int, seed int64) *blocking.Index {
	next := uint64(seed)*2654435761 + 1
	rnd := func(mod int) int {
		next = next*6364136223846793005 + 1442695040888963407
		return int((next >> 33) % uint64(mod))
	}
	numTokens := n/2 + 3
	members := make(map[int][]profile.ID)
	for id := 0; id < n; id++ {
		k := 2 + rnd(4)
		seen := map[int]bool{}
		for j := 0; j < k; j++ {
			tok := rnd(numTokens)
			if !seen[tok] {
				seen[tok] = true
				members[tok] = append(members[tok], profile.ID(id))
			}
		}
	}
	col := &blocking.Collection{NumProfiles: n}
	for tok := 0; tok < numTokens; tok++ {
		ids := members[tok]
		if len(ids) < 2 {
			continue
		}
		col.Blocks = append(col.Blocks, blocking.Block{Key: fmt.Sprintf("t%d", tok), ClusterID: blocking.NoCluster, A: ids})
	}
	return blocking.BuildIndex(col)
}

func allSchemes() []Scheme { return []Scheme{CBS, ECBS, JS, EJS, ARCS} }

func allPrunings() []Pruning {
	return []Pruning{WEP, CEP, WNP, ReciprocalWNP, CNP, ReciprocalCNP, BlastPruning}
}

func TestSchemeAndPruningNames(t *testing.T) {
	for _, s := range allSchemes() {
		if s.String() == "unknown" {
			t.Fatalf("scheme %d unnamed", s)
		}
	}
	for _, p := range allPrunings() {
		if p.String() == "unknown" {
			t.Fatalf("pruning %d unnamed", p)
		}
	}
	if Scheme(99).String() != "unknown" || Pruning(99).String() != "unknown" {
		t.Fatal("out-of-range names")
	}
}

// TestParseInvertsName pins the one name table: parsing a scheme's or a
// rule's configuration spelling, in any case, gives it back.
func TestParseInvertsName(t *testing.T) {
	for _, s := range allSchemes() {
		for _, name := range []string{s.Name(), strings.ToUpper(s.Name()), s.String()} {
			if got, err := ParseScheme(name); err != nil || got != s {
				t.Fatalf("ParseScheme(%q) = %v, %v; want %v", name, got, err, s)
			}
		}
	}
	for _, p := range allPrunings() {
		for _, name := range []string{p.Name(), strings.ToUpper(p.Name())} {
			if got, err := ParsePruning(name); err != nil || got != p {
				t.Fatalf("ParsePruning(%q) = %v, %v; want %v", name, got, err, p)
			}
		}
	}
	if _, err := ParseScheme("x"); err == nil {
		t.Fatal("ParseScheme accepted an unknown name")
	}
	if _, err := ParsePruning(""); err == nil {
		t.Fatal("ParsePruning accepted an empty name")
	}
	if Scheme(99).Name() != "unknown" || Pruning(-1).Name() != "unknown" {
		t.Fatal("out-of-range names")
	}
}

func TestRunProducesCanonicalEdges(t *testing.T) {
	idx := testIndex(30, 1)
	for _, s := range allSchemes() {
		for _, p := range allPrunings() {
			edges := Run(idx, Options{Scheme: s, Pruning: p})
			seen := map[[2]profile.ID]bool{}
			for _, e := range edges {
				if e.A >= e.B {
					t.Fatalf("%v/%v: non-canonical edge %+v", s, p, e)
				}
				key := [2]profile.ID{e.A, e.B}
				if seen[key] {
					t.Fatalf("%v/%v: duplicate edge %+v", s, p, e)
				}
				seen[key] = true
				if e.Weight <= 0 {
					t.Fatalf("%v/%v: non-positive weight %+v", s, p, e)
				}
			}
		}
	}
}

func TestPruningReducesEdges(t *testing.T) {
	idx := testIndex(40, 2)
	g := newGraphContext(idx, Options{Scheme: CBS})
	total := len(allEdges(g, idx.ProfileIDs()))
	for _, p := range allPrunings() {
		// Use the continuous JS weights: CBS weights on this dense toy
		// graph are small integers whose ties make threshold rules
		// (legitimately) keep everything.
		opts := Options{Scheme: JS, Pruning: p}
		if p == CEP {
			// CEP's literature default K is BC/2, which here exceeds the
			// edge count; give it a real budget.
			opts.TopK = total / 2
		}
		edges := Run(idx, opts)
		if len(edges) == 0 {
			t.Fatalf("%v retained nothing", p)
		}
		if len(edges) >= total {
			t.Fatalf("%v retained all %d edges", p, total)
		}
	}
}

func TestReciprocalStricter(t *testing.T) {
	idx := testIndex(40, 3)
	wnp := Run(idx, Options{Scheme: JS, Pruning: WNP})
	rwnp := Run(idx, Options{Scheme: JS, Pruning: ReciprocalWNP})
	if len(rwnp) > len(wnp) {
		t.Fatalf("reciprocal WNP kept %d > WNP %d", len(rwnp), len(wnp))
	}
	asSet := func(es []Edge) map[[2]profile.ID]bool {
		m := map[[2]profile.ID]bool{}
		for _, e := range es {
			m[[2]profile.ID{e.A, e.B}] = true
		}
		return m
	}
	w := asSet(wnp)
	for k := range asSet(rwnp) {
		if !w[k] {
			t.Fatalf("reciprocal edge %v not kept by plain WNP", k)
		}
	}
}

func TestCEPRespectsTopK(t *testing.T) {
	idx := testIndex(40, 4)
	edges := Run(idx, Options{Scheme: CBS, Pruning: CEP, TopK: 5})
	// Ties at the k-th weight may exceed K slightly, never by more than the
	// tie class size; sanity-bound it.
	if len(edges) < 5 {
		t.Fatalf("CEP kept %d < K", len(edges))
	}
	minKept := math.Inf(1)
	for _, e := range edges {
		if e.Weight < minKept {
			minKept = e.Weight
		}
	}
	// Every non-kept edge must weigh strictly less than the threshold.
	g := newGraphContext(idx, Options{Scheme: CBS})
	for _, all := range allEdges(g, idx.ProfileIDs()) {
		if all.Weight > minKept {
			found := false
			for _, e := range edges {
				if e.A == all.A && e.B == all.B {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) w=%f above threshold %f but dropped", all.A, all.B, all.Weight, minKept)
			}
		}
	}
}

func TestCleanCleanSkipsSameSourceEdges(t *testing.T) {
	col := &blocking.Collection{CleanClean: true, NumProfiles: 4}
	col.Blocks = append(col.Blocks, blocking.Block{
		Key: "t", CleanClean: true,
		A: []profile.ID{0, 1}, B: []profile.ID{2, 3},
	})
	idx := blocking.BuildIndex(col)
	edges := Run(idx, Options{Scheme: CBS, Pruning: WEP})
	for _, e := range edges {
		if (e.A < 2) == (e.B < 2) {
			t.Fatalf("same-source edge retained: %+v", e)
		}
	}
	if len(edges) != 4 {
		t.Fatalf("got %d edges, want 4 cross-source", len(edges))
	}
}

func TestEntropyWeightingChangesWeights(t *testing.T) {
	idx := testIndex(30, 5)
	flat := Run(idx, Options{Scheme: CBS, Pruning: WEP})
	ent := Run(idx, Options{Scheme: CBS, Pruning: WEP, Entropy: constEntropy(2.5)})
	if len(flat) != len(ent) {
		// Constant entropy scales all weights uniformly: pruning decisions
		// must be identical.
		t.Fatalf("uniform entropy changed pruning: %d vs %d", len(flat), len(ent))
	}
	for i := range flat {
		if math.Abs(ent[i].Weight-2.5*flat[i].Weight) > 1e-9 {
			t.Fatalf("edge %d: %f != 2.5*%f", i, ent[i].Weight, flat[i].Weight)
		}
	}
}

type constEntropy float64

func (c constEntropy) EntropyOf(int) float64 { return float64(c) }

func TestEJSUsesDegrees(t *testing.T) {
	idx := testIndex(30, 6)
	js := Run(idx, Options{Scheme: JS, Pruning: WEP})
	ejs := Run(idx, Options{Scheme: EJS, Pruning: WEP})
	if reflect.DeepEqual(js, ejs) {
		t.Fatal("EJS identical to JS; degree factor not applied")
	}
}

func TestARCSFavoursSmallBlocks(t *testing.T) {
	// Two blocks: tiny {0,1} and huge {0,2,...,11}. ARCS must weigh the
	// tiny co-occurrence higher.
	col := &blocking.Collection{NumProfiles: 12}
	big := make([]profile.ID, 0, 11)
	big = append(big, 0)
	for i := 2; i < 12; i++ {
		big = append(big, profile.ID(i))
	}
	col.Blocks = []blocking.Block{
		{Key: "tiny", A: []profile.ID{0, 1}},
		{Key: "huge", A: big},
	}
	idx := blocking.BuildIndex(col)
	g := newGraphContext(idx, Options{Scheme: ARCS})
	weights := map[[2]profile.ID]float64{}
	for _, e := range allEdges(g, idx.ProfileIDs()) {
		weights[[2]profile.ID{e.A, e.B}] = e.Weight
	}
	if weights[[2]profile.ID{0, 1}] <= weights[[2]profile.ID{0, 2}] {
		t.Fatalf("tiny-block edge %f not above huge-block edge %f",
			weights[[2]profile.ID{0, 1}], weights[[2]profile.ID{0, 2}])
	}
}

// TestDistributedMatchesSequential is the central equivalence claim of
// the parallel algorithm: bitwise-identical output to the sequential
// driver for every scheme and pruning rule, at several executor counts
// and partition counts — one of them above the node count, so ranges of
// one node and the clamp both run. Both drivers execute one plan, so a
// tolerance here could only hide a driver bug.
func TestDistributedMatchesSequential(t *testing.T) {
	idx := testIndex(50, 7)
	for _, workers := range []int{1, 3} {
		ctx := dataflow.NewContext(dataflow.WithParallelism(workers))
		for _, partitions := range []int{workers * 2, idx.NumProfiles() + 7} {
			for _, s := range allSchemes() {
				for _, p := range allPrunings() {
					seq := Run(idx, Options{Scheme: s, Pruning: p})
					dist, err := RunDistributed(ctx, idx, Options{Scheme: s, Pruning: p}, partitions)
					if err != nil {
						t.Fatalf("%v/%v: %v", s, p, err)
					}
					requireBitwiseEqual(t, fmt.Sprintf("workers=%d partitions=%d %v/%v", workers, partitions, s, p), seq, dist)
				}
			}
		}
		ctx.Close()
	}
}

func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].A != b[i].A || a[i].B != b[i].B || math.Abs(a[i].Weight-b[i].Weight) > 1e-9 {
			return false
		}
	}
	return true
}

func TestNaiveBaselineMatchesBroadcast(t *testing.T) {
	idx := testIndex(40, 8)
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer ctx.Close()
	for _, s := range []Scheme{CBS, ARCS} {
		seq := Run(idx, Options{Scheme: s, Pruning: WEP})
		naive, err := RunNaiveDistributed(ctx, idx, Options{Scheme: s, Pruning: WEP}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !edgesEqual(seq, naive) {
			t.Fatalf("%v: naive baseline diverges", s)
		}
	}
}

func TestNaiveBaselineRejectsUnsupported(t *testing.T) {
	idx := testIndex(10, 9)
	ctx := dataflow.NewContext(dataflow.WithParallelism(1))
	defer ctx.Close()
	if _, err := RunNaiveDistributed(ctx, idx, Options{Scheme: JS, Pruning: WEP}, 2); err == nil {
		t.Fatal("want error for JS")
	}
	if _, err := RunNaiveDistributed(ctx, idx, Options{Scheme: CBS, Pruning: CNP}, 2); err == nil {
		t.Fatal("want error for CNP")
	}
}

func TestNaiveShufflesMoreThanBroadcast(t *testing.T) {
	// The design claim of the broadcast-join algorithm: the naive plan
	// pushes the materialised comparisons through the shuffle, the
	// broadcast plan does not.
	idx := testIndex(60, 10)

	ctx1 := dataflow.NewContext(dataflow.WithParallelism(2))
	if _, err := RunDistributed(ctx1, idx, Options{Scheme: CBS, Pruning: WEP}, 4); err != nil {
		t.Fatal(err)
	}
	broadcastShuffle := ctx1.Metrics().ShuffleRecords
	if built := ctx1.Metrics().BroadcastsBuilt; broadcastShuffle != 0 || built != 2 {
		t.Fatalf("broadcast plan shuffled %d records and registered %d broadcasts; want 0 and 2 (the plan, the keep predicate)",
			broadcastShuffle, built)
	}
	ctx1.Close()

	ctx2 := dataflow.NewContext(dataflow.WithParallelism(2))
	if _, err := RunNaiveDistributed(ctx2, idx, Options{Scheme: CBS, Pruning: WEP}, 4); err != nil {
		t.Fatal(err)
	}
	naiveShuffle := ctx2.Metrics().ShuffleRecords
	ctx2.Close()

	if naiveShuffle <= broadcastShuffle {
		t.Fatalf("naive shuffled %d records, broadcast %d; expected naive >> broadcast",
			naiveShuffle, broadcastShuffle)
	}
}

func TestQuickDistributedEqualsSequentialWEP(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.WithParallelism(3))
	defer ctx.Close()
	f := func(seed int64, sizeByte uint8) bool {
		n := 10 + int(sizeByte%30)
		idx := testIndex(n, seed)
		seq := Run(idx, Options{Scheme: JS, Pruning: WNP})
		dist, err := RunDistributed(ctx, idx, Options{Scheme: JS, Pruning: WNP}, 3)
		if err != nil {
			return false
		}
		return edgesEqual(seq, dist)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyIndex(t *testing.T) {
	idx := blocking.BuildIndex(&blocking.Collection{})
	for _, p := range allPrunings() {
		if got := Run(idx, Options{Scheme: CBS, Pruning: p}); len(got) != 0 {
			t.Fatalf("%v on empty index returned %v", p, got)
		}
	}
}

func TestDefaultTopK(t *testing.T) {
	idx := testIndex(30, 11)
	if k := defaultTopK(idx, CEP); k < 1 {
		t.Fatalf("CEP k=%d", k)
	}
	if k := defaultTopK(idx, CNP); k < 1 {
		t.Fatalf("CNP k=%d", k)
	}
}
