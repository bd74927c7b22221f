package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestSplitSignaturesEqualSignature pins the row split of Signatures: at
// one range, at ranges that do and do not divide the rows, and at more
// ranges than rows, every signature equals Signature's, sets of very
// different sizes and the empty set included.
func TestSplitSignaturesEqualSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := [][]string{nil, {"solo"}}
	for _, size := range []int{3, 40, 700} {
		set := make([]string, size)
		for i := range set {
			set[i] = fmt.Sprintf("tok%d", rng.Intn(2*size))
		}
		sets = append(sets, set)
	}
	for _, sigLen := range []int{1, 7, 128} {
		h := NewMinHasher(sigLen, 42)
		want := make([][]uint64, len(sets))
		for i, set := range sets {
			want[i] = h.Signature(set)
		}
		for _, ranges := range []int{1, 2, 3, sigLen + 5} {
			got := h.signatures(sets, ranges)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("signature length %d, %d ranges: split signatures differ from Signature's", sigLen, ranges)
			}
		}
	}
	if got := NewMinHasher(16, 1).Signatures(sets); len(got) != len(sets) {
		t.Fatalf("Signatures returned %d signatures for %d sets", len(got), len(sets))
	}
}

func TestSignatureDeterministic(t *testing.T) {
	h := NewMinHasher(64, 7)
	a := h.Signature([]string{"x", "y", "z"})
	b := h.Signature([]string{"x", "y", "z"})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same input, same hasher, different signatures")
	}
}

func TestSignatureOrderInvariant(t *testing.T) {
	h := NewMinHasher(64, 7)
	a := h.Signature([]string{"x", "y", "z"})
	b := h.Signature([]string{"z", "x", "y"})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("MinHash must not depend on token order")
	}
}

func TestIdenticalSetsEstimateOne(t *testing.T) {
	h := NewMinHasher(128, 3)
	a := h.Signature([]string{"a", "b", "c"})
	b := h.Signature([]string{"a", "b", "c"})
	if got := EstimateJaccard(a, b); got != 1 {
		t.Fatalf("estimate=%f", got)
	}
}

func TestDisjointSetsEstimateNearZero(t *testing.T) {
	h := NewMinHasher(256, 3)
	var xs, ys []string
	for i := 0; i < 50; i++ {
		xs = append(xs, fmt.Sprintf("x%d", i))
		ys = append(ys, fmt.Sprintf("y%d", i))
	}
	got := EstimateJaccard(h.Signature(xs), h.Signature(ys))
	if got > 0.05 {
		t.Fatalf("estimate=%f for disjoint sets", got)
	}
}

// TestEstimateTracksExactJaccard is the statistical core property of
// MinHash: the estimate converges to the exact Jaccard similarity.
func TestEstimateTracksExactJaccard(t *testing.T) {
	h := NewMinHasher(512, 11)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		shared := 10 + rng.Intn(60)
		onlyA := rng.Intn(50)
		onlyB := rng.Intn(50)
		var a, b []string
		for i := 0; i < shared; i++ {
			tok := fmt.Sprintf("s%d-%d", trial, i)
			a = append(a, tok)
			b = append(b, tok)
		}
		for i := 0; i < onlyA; i++ {
			a = append(a, fmt.Sprintf("a%d-%d", trial, i))
		}
		for i := 0; i < onlyB; i++ {
			b = append(b, fmt.Sprintf("b%d-%d", trial, i))
		}
		exact := ExactJaccard(a, b)
		est := EstimateJaccard(h.Signature(a), h.Signature(b))
		if math.Abs(exact-est) > 0.12 {
			t.Fatalf("trial %d: exact=%.3f est=%.3f", trial, exact, est)
		}
	}
}

func TestExactJaccard(t *testing.T) {
	if got := ExactJaccard([]string{"a", "b"}, []string{"b", "c"}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("got %f", got)
	}
	if got := ExactJaccard(nil, nil); got != 0 {
		t.Fatalf("empty sets: %f", got)
	}
	if got := ExactJaccard([]string{"a", "a", "b"}, []string{"a", "b", "b"}); got != 1 {
		t.Fatalf("duplicates must be ignored: %f", got)
	}
}

func TestBandingParams(t *testing.T) {
	bands, rows := BandingParams(128, 0.3)
	if bands*rows != 128 {
		t.Fatalf("bands*rows=%d", bands*rows)
	}
	// Low thresholds need many bands (few rows).
	if rows > 8 {
		t.Fatalf("rows=%d too selective for threshold 0.3", rows)
	}
	bandsHi, rowsHi := BandingParams(128, 0.95)
	if bandsHi*rowsHi != 128 {
		t.Fatalf("bands*rows=%d", bandsHi*rowsHi)
	}
	if rowsHi < rows {
		t.Fatal("higher threshold should not use fewer rows per band")
	}
}

func TestCandidatesFindSimilarPairs(t *testing.T) {
	h := NewMinHasher(128, 13)
	// Three items: 0 and 1 nearly identical, 2 unrelated.
	base := make([]string, 40)
	for i := range base {
		base[i] = fmt.Sprintf("tok%d", i)
	}
	almost := append(append([]string{}, base[:38]...), "extra1", "extra2")
	other := make([]string, 40)
	for i := range other {
		other[i] = fmt.Sprintf("zzz%d", i)
	}
	sigs := [][]uint64{h.Signature(base), h.Signature(almost), h.Signature(other)}
	bands, rows := BandingParams(128, 0.5)
	cands := Candidates(sigs, bands, rows)
	found := false
	for _, c := range cands {
		if c.I == 0 && c.J == 1 {
			found = true
		}
		if c.J == 2 || c.I == 2 {
			t.Fatalf("unrelated item joined a candidate pair: %v", c)
		}
	}
	if !found {
		t.Fatal("highly similar pair not found by banding")
	}
}

func TestCandidatesDeterministicOrder(t *testing.T) {
	h := NewMinHasher(64, 1)
	sigs := [][]uint64{
		h.Signature([]string{"a", "b"}),
		h.Signature([]string{"a", "b"}),
		h.Signature([]string{"a", "b", "c"}),
	}
	c1 := Candidates(sigs, 16, 4)
	c2 := Candidates(sigs, 16, 4)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("candidate order not deterministic")
	}
	for _, c := range c1 {
		if c.I >= c.J {
			t.Fatalf("pair not canonical: %v", c)
		}
	}
}

func TestMulModMatchesBigIntSemantics(t *testing.T) {
	// Cross-check the Mersenne reduction against the naive computation on
	// values small enough for it.
	f := func(a, b uint32) bool {
		x, y := uint64(a), uint64(b)
		want := (x * y) % mersennePrime
		return mulmod(x, y) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulModLargeOperands(t *testing.T) {
	// Known identity: (p-1)*(p-1) mod p = 1 for prime p.
	const p = mersennePrime
	if got := mulmod(p-1, p-1); got != 1 {
		t.Fatalf("(p-1)^2 mod p = %d, want 1", got)
	}
	if got := mulmod(p, 5); got != 0 {
		t.Fatalf("p*5 mod p = %d, want 0", got)
	}
}

func TestEmptySignatureMatchesNothing(t *testing.T) {
	h := NewMinHasher(64, 9)
	empty := h.Signature(nil)
	full := h.Signature([]string{"a"})
	if got := EstimateJaccard(empty, full); got != 0 {
		t.Fatalf("estimate=%f", got)
	}
}
