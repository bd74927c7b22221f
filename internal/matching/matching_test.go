package matching

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"sparker/internal/blocking"
	"sparker/internal/dataflow"
	"sparker/internal/datagen"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJaccardTokens(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3},
		{[]string{"a"}, []string{"a"}, 1},
		{[]string{"a"}, []string{"b"}, 0},
		{nil, nil, 0},
		{[]string{"a", "a", "b"}, []string{"a", "b"}, 1},
	}
	for _, c := range cases {
		if got := JaccardTokens(c.a, c.b); !almostEqual(got, c.want) {
			t.Errorf("Jaccard(%v,%v)=%f want %f", c.a, c.b, got, c.want)
		}
	}
}

func TestDiceOverlap(t *testing.T) {
	if got := DiceTokens([]string{"a", "b"}, []string{"b", "c"}); !almostEqual(got, 0.5) {
		t.Fatalf("dice=%f", got)
	}
	if got := DiceTokens(nil, []string{"b"}); got != 0 {
		t.Fatalf("dice empty=%f", got)
	}
}

func TestQuickSimilaritiesBounded(t *testing.T) {
	f := func(a, b []string) bool {
		for _, v := range []float64{JaccardTokens(a, b), DiceTokens(a, b)} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJaccardSymmetric(t *testing.T) {
	f := func(a, b []string) bool {
		return almostEqual(JaccardTokens(a, b), JaccardTokens(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mkCollection() *profile.Collection {
	mk := func(id, name string) profile.Profile {
		p := profile.Profile{OriginalID: id}
		p.Add("name", name)
		return p
	}
	a := []profile.Profile{
		mk("a1", "acme turbo widget deluxe"),
		mk("a2", "zenix compact gadget"),
	}
	b := []profile.Profile{
		mk("b1", "acme turbo widget"),
		mk("b2", "other thing entirely"),
	}
	return profile.NewCleanClean(a, b)
}

func TestTFIDFCosine(t *testing.T) {
	c := mkCollection()
	m := NewTFIDF(c, tokenize.Options{})
	same := m.Cosine(c.Get(0), c.Get(2))
	diff := m.Cosine(c.Get(0), c.Get(3))
	if same <= diff {
		t.Fatalf("cosine same=%f diff=%f", same, diff)
	}
	if same <= 0 || same > 1+1e-9 {
		t.Fatalf("cosine out of range: %f", same)
	}
}

func TestMatchPairsThreshold(t *testing.T) {
	c := mkCollection()
	pairs := []blocking.Pair{{A: 0, B: 2}, {A: 0, B: 3}, {A: 1, B: 3}}
	got := MatchPairs(c, pairs, JaccardMeasure(tokenize.Options{}), 0.5)
	if len(got) != 1 || got[0].A != 0 || got[0].B != 2 {
		t.Fatalf("matches: %v", got)
	}
	if got[0].Score < 0.5 {
		t.Fatalf("score below threshold: %v", got[0])
	}
}

func TestMatchPairsDistributedMatchesSequential(t *testing.T) {
	c := mkCollection()
	pairs := []blocking.Pair{{A: 0, B: 2}, {A: 0, B: 3}, {A: 1, B: 2}, {A: 1, B: 3}}
	measure := JaccardMeasure(tokenize.Options{})
	seq := MatchPairs(c, pairs, measure, 0.2)
	ctx := dataflow.NewContext(dataflow.WithParallelism(3))
	defer ctx.Close()
	dist, err := MatchPairsDistributed(ctx, c, pairs, measure, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, dist) {
		t.Fatalf("seq %v dist %v", seq, dist)
	}
}

func TestTuneThresholdSeparable(t *testing.T) {
	// Perfectly separable scores: the tuner must find a threshold with F1=1.
	c := mkCollection()
	labeled := []LabeledPair{
		{Pair: blocking.Pair{A: 0, B: 2}, IsMatch: true},  // high similarity
		{Pair: blocking.Pair{A: 0, B: 3}, IsMatch: false}, // zero similarity
		{Pair: blocking.Pair{A: 1, B: 3}, IsMatch: false},
	}
	th, f1 := TuneThreshold(c, labeled, JaccardMeasure(tokenize.Options{}))
	if f1 != 1 {
		t.Fatalf("f1=%f th=%f", f1, th)
	}
	matches := MatchPairs(c, []blocking.Pair{{A: 0, B: 2}, {A: 0, B: 3}}, JaccardMeasure(tokenize.Options{}), th)
	if len(matches) != 1 {
		t.Fatalf("tuned threshold misclassifies: %v", matches)
	}
}

func TestTuneThresholdNoPositives(t *testing.T) {
	c := mkCollection()
	th, f1 := TuneThreshold(c, []LabeledPair{{Pair: blocking.Pair{A: 0, B: 3}}}, JaccardMeasure(tokenize.Options{}))
	if f1 != 0 || th != 0.5 {
		t.Fatalf("degenerate tuning: th=%f f1=%f", th, f1)
	}
}

func TestProfileBag(t *testing.T) {
	p := profile.Profile{}
	p.Add("x", "alpha beta")
	p.Add("y", "beta gamma")
	bag := ProfileBag(&p, tokenize.Options{})
	want := []string{"alpha", "beta", "beta", "gamma"}
	if !reflect.DeepEqual(bag, want) {
		t.Fatalf("bag=%v", bag)
	}
}

// ---------------------------------------------------------------------
// Retained reference: the per-pair implementations the prepared scorer
// replaced — both profiles re-tokenised with Options.Tokens and compared
// through fresh hash sets (Jaccard, Dice) or fresh term-weight maps summed
// in sorted-term order (TF-IDF cosine) for every pair. The equivalence
// tests below hold the prepared scorer to these bit for bit, the way
// reference_test.go does for blocking and meta-blocking.

func refProfileBag(p *profile.Profile, tok tokenize.Options) []string {
	var out []string
	for _, kv := range p.Attributes {
		out = append(out, tok.Tokens(kv.Value)...)
	}
	return out
}

func refJaccard(tok tokenize.Options) MeasureFunc {
	return func(a, b *profile.Profile) float64 {
		return JaccardTokens(refProfileBag(a, tok), refProfileBag(b, tok))
	}
}

func refDice(tok tokenize.Options) MeasureFunc {
	return func(a, b *profile.Profile) float64 {
		return DiceTokens(refProfileBag(a, tok), refProfileBag(b, tok))
	}
}

type refTFIDF struct {
	idf  map[string]float64
	tok  tokenize.Options
	docs int
}

func newRefTFIDF(c *profile.Collection, tok tokenize.Options) *refTFIDF {
	df := map[string]int{}
	for i := range c.Profiles {
		seen := map[string]bool{}
		for _, t := range refProfileBag(&c.Profiles[i], tok) {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	m := &refTFIDF{idf: make(map[string]float64, len(df)), tok: tok, docs: c.Size()}
	for t, n := range df {
		m.idf[t] = math.Log(float64(m.docs+1) / float64(n+1))
	}
	return m
}

func (m *refTFIDF) vector(tokens []string) map[string]float64 {
	tf := map[string]float64{}
	for _, t := range tokens {
		tf[t]++
	}
	for t := range tf {
		idf, ok := m.idf[t]
		if !ok {
			idf = math.Log(float64(m.docs + 1))
		}
		tf[t] *= idf
	}
	return tf
}

func (m *refTFIDF) cosine(a, b *profile.Profile) float64 {
	va := m.vector(refProfileBag(a, m.tok))
	vb := m.vector(refProfileBag(b, m.tok))
	var dot, na, nb float64
	for _, t := range refSortedTerms(va) {
		x := va[t]
		na += x * x
		if y, ok := vb[t]; ok {
			dot += x * y
		}
	}
	for _, t := range refSortedTerms(vb) {
		y := vb[t]
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func refSortedTerms(v map[string]float64) []string {
	terms := make([]string, 0, len(v))
	for t := range v {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
}

// refMatchPairs is the old matcher loop: one measure call per pair.
func refMatchPairs(c *profile.Collection, pairs []blocking.Pair, measure MeasureFunc, threshold float64) []Match {
	out := []Match{}
	for _, p := range pairs {
		if score := measure(c.Get(p.A), c.Get(p.B)); score >= threshold {
			out = append(out, Match{A: p.A, B: p.B, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// tokenizerVariants lists every tokenize.Options shape the repo uses: the
// zero value, the package default, the length/number/stop-word filters of
// the tokenizer's own tests, and stop-word removal disabled.
func tokenizerVariants() []tokenize.Options {
	return []tokenize.Options{
		{},
		tokenize.Default,
		{MinLength: 3},
		{DropNumbers: true},
		{MinLength: 3, DropNumbers: true, StopWords: map[string]bool{"acme": true}},
		{StopWords: map[string]bool{}},
	}
}

// requireScoresMatchReference checks, for every pair of the collection and
// the three built-in measures, that the prepared scorer — prepared from
// the collection, from a corpus tokenised alike, and through the
// fallback for a corpus tokenised otherwise — and the one-off Score
// adapter all equal the retained per-pair reference bit for bit.
func requireScoresMatchReference(t *testing.T, c *profile.Collection, tok tokenize.Options) {
	t.Helper()
	model, refModel := NewTFIDF(c, tok), newRefTFIDF(c, tok)
	cases := []struct {
		name    string
		measure Measure
		ref     MeasureFunc
	}{
		{"jaccard", JaccardMeasure(tok), refJaccard(tok)},
		{"dice", DiceMeasure(tok), refDice(tok)},
		{"cosine", CosineMeasure(model), refModel.cosine},
	}
	// A corpus tokenised as the measures tokenise serves them directly;
	// one tokenised otherwise must fall back to Prepare.
	other := tokenize.Options{MinLength: 2}
	if other.Equal(tok) {
		other.MinLength = 3
	}
	cp, otherCp := tokenize.NewCorpus(c, tok), tokenize.NewCorpus(c, other)
	for _, tc := range cases {
		if _, ok := tc.measure.(corpusMeasure); !ok {
			t.Fatalf("%s: a built-in measure does not prepare from a corpus", tc.name)
		}
		scorers := map[string]PairScorer{
			"prepared":         tc.measure.Prepare(c),
			"corpus":           prepare(tc.measure, cp),
			"other-tokenizer":  prepare(tc.measure, otherCp),
			"reference-corpus": prepare(tc.ref, cp),
		}
		for a := range c.Profiles {
			for b := range c.Profiles {
				pa, pb := c.Get(profile.ID(a)), c.Get(profile.ID(b))
				want := math.Float64bits(tc.ref(pa, pb))
				for how, score := range scorers {
					if got := score(profile.ID(a), profile.ID(b)); math.Float64bits(got) != want {
						t.Fatalf("%s %+v: %s(%d,%d)=%v, reference %v\n%v\n%v",
							tc.name, tok, how, a, b, got, math.Float64frombits(want), pa, pb)
					}
				}
				if got := tc.measure.Score(pa, pb); math.Float64bits(got) != want {
					t.Fatalf("%s %+v: Score(%d,%d)=%v, reference %v\n%v\n%v",
						tc.name, tok, a, b, got, math.Float64frombits(want), pa, pb)
				}
			}
		}
	}
}

// awkwardValues are attribute values chosen to stress the tokeniser and
// the bag preparation: empties, duplicates, stop words, Unicode (case
// folding, combining marks, non-Latin scripts), numeric-only tokens.
var awkwardValues = []string{
	"", "   ", "the of and", "acme acme ACME Acme", "a a a a b",
	"Ünïcödé straße ΑΒΓ αβγ", "日本語 テキスト 日本語", "éclair éclair",
	"42", "007 7 42 42", "3.14 2,718", "x1 1x ٣٤", "naïve-café/menu",
	"turbo widget deluxe", "widget turbo", "zenix compact gadget 42",
}

func randomAwkwardCollection(rng *rand.Rand, n int, clean bool) *profile.Collection {
	mk := func(i int) profile.Profile {
		p := profile.Profile{OriginalID: strconv.Itoa(i)}
		for k := rng.Intn(4); k > 0; k-- { // 0 attributes: an empty profile
			v := awkwardValues[rng.Intn(len(awkwardValues))]
			if rng.Intn(3) == 0 {
				v += " " + awkwardValues[rng.Intn(len(awkwardValues))]
			}
			// Not Profile.Add: it drops blank values, and a blank value
			// (tokens: none) is one of the cases.
			p.Attributes = append(p.Attributes, profile.KeyValue{Key: "k" + strconv.Itoa(k), Value: v})
		}
		return p
	}
	ps := make([]profile.Profile, n)
	for i := range ps {
		ps[i] = mk(i)
	}
	if clean {
		return profile.NewCleanClean(ps[:n/2], ps[n/2:])
	}
	return profile.NewDirty(ps)
}

// TestPreparedScoresMatchReference is the property test of the prepared
// scorer: random collections of awkward profiles, every tokenizer
// variant, every built-in measure, all pairs, bitwise.
func TestPreparedScoresMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 6; round++ {
		c := randomAwkwardCollection(rng, 24, round%2 == 0)
		for _, tok := range tokenizerVariants() {
			requireScoresMatchReference(t, c, tok)
		}
	}
}

// FuzzPreparedScores holds the same equivalence on fuzzed attribute
// values: whatever the tokeniser makes of the input, preparing once and
// merging must score exactly what re-tokenising per pair scored.
func FuzzPreparedScores(f *testing.F) {
	f.Add("acme turbo widget", "acme widget turbo turbo", "", uint8(0))
	f.Add("", "", "", uint8(1))
	f.Add("42 42 007", "42", "x 42", uint8(3))
	f.Add("Ünïcödé straße", "ünïcödé STRASSE", "日本語 日本語", uint8(2))
	f.Add("the of and", "a an the", "acme", uint8(4))
	f.Add("\xff\xfe broken utf8", "broken \xff utf8", "\x00", uint8(5))
	variants := tokenizerVariants()
	f.Fuzz(func(t *testing.T, va, vb, vc string, variant uint8) {
		mk := func(id string, values ...string) profile.Profile {
			p := profile.Profile{OriginalID: id}
			for i, v := range values {
				p.Attributes = append(p.Attributes, profile.KeyValue{Key: strconv.Itoa(i), Value: v})
			}
			return p
		}
		c := profile.NewDirty([]profile.Profile{mk("a", va), mk("b", vb, vc), mk("c", vc, va, va), mk("d")})
		requireScoresMatchReference(t, c, variants[int(variant)%len(variants)])
	})
}

// candidatePairs blocks a generated collection the schema-agnostic way
// and returns the distinct candidate pairs, the matcher's real input.
func candidatePairs(c *profile.Collection) []blocking.Pair {
	blocks := blocking.TokenBlocking(c, blocking.Options{})
	return blocking.Filter(blocking.PurgeBySize(blocks, 0.5), 0.8).DistinctPairs()
}

// TestMatchPairsEquivalence: on the three generated benchmark families
// (product clean-clean, bibliographic clean-clean, dirty), MatchPairs
// and MatchPairsCorpus equal the retained per-pair loop bitwise, and
// MatchPairsDistributed equals it at every partition count from 1 to 8.
func TestMatchPairsEquivalence(t *testing.T) {
	abt := datagen.AbtBuy()
	abt.CoreEntities, abt.AOnly, abt.BDup = 150, 12, 14
	bib := datagen.BibDefault()
	bib.CorePapers, bib.AOnly, bib.BOnly = 120, 18, 22
	collections := map[string]*profile.Collection{
		"abtbuy":        datagen.Generate(abt).Collection,
		"bibliographic": datagen.GenerateBibliographic(bib).Collection,
		"dirty":         datagen.GenerateDirty(120, 3).Collection,
	}
	tok := tokenize.Options{}
	ctx := dataflow.NewContext(dataflow.WithParallelism(4))
	defer ctx.Close()
	for name, c := range collections {
		pairs := candidatePairs(c)
		if len(pairs) < 1000 {
			t.Fatalf("%s: only %d candidate pairs", name, len(pairs))
		}
		cp := tokenize.NewCorpus(c, tok)
		model, refModel := NewTFIDFCorpus(cp), newRefTFIDF(c, tok)
		cases := []struct {
			name      string
			measure   Measure
			ref       MeasureFunc
			threshold float64
		}{
			{"jaccard", JaccardMeasure(tok), refJaccard(tok), 0.3},
			{"dice", DiceMeasure(tok), refDice(tok), 0.4},
			{"cosine", CosineMeasure(model), refModel.cosine, 0.3},
		}
		for _, tc := range cases {
			want := refMatchPairs(c, pairs, tc.ref, tc.threshold)
			if len(want) == 0 || len(want) == len(pairs) {
				t.Fatalf("%s/%s: threshold keeps %d of %d pairs, the test discriminates nothing",
					name, tc.name, len(want), len(pairs))
			}
			seq := MatchPairs(c, pairs, tc.measure, tc.threshold)
			requireSameMatches(t, name+"/"+tc.name+"/sequential", want, seq)
			requireSameMatches(t, name+"/"+tc.name+"/corpus", want, MatchPairsCorpus(cp, pairs, tc.measure, tc.threshold))
			dist, err := MatchPairsDistributedCorpus(ctx, cp, pairs, tc.measure, tc.threshold, 3)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMatches(t, name+"/"+tc.name+"/distributed-corpus", want, dist)
			for parts := 1; parts <= 8; parts++ {
				dist, err := MatchPairsDistributed(ctx, c, pairs, tc.measure, tc.threshold, parts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameMatches(t, fmt.Sprintf("%s/%s/partitions-%d", name, tc.name, parts), want, dist)
			}
		}
	}
}

// TestMatchPairsCorpusWorkerCount: scoring from a corpus, one range of
// pairs per worker, gives the reference matches at every GOMAXPROCS.
func TestMatchPairsCorpusWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	abt := datagen.AbtBuy()
	abt.CoreEntities, abt.AOnly, abt.BDup = 150, 12, 14
	c := datagen.Generate(abt).Collection
	pairs := candidatePairs(c)
	tok := tokenize.Options{}
	want := refMatchPairs(c, pairs, refJaccard(tok), 0.3)
	for _, procs := range []int{1, 2, 5, 64} {
		runtime.GOMAXPROCS(procs)
		got := MatchPairsCorpus(tokenize.NewCorpus(c, tok), pairs, JaccardMeasure(tok), 0.3)
		requireSameMatches(t, fmt.Sprintf("GOMAXPROCS=%d", procs), want, got)
	}
}

func requireSameMatches(t *testing.T, label string, want, got []Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].A != got[i].A || want[i].B != got[i].B ||
			math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			t.Fatalf("%s: match %d is %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// TestNoMatchesIsEmptyNotNil: the sequential and the distributed matcher
// return the same thing for zero matches — an empty, non-nil slice.
func TestNoMatchesIsEmptyNotNil(t *testing.T) {
	c := mkCollection()
	measure := JaccardMeasure(tokenize.Options{})
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	defer ctx.Close()
	for _, pairs := range [][]blocking.Pair{nil, {{A: 1, B: 3}}} {
		seq := MatchPairs(c, pairs, measure, 0.99)
		dist, err := MatchPairsDistributed(ctx, c, pairs, measure, 0.99, 2)
		if err != nil {
			t.Fatal(err)
		}
		if seq == nil || dist == nil || len(seq) != 0 || len(dist) != 0 {
			t.Fatalf("%d pairs: sequential %#v, distributed %#v", len(pairs), seq, dist)
		}
	}
}

// TestProfileBagMatchesTokens: the pooled-scratch bag equals the
// per-attribute Tokens concatenation, token for token, and is the
// caller's own slice (a second call must not overwrite the first).
func TestProfileBagMatchesTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomAwkwardCollection(rng, 40, false)
	for _, tok := range tokenizerVariants() {
		for i := range c.Profiles {
			p := &c.Profiles[i]
			got, want := ProfileBag(p, tok), refProfileBag(p, tok)
			ProfileBag(&c.Profiles[(i+1)%len(c.Profiles)], tok)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v %v: bag %q, reference %q", tok, p, got, want)
			}
		}
	}
}

// BenchmarkPrepareBags times the matcher's preparation on the
// batch-resolve collection: from the collection (tokenisation included)
// and from the corpus a pass has already built.
func BenchmarkPrepareBags(b *testing.B) {
	c := datagen.Generate(datagen.AbtBuy().Scaled(2)).Collection
	measure := JaccardMeasure(tokenize.Options{})
	b.Run("collection", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			measure.Prepare(c)
		}
	})
	b.Run("corpus", func(b *testing.B) {
		cp := tokenize.NewCorpus(c, tokenize.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prepare(measure, cp)
		}
	})
}

// TestIntersectSortedMatchesMapCount holds the branch-free merge to a
// map-based count: random ascending runs of distinct IDs, and the edge
// cases of a merge — empty, disjoint, identical and prefix runs, and IDs
// near MaxUint32, where an overflowing comparison would show.
func TestIntersectSortedMatchesMapCount(t *testing.T) {
	mapCount := func(a, b []uint32) int {
		in := make(map[uint32]bool, len(a))
		for _, x := range a {
			in[x] = true
		}
		n := 0
		for _, y := range b {
			if in[y] {
				n++
			}
		}
		return n
	}
	// run draws n distinct IDs from [base, base+span), ascending.
	rng := rand.New(rand.NewSource(34))
	run := func(n int, base, span uint32) []uint32 {
		seen := map[uint32]bool{}
		out := make([]uint32, 0, n)
		for len(out) < n && len(out) < int(span) {
			if x := base + uint32(rng.Int63n(int64(span))); !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
		slices.Sort(out)
		return out
	}
	top := uint32(math.MaxUint32)
	cases := map[string][2][]uint32{
		"both empty":     {nil, nil},
		"left empty":     {nil, {1, 2, 3}},
		"right empty":    {{1, 2, 3}, {}},
		"disjoint":       {{1, 3, 5, 7}, {0, 2, 4, 6, 8}},
		"disjoint tails": {{1, 2, 3}, {10, 11}},
		"identical":      {{0, 4, 9, 17}, {0, 4, 9, 17}},
		"prefix":         {{2, 3, 5}, {2, 3, 5, 7, 11}},
		"prefix of left": {{2, 3, 5, 7, 11}, {2, 3}},
		"near max":       {{0, top - 2, top - 1, top}, {top - 3, top - 1, top}},
		"max only":       {{top}, {top}},
	}
	for i := range 200 {
		span := uint32(8 + rng.Intn(200))
		base := uint32(0)
		if i%4 == 0 {
			base = top - span + 1
		}
		cases[fmt.Sprintf("random %d", i)] = [2][]uint32{run(rng.Intn(40), base, span), run(rng.Intn(40), base, span)}
	}
	for name, c := range cases {
		for _, ab := range [][2][]uint32{c, {c[1], c[0]}} {
			if got, want := intersectSorted(ab[0], ab[1]), mapCount(ab[0], ab[1]); got != want {
				t.Fatalf("%s: %v ∩ %v counted %d, map count %d", name, ab[0], ab[1], got, want)
			}
		}
	}
}
