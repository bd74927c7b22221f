package looseschema

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"sparker/internal/datagen"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

func mkProfile(id string, kvs ...[2]string) profile.Profile {
	p := profile.Profile{OriginalID: id}
	for _, kv := range kvs {
		p.Add(kv[0], kv[1])
	}
	return p
}

// twoSchemaCollection has text attributes sharing most (not all) of their
// vocabulary across sources, and numeric attributes sharing a different,
// also partially overlapping vocabulary. No two attributes have identical
// vocabularies, so a threshold of exactly 1 clusters nothing.
func twoSchemaCollection() *profile.Collection {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota"}
	var a, b []profile.Profile
	for i := 0; i < 12; i++ {
		w1, w2 := words[i%8], words[(i+1)%8]     // A text: words[0..7]
		w3, w4 := words[i%8+1], words[(i+2)%8+1] // B text: words[1..8]
		priceA := []string{"9.99", "19.99", "29.99", "39.99"}[i%4]
		priceB := []string{"9.99", "19.99", "29.99"}[i%3]
		a = append(a, mkProfile("a",
			[2]string{"name", w1 + " " + w2},
			[2]string{"cost", priceA}))
		b = append(b, mkProfile("b",
			[2]string{"title", w3 + " " + w4},
			[2]string{"amount", priceB}))
	}
	return profile.NewCleanClean(a, b)
}

// refExtractAttributeProfiles is ExtractAttributeProfiles as it was
// written first: attributes looked up by qualified name, built per value,
// and every value tokenised into a fresh slice.
func refExtractAttributeProfiles(c *profile.Collection, tok tokenize.Options) []*AttributeProfile {
	byName := map[string]*AttributeProfile{}
	var order []string
	for i := range c.Profiles {
		p := &c.Profiles[i]
		for _, kv := range p.Attributes {
			name := profile.QualifiedAttribute(p.SourceID, kv.Key)
			ap := byName[name]
			if ap == nil {
				ap = &AttributeProfile{
					Name:      name,
					SourceID:  p.SourceID,
					Attribute: kv.Key,
					Counts:    map[string]int{},
				}
				byName[name] = ap
				order = append(order, name)
			}
			for _, t := range tok.Tokens(kv.Value) {
				if ap.Counts[t] == 0 {
					ap.Tokens = append(ap.Tokens, t)
				}
				ap.Counts[t]++
				ap.Total++
			}
		}
	}
	sort.Strings(order)
	out := make([]*AttributeProfile, 0, len(order))
	for _, name := range order {
		out = append(out, byName[name])
	}
	return out
}

// TestExtractAttributeProfilesMatchesReference pins the one-scratch,
// (source, key)-keyed extraction to the reference on a clean-clean and
// a dirty generated set, under the default and a non-default tokenizer.
func TestExtractAttributeProfilesMatchesReference(t *testing.T) {
	sets := map[string]*profile.Collection{
		"abt-buy x2": datagen.Generate(datagen.AbtBuy().Scaled(2)).Collection,
		"dirty":      datagen.GenerateDirty(300, 5).Collection,
	}
	toks := []tokenize.Options{{}, {MinLength: 3, DropNumbers: true}}
	for name, c := range sets {
		for _, tok := range toks {
			want := refExtractAttributeProfiles(c, tok)
			got := ExtractAttributeProfiles(c, tok)
			if len(want) < 2 {
				t.Fatalf("%s: only %d attributes", name, len(want))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: attribute profiles differ from the reference", name, tok)
			}
		}
	}
}

// TestExtractAttributeProfilesCorpusWorkerCount: extraction from a
// corpus equals the reference whatever worker count built the corpus.
func TestExtractAttributeProfilesCorpusWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	c := datagen.Generate(datagen.AbtBuy().Scaled(2)).Collection
	want := refExtractAttributeProfiles(c, tokenize.Options{})
	for _, procs := range []int{1, 2, 5, 64} {
		runtime.GOMAXPROCS(procs)
		if got := ExtractAttributeProfilesCorpus(tokenize.NewCorpus(c, tokenize.Options{})); !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d: attribute profiles differ from the reference", procs)
		}
	}
}

func TestExtractAttributeProfiles(t *testing.T) {
	c := twoSchemaCollection()
	aps := ExtractAttributeProfiles(c, tokenize.Options{})
	names := make([]string, len(aps))
	for i, ap := range aps {
		names[i] = ap.Name
	}
	want := []string{"0:cost", "0:name", "1:amount", "1:title"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("got %v want %v", names, want)
	}
	for _, ap := range aps {
		if ap.Total == 0 || len(ap.Tokens) == 0 {
			t.Fatalf("empty attribute profile %q", ap.Name)
		}
	}
}

func TestPartitionGroupsSimilarAttributes(t *testing.T) {
	c := twoSchemaCollection()
	p := Partition(c, Options{Threshold: 0.3})
	textCluster := p.ClusterOf(0, "name")
	if textCluster == BlobCluster {
		t.Fatal("name not clustered")
	}
	if p.ClusterOf(1, "title") != textCluster {
		t.Fatalf("title in cluster %d, name in %d", p.ClusterOf(1, "title"), textCluster)
	}
	numCluster := p.ClusterOf(0, "cost")
	if numCluster == BlobCluster || numCluster == textCluster {
		t.Fatalf("cost cluster %d (text=%d)", numCluster, textCluster)
	}
	if p.ClusterOf(1, "amount") != numCluster {
		t.Fatal("amount not with cost")
	}
}

func TestPartitionThresholdOneYieldsBlob(t *testing.T) {
	c := twoSchemaCollection()
	p := Partition(c, Options{Threshold: 1.0})
	for _, name := range []string{"name", "cost"} {
		if p.ClusterOf(0, name) != BlobCluster {
			t.Fatalf("%s escaped the blob at threshold 1", name)
		}
	}
	for _, name := range []string{"title", "amount"} {
		if p.ClusterOf(1, name) != BlobCluster {
			t.Fatalf("%s escaped the blob at threshold 1", name)
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	c := twoSchemaCollection()
	p1 := Partition(c, Options{Threshold: 0.3})
	p2 := Partition(c, Options{Threshold: 0.3})
	if !reflect.DeepEqual(p1.Clusters, p2.Clusters) {
		t.Fatal("partitioning not deterministic")
	}
}

func TestEntropyOrdering(t *testing.T) {
	// Attribute with a flat token distribution has higher entropy than one
	// with a skewed distribution.
	flat := &AttributeProfile{Counts: map[string]int{"a": 1, "b": 1, "c": 1, "d": 1}, Total: 4}
	skew := &AttributeProfile{Counts: map[string]int{"a": 97, "b": 1, "c": 1, "d": 1}, Total: 100}
	if flat.Entropy() <= skew.Entropy() {
		t.Fatalf("flat=%.3f skew=%.3f", flat.Entropy(), skew.Entropy())
	}
	if math.Abs(flat.Entropy()-2.0) > 1e-9 {
		t.Fatalf("uniform over 4 tokens must have entropy 2, got %f", flat.Entropy())
	}
}

func TestEntropyEmpty(t *testing.T) {
	ap := &AttributeProfile{Counts: map[string]int{}}
	if ap.Entropy() != 0 {
		t.Fatal("empty profile entropy must be 0")
	}
}

func TestComputeEntropiesPerCluster(t *testing.T) {
	c := twoSchemaCollection()
	p := Partition(c, Options{Threshold: 0.3})
	text := p.ClusterOf(0, "name")
	num := p.ClusterOf(0, "cost")
	if p.EntropyOf(text) <= p.EntropyOf(num) {
		t.Fatalf("text entropy %.3f must exceed price entropy %.3f",
			p.EntropyOf(text), p.EntropyOf(num))
	}
}

func TestMoveAttribute(t *testing.T) {
	c := twoSchemaCollection()
	p := Partition(c, Options{Threshold: 0.3})
	from := p.ClusterOf(0, "name")
	to := p.NewCluster()
	if err := p.MoveAttribute("0:name", to); err != nil {
		t.Fatal(err)
	}
	if p.ClusterOf(0, "name") != to {
		t.Fatal("attribute not moved")
	}
	for _, a := range p.Clusters[from] {
		if a == "0:name" {
			t.Fatal("attribute still listed in old cluster")
		}
	}
	if err := p.MoveAttribute("0:bogus", to); err == nil {
		t.Fatal("want error for unknown attribute")
	}
	if err := p.MoveAttribute("0:name", -1); err == nil {
		t.Fatal("want error for negative cluster")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	c := twoSchemaCollection()
	p := Partition(c, Options{Threshold: 0.3})
	clone := p.Clone()
	nc := clone.NewCluster()
	if err := clone.MoveAttribute("0:name", nc); err != nil {
		t.Fatal(err)
	}
	if p.ClusterOf(0, "name") == nc {
		t.Fatal("editing the clone mutated the original")
	}
}

func TestSetEntropyGrows(t *testing.T) {
	p := &Partitioning{Clusters: [][]string{nil}, Entropy: []float64{0}}
	p.SetEntropy(3, 1.5)
	if p.EntropyOf(3) != 1.5 || p.EntropyOf(99) != 0 || p.EntropyOf(-1) != 0 {
		t.Fatal("SetEntropy/EntropyOf bounds wrong")
	}
}

func TestClusterOfUnknownAttributeIsBlob(t *testing.T) {
	c := twoSchemaCollection()
	p := Partition(c, Options{Threshold: 0.3})
	if p.ClusterOf(0, "nonexistent") != BlobCluster {
		t.Fatal("unknown attribute must fall into the blob")
	}
}

func TestCrossSourceOnlyRestriction(t *testing.T) {
	// With CrossSourceOnly, two same-source attributes sharing all tokens
	// must not cluster together directly.
	a := []profile.Profile{
		mkProfile("a1", [2]string{"x", "tok1 tok2 tok3"}, [2]string{"y", "tok1 tok2 tok3"}),
	}
	b := []profile.Profile{
		mkProfile("b1", [2]string{"z", "other stuff here"}),
	}
	c := profile.NewCleanClean(a, b)
	p := PartitionAttributes(ExtractAttributeProfiles(c, tokenize.Options{}), true, Options{
		Threshold:       0.5,
		CrossSourceOnly: true,
	})
	if p.ClusterOf(0, "x") != BlobCluster || p.ClusterOf(0, "y") != BlobCluster {
		t.Fatalf("same-source attributes clustered despite CrossSourceOnly: %s", p)
	}
}

func TestStringOutput(t *testing.T) {
	c := twoSchemaCollection()
	p := Partition(c, Options{Threshold: 0.3})
	s := p.String()
	if s == "" || !strings.Contains(s, "blob") {
		t.Fatalf("String() = %q", s)
	}
}

// BenchmarkExtractAttributeProfiles times the loose-schema generator's
// first stage on the batch-resolve collection: from the collection
// (tokenisation included) and from the corpus a pass has already built.
func BenchmarkExtractAttributeProfiles(b *testing.B) {
	c := datagen.Generate(datagen.AbtBuy().Scaled(2)).Collection
	b.Run("collection", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ExtractAttributeProfiles(c, tokenize.Options{})
		}
	})
	b.Run("corpus", func(b *testing.B) {
		cp := tokenize.NewCorpus(c, tokenize.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ExtractAttributeProfilesCorpus(cp)
		}
	})
}
