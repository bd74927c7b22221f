package tokenize

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"sparker/internal/datagen"
	"sparker/internal/profile"
)

// refCorpus is the sequential reference of NewCorpus: Tokens on every
// value in collection order, IDs numbered by first sight.
func refCorpus(c *profile.Collection, o Options) (vocab []string, values [][][]uint32) {
	intern := map[string]uint32{}
	for i := range c.Profiles {
		var vs [][]uint32
		for _, kv := range c.Profiles[i].Attributes {
			ids := []uint32{}
			for _, tok := range o.Tokens(kv.Value) {
				id, ok := intern[tok]
				if !ok {
					id = uint32(len(vocab))
					intern[tok] = id
					vocab = append(vocab, tok)
				}
				ids = append(ids, id)
			}
			vs = append(vs, ids)
		}
		values = append(values, vs)
	}
	return vocab, values
}

func corpusCollections() map[string]*profile.Collection {
	abt := datagen.AbtBuy()
	abt.CoreEntities, abt.AOnly, abt.BDup = 600, 40, 40
	bib := datagen.BibDefault()
	bib.CorePapers, bib.AOnly, bib.BOnly = 500, 30, 30
	small := profile.NewDirty([]profile.Profile{
		{Attributes: []profile.KeyValue{{Key: "a", Value: "Acme acme the"}, {Key: "b", Value: ""}}},
		{},
		{Attributes: []profile.KeyValue{{Key: "a", Value: "日本語 42 acme"}}},
	})
	return map[string]*profile.Collection{
		"abtbuy":        datagen.Generate(abt).Collection,
		"bibliographic": datagen.GenerateBibliographic(bib).Collection,
		"dirty":         datagen.GenerateDirty(1200, 3).Collection,
		"small":         small,
		"empty":         profile.NewDirty(nil),
	}
}

// TestCorpusMatchesSequentialReference: the parallel build numbers the
// vocabulary exactly as one sequential scan would, and every value's IDs
// spell Tokens of that value, at every worker count — 64 ranges included,
// which the larger collections reach.
func TestCorpusMatchesSequentialReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, c := range corpusCollections() {
		for _, o := range []Options{{}, {MinLength: 3, DropNumbers: true, StopWords: map[string]bool{"acme": true}}} {
			vocab, values := refCorpus(c, o)
			for _, procs := range []int{1, 2, 5, 64} {
				runtime.GOMAXPROCS(procs)
				label := fmt.Sprintf("%s/%+v/GOMAXPROCS=%d", name, o, procs)
				cp := NewCorpus(c, o)
				if cp.Len() != c.Size() || cp.Collection != c {
					t.Fatalf("%s: corpus of %d profiles for %d", label, cp.Len(), c.Size())
				}
				if len(cp.Vocab) != len(vocab) || (len(vocab) > 0 && !reflect.DeepEqual(cp.Vocab, vocab)) {
					t.Fatalf("%s: vocabulary of %d tokens, reference %d", label, len(cp.Vocab), len(vocab))
				}
				for i, vs := range values {
					var all []uint32
					for k, want := range vs {
						if got := cp.Value(i, k); !reflect.DeepEqual(append([]uint32{}, got...), want) {
							t.Fatalf("%s: profile %d value %d: IDs %v, reference %v", label, i, k, got, want)
						}
						all = append(all, want...)
					}
					if got := cp.Tokens(i); len(got) != len(all) || (len(all) > 0 && !reflect.DeepEqual(got, all)) {
						t.Fatalf("%s: profile %d: tokens %v, reference %v", label, i, got, all)
					}
				}
			}
		}
	}
}

func TestOptionsEqual(t *testing.T) {
	same := [][2]Options{
		{{}, Default},
		{{StopWords: DefaultStopWords}, {MinLength: -3}},
		{{StopWords: map[string]bool{"x": true}}, {StopWords: map[string]bool{"x": true}}},
	}
	for _, p := range same {
		if !p[0].Equal(p[1]) {
			t.Fatalf("%+v and %+v tokenise alike", p[0], p[1])
		}
	}
	differ := [][2]Options{
		{{}, {MinLength: 2}},
		{{}, {DropNumbers: true}},
		{{}, {StopWords: map[string]bool{}}},
		{{StopWords: map[string]bool{"x": true}}, {StopWords: map[string]bool{"y": true}}},
	}
	for _, p := range differ {
		if p[0].Equal(p[1]) {
			t.Fatalf("%+v and %+v do not tokenise alike", p[0], p[1])
		}
	}
}

// BenchmarkNewCorpus times the one tokenisation of a batch pass on the
// batch-resolve collection (Abt-Buy ×2, 4 346 profiles).
func BenchmarkNewCorpus(b *testing.B) {
	c := datagen.Generate(datagen.AbtBuy().Scaled(2)).Collection
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCorpus(c, Options{})
	}
}
