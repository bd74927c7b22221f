package blocking

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"sparker/internal/dataflow"
	"sparker/internal/datagen"
	"sparker/internal/looseschema"
	"sparker/internal/profile"
	"sparker/internal/tokenize"
)

// corpusSets are the three generated families, each schema-agnostic and
// under the Partitioning the loose-schema generator computes for it.
func corpusSets(t *testing.T) map[string]struct {
	c    *profile.Collection
	opts Options
} {
	t.Helper()
	bib := datagen.BibDefault()
	bib.CorePapers, bib.AOnly, bib.BOnly = 300, 30, 30
	sets := map[string]struct {
		c    *profile.Collection
		opts Options
	}{}
	for name, c := range map[string]*profile.Collection{
		"abtbuy-x2":     datagen.Generate(datagen.AbtBuy().Scaled(2)).Collection,
		"bibliographic": datagen.GenerateBibliographic(bib).Collection,
		"dirty":         datagen.GenerateDirty(600, 3).Collection,
	} {
		part := looseschema.Partition(c, looseschema.Options{})
		if part.NumClusters() < 2 {
			t.Fatalf("%s: the partitioning has %d clusters, so loose-schema keys equal schema-agnostic ones", name, part.NumClusters())
		}
		sets[name] = struct {
			c    *profile.Collection
			opts Options
		}{c, Options{}}
		sets[name+"/loose"] = struct {
			c    *profile.Collection
			opts Options
		}{c, Options{Clustering: part}}
	}
	return sets
}

// TestCorpusKeysMatchAppendKeysOf: the keys the corpus path slots for a
// profile are exactly the keys the online index derives for it with
// AppendKeysOf — same strings, clusters and order — so batch and online
// keys cannot drift apart.
func TestCorpusKeysMatchAppendKeysOf(t *testing.T) {
	for name, set := range corpusSets(t) {
		cp := tokenize.NewCorpus(set.c, set.opts.Tokenizer)
		kt := set.opts.slotKeys(cp)
		var want []KeyedToken
		for i := range set.c.Profiles {
			want = set.opts.AppendKeysOf(want[:0], &set.c.Profiles[i])
			var got []KeyedToken
			for _, s := range kt.profSlots[kt.start[i]:kt.start[i+1]] {
				k := kt.keys[s]
				got = append(got, KeyedToken{Key: set.opts.key(cp.Vocab[k.tok], k.cluster), Cluster: k.cluster})
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: profile %d: corpus keys %v, AppendKeysOf %v", name, i, got, want)
			}
		}
	}
}

// TestTokenBlockingCorpusMatchesReference: the corpus blocker, the
// distributed corpus blocker and the retained map reference build the
// same blocks on the generated families, at several worker counts.
func TestTokenBlockingCorpusMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ctx := dataflow.NewContext(dataflow.WithParallelism(3))
	defer ctx.Close()
	for name, set := range corpusSets(t) {
		want := refTokenBlocking(set.c, set.opts)
		if want.NumBlocks() < 100 {
			t.Fatalf("%s: only %d blocks", name, want.NumBlocks())
		}
		for _, procs := range []int{1, 2, 5} {
			runtime.GOMAXPROCS(procs)
			label := fmt.Sprintf("%s/GOMAXPROCS=%d", name, procs)
			requireSameCollection(t, label, want, TokenBlocking(set.c, set.opts))
			got, err := DistributedTokenBlocking(ctx, set.c, set.opts, 4)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCollection(t, label+"/distributed", want, got)
		}
	}
}
