package index

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

// TestConcurrentQueryUpsert hammers the index with concurrent readers and
// writers; run with -race (CI does) to validate the locking model.
func TestConcurrentQueryUpsert(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Shards = shards
			x := New(true, cfg)

			// Seed both sources so queries have something to hit.
			for i := 0; i < 50; i++ {
				a := mkProfile(fmt.Sprintf("a%d", i), "name", fmt.Sprintf("item model%d shared%d", i, i%7))
				b := mkProfile(fmt.Sprintf("b%d", i), "title", fmt.Sprintf("item model%d shared%d", i, i%7))
				b.SourceID = 1
				if _, _, err := x.Upsert(a); err != nil {
					t.Fatal(err)
				}
				if _, _, err := x.Upsert(b); err != nil {
					t.Fatal(err)
				}
			}

			const writers, readers, ops = 4, 8, 200
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						// Mix fresh inserts with replacements of seeded rows.
						var p profile.Profile
						if i%3 == 0 {
							p = mkProfile(fmt.Sprintf("a%d", i%50), "name",
								fmt.Sprintf("updated model%d worker%d", i, w))
						} else {
							p = mkProfile(fmt.Sprintf("w%d-%d", w, i), "name",
								fmt.Sprintf("fresh model%d shared%d", i, i%7))
						}
						if _, _, err := x.Upsert(p); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						q := mkProfile("probe", "name", fmt.Sprintf("item model%d shared%d", i%50, i%7))
						switch i % 3 {
						case 0:
							x.Query(&q)
						case 1:
							x.Resolve(&q)
						default:
							x.Snapshot()
						}
					}
				}(r)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// The index must still be internally consistent: every stored
			// profile reachable through its own keys.
			s := x.Snapshot()
			if s.Profiles != x.Size() {
				t.Fatalf("snapshot profiles %d != size %d", s.Profiles, x.Size())
			}
			for id := profile.ID(0); int(id) < 20; id++ {
				p, ok := x.Get(id)
				if !ok {
					continue
				}
				res := x.Query(&p)
				if res.Keys == 0 {
					t.Fatalf("profile %d produced no keys", id)
				}
			}
		})
	}
}

// TestOverwriteNeverHidesProfile races overwrites of a fixed ID set (and
// fresh inserts beside them) against Resolve and Meta. An ID a reader
// found in a posting must resolve to a profile — the one being replaced
// or its replacement — so no candidate may skip scoring or come back
// without an original ID. Run with -race.
func TestOverwriteNeverHidesProfile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = metablocking.JS // reads every candidate's stored profile in weigh
	cfg.Prune = PruneNone
	cfg.MaxBlockFraction = 1
	cfg.FilterRatio = 1
	cfg.MatchThreshold = -1 // every scored candidate is a match
	x := New(false, cfg)
	const fixed = 32
	for i := 0; i < fixed; i++ {
		if _, _, err := x.Upsert(mkProfile(fmt.Sprintf("p%d", i), "name", fmt.Sprintf("widget rev0 unit%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for rev := 1; rev <= 60; rev++ {
			for i := 0; i < fixed; i++ {
				if _, _, err := x.Upsert(mkProfile(fmt.Sprintf("p%d", i), "name", fmt.Sprintf("widget rev%d unit%d", rev, i))); err != nil {
					t.Error(err)
					return
				}
			}
			if _, _, err := x.Upsert(mkProfile(fmt.Sprintf("fresh%d", rev), "name", "widget fresh")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := mkProfile("probe", "name", "widget")
			for !done.Load() {
				res := x.Resolve(&q)
				if res.Comparisons != len(res.Query.Candidates) {
					t.Errorf("%d of %d candidates scored", res.Comparisons, len(res.Query.Candidates))
					return
				}
				for i, c := range res.Query.Candidates {
					if res.CandidateIdentities[i].OriginalID == "" {
						t.Errorf("candidate %d came back without an original ID", c.ID)
						return
					}
					if orig, _, ok := x.Meta(c.ID); !ok || orig == "" {
						t.Errorf("Meta(%d) = %q/%v for a returned candidate", c.ID, orig, ok)
						return
					}
				}
				for i, m := range res.Matches {
					if res.MatchIdentities[i].OriginalID == "" {
						t.Errorf("match %d came back without an original ID", m.B)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
