package index

import (
	"fmt"
	"math"
	"testing"
	"time"

	"sparker/internal/metablocking"
)

// The budget battery: an unlimited budget must be bitwise-identical to
// the pre-budget path (the same discipline as the PR 2/4 equivalence
// pins), comparison-capped resolutions must be monotone (a larger
// budget returns a superset of pairs on a fixed index) and best-first
// (what survives is the top of the ranking), and deadlines must
// truncate with the tripping stage reported.

// budgetTestIndex builds a dirty index with enough co-occurrence to
// produce multi-candidate neighbourhoods; PruneNone + threshold -1
// keeps every ranked candidate flowing into scoring.
func budgetTestIndex(t testing.TB, cfg Config) *Index {
	t.Helper()
	x := New(false, cfg)
	for _, p := range synthQueryProfiles(80, 1, 21) {
		if _, _, err := x.Upsert(p); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

func TestResolveUnlimitedBudgetEquivalence(t *testing.T) {
	for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.ARCS} {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		cfg.Prune = PruneNone
		cfg.MatchThreshold = -1
		x := budgetTestIndex(t, cfg)
		for _, p := range synthQueryProfiles(80, 1, 21) {
			p := p
			want := x.Resolve(&p)
			got := x.ResolveWithOptions(&p, ResolveOptions{})
			if got.Query.Truncated || got.Query.TruncatedStage != "" {
				t.Fatalf("%v query %s: unlimited budget marked truncated (%q)",
					scheme, p.OriginalID, got.Query.TruncatedStage)
			}
			if got.Comparisons != want.Comparisons || len(got.Matches) != len(want.Matches) ||
				len(got.Query.Candidates) != len(want.Query.Candidates) {
				t.Fatalf("%v query %s: unlimited budget diverged: %d/%d matches, %d/%d comparisons",
					scheme, p.OriginalID, len(got.Matches), len(want.Matches), got.Comparisons, want.Comparisons)
			}
			for i := range want.Matches {
				if got.Matches[i].B != want.Matches[i].B ||
					math.Float64bits(got.Matches[i].Score) != math.Float64bits(want.Matches[i].Score) {
					t.Fatalf("%v query %s match %d: %+v vs %+v",
						scheme, p.OriginalID, i, got.Matches[i], want.Matches[i])
				}
			}
			for i := range want.Query.Candidates {
				if want.Query.Candidates[i] != got.Query.Candidates[i] {
					t.Fatalf("%v query %s candidate %d: %+v vs %+v",
						scheme, p.OriginalID, i, got.Query.Candidates[i], want.Query.Candidates[i])
				}
			}
		}
	}
}

func TestBudgetMaxComparisonsMonotonic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prune = PruneNone
	cfg.MatchThreshold = -1
	x := budgetTestIndex(t, cfg)
	for _, p := range synthQueryProfiles(20, 1, 21) {
		p := p
		full := x.ResolveWithOptions(&p, ResolveOptions{})
		prev := map[string]bool{}
		for b := 1; b <= len(full.Query.Candidates)+1; b++ {
			r := x.ResolveWithOptions(&p, ResolveOptions{Budget: Budget{MaxComparisons: b}})
			if r.Comparisons > b {
				t.Fatalf("query %s budget %d: %d comparisons spent", p.OriginalID, b, r.Comparisons)
			}
			wantTrunc := b < len(full.Query.Candidates)
			if r.Query.Truncated != wantTrunc {
				t.Fatalf("query %s budget %d: truncated=%v, want %v (candidates=%d)",
					p.OriginalID, b, r.Query.Truncated, wantTrunc, len(full.Query.Candidates))
			}
			if wantTrunc && r.Query.TruncatedStage != "score" {
				t.Fatalf("query %s budget %d: truncated stage %q, want score", p.OriginalID, b, r.Query.TruncatedStage)
			}
			// Monotonicity: every pair matched under budget b-1 must
			// still be matched under budget b, and the full run must
			// contain them all.
			cur := map[string]bool{}
			for _, m := range r.Matches {
				cur[fmt.Sprint(m.B)] = true
			}
			for pair := range prev {
				if !cur[pair] {
					t.Fatalf("query %s: match %s under budget %d lost at budget %d", p.OriginalID, pair, b-1, b)
				}
			}
			prev = cur
			// Best-first: the scored prefix is exactly the top-b ranked
			// candidates, so every match must sit in that prefix.
			top := map[string]bool{}
			for i, c := range full.Query.Candidates {
				if i >= b {
					break
				}
				top[fmt.Sprint(c.ID)] = true
			}
			for _, m := range r.Matches {
				if !top[fmt.Sprint(m.B)] {
					t.Fatalf("query %s budget %d: match %d outside the top-%d ranked candidates", p.OriginalID, b, m.B, b)
				}
			}
		}
		// A budget at or above the candidate count is the full answer.
		r := x.ResolveWithOptions(&p, ResolveOptions{Budget: Budget{MaxComparisons: len(full.Query.Candidates)}})
		if r.Query.Truncated || len(r.Matches) != len(full.Matches) || r.Comparisons != full.Comparisons {
			t.Fatalf("query %s: exact-size budget diverged: truncated=%v, %d/%d matches",
				p.OriginalID, r.Query.Truncated, len(r.Matches), len(full.Matches))
		}
	}
}

func TestBudgetDeadlineTruncatesScoring(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prune = PruneNone
	cfg.MatchThreshold = -1
	// Fault injection: every comparison costs ~1ms, so a ~3ms deadline
	// trips after a handful of the candidates.
	cfg.ScoreHook = func() { time.Sleep(time.Millisecond) }
	x := budgetTestIndex(t, cfg)

	var q *Resolution
	for _, p := range synthQueryProfiles(20, 1, 21) {
		p := p
		full := x.Resolve(&p)
		if full.Comparisons < 8 {
			continue
		}
		q = x.ResolveWithOptions(&p, ResolveOptions{Budget: Budget{Deadline: DeadlineIn(3 * time.Millisecond)}})
		if !q.Query.Truncated {
			t.Fatalf("query %s: deadline did not truncate (%d comparisons)", p.OriginalID, q.Comparisons)
		}
		if q.Query.TruncatedStage != "score" {
			t.Fatalf("query %s: truncated stage %q, want score", p.OriginalID, q.Query.TruncatedStage)
		}
		if q.Comparisons >= full.Comparisons {
			t.Fatalf("query %s: deadline spent all %d comparisons", p.OriginalID, q.Comparisons)
		}
		return
	}
	t.Fatal("no query produced enough candidates to exercise the deadline")
}

func TestBudgetExpiredDeadlineTruncatesCandidates(t *testing.T) {
	// Bounded selection (top-k) and keep-all alike: nothing is touched, so
	// nothing is ranked and nothing counts as pruned.
	for _, rule := range []PruneRule{PruneNone, PruneTopK} {
		cfg := DefaultConfig()
		cfg.Prune = rule
		x := budgetTestIndex(t, cfg)
		for _, p := range synthQueryProfiles(5, 1, 21) {
			p := p
			r := x.ResolveWithOptions(&p, ResolveOptions{Budget: Budget{Deadline: DeadlineIn(-time.Second)}})
			if !r.Query.Truncated {
				t.Fatalf("%v query %s: pre-expired deadline not marked truncated", rule, p.OriginalID)
			}
			if r.Query.TruncatedStage != "candidates" {
				t.Fatalf("%v query %s: truncated stage %q, want candidates", rule, p.OriginalID, r.Query.TruncatedStage)
			}
			if len(r.Query.Candidates) != 0 || r.Comparisons != 0 || r.Query.Pruned != 0 {
				t.Fatalf("%v query %s: pre-expired deadline still did work: %d candidates, %d comparisons, %d pruned",
					rule, p.OriginalID, len(r.Query.Candidates), r.Comparisons, r.Query.Pruned)
			}
		}
	}
}
