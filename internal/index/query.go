package index

import (
	"cmp"
	"math"
	"slices"

	"sparker/internal/blocking"
	"sparker/internal/core"
	"sparker/internal/evaluation"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/obs"
	"sparker/internal/profile"
)

// Candidate is one ranked match candidate of a query.
type Candidate struct {
	ID profile.ID
	// Weight is the meta-blocking scheme weight of the candidate.
	Weight float64
	// SharedKeys is the number of blocking keys shared with the query.
	SharedKeys int
}

// QueryResult carries the ranked candidates plus the work accounting
// that shows how much work the index avoided versus a full scan.
type QueryResult struct {
	// Candidates are ranked by weight descending (ties by ID).
	Candidates []Candidate
	// Keys is the number of blocking keys the query profile produced.
	Keys int
	// BlocksProbed counts postings found for those keys.
	BlocksProbed int
	// BlocksPurged counts postings skipped as oversized (the online
	// analogue of block purging).
	BlocksPurged int
	// BlocksFiltered counts postings skipped as the least distinctive of
	// the query's blocks (the online analogue of block filtering).
	BlocksFiltered int
	// PostingsScanned counts profile entries read across probed postings
	// — the true per-query work bound, orders of magnitude below the
	// collection size for selective queries.
	PostingsScanned int
	// Pruned counts candidates dropped by the pruning rule.
	Pruned int

	// StageNanos is the per-stage wall-time breakdown of this query
	// (indexed by Stage; StageScore is filled by Resolve). The slots are
	// contiguous — they sum to the query's total latency — and feed both
	// the index-level stage histograms and the serving layer's ?debug=1
	// response and slow-query log. All zeros when Config.DisableMetrics
	// turned instrumentation off.
	StageNanos [NumStages]int64

	// Truncated reports that the per-request budget
	// (ResolveOptions.Budget) tripped before the resolution completed:
	// the result is the best-first prefix the budget allowed, not the
	// full answer. Always false under an unlimited budget.
	Truncated bool
	// TruncatedStage names the stage that was running when the budget
	// first tripped ("candidates", "weigh", "score", ...); empty when
	// not truncated.
	TruncatedStage string

	// selfID is the query profile's internal ID when it is itself
	// indexed, or -1; Resolve reuses it to label matches.
	selfID profile.ID
}

// queryScratch is the flat-array candidate kernel of the query hot path:
// the meta-blocker's own dense pair accumulator, filled through the same
// AddBlock and indexed by the index's dense internal profile IDs.
// Scratches are pooled on the Index (sync.Pool is per-P sharded, so
// concurrent queries never contend), replacing the historical per-query
// map that re-allocated and re-hashed per query. AddBlock's growth also
// covers concurrent upserts appending fresh profiles to a posting
// between the size probe and the scan.
type queryScratch = metablocking.Accumulator

// getScratch leases a query scratch sized for the current ID space.
func (x *Index) getScratch() *queryScratch {
	s, _ := x.scratchPool.Get().(*queryScratch)
	if s == nil {
		s = &queryScratch{}
	}
	s.Ensure(int(x.idBound.Load()))
	s.Begin()
	return s
}

func (x *Index) putScratch(s *queryScratch) { x.scratchPool.Put(s) }

// Query ranks the candidate matches of p by probing only the postings its
// blocking keys hit. p does not need to be indexed; when it is (same
// source and original ID), it is excluded from its own candidates.
func (x *Index) Query(p *profile.Profile) *QueryResult {
	kb := keyBufPool.Get().(*keyBuf)
	res := x.queryBudget(p, Budget{}, kb)
	keyBufPool.Put(kb)
	return res
}

// queryBudget is the budget-aware query core behind Query and
// ResolveWithOptions. A zero budget takes exactly the historical path:
// every deadline check hides behind a non-zero-field test, so unlimited
// queries stay bitwise-identical and allocation-identical. The query's
// keys and distinct token bag are derived into kb, the caller's pooled
// buffer: Resolve scores from the bag after the call, so a query is
// tokenised exactly once.
func (x *Index) queryBudget(p *profile.Profile, budget Budget, kb *keyBuf) *QueryResult {
	x.queries.Add(1)
	// The stage clock slices the query into contiguous per-stage
	// durations: a stack value ticking into the result's fixed array,
	// so instrumentation adds monotonic reads and atomic adds but no
	// allocations to the hot path.
	m := x.metrics
	res := &QueryResult{}
	var clk obs.StageClock
	if m != nil {
		clk.Start()
	}
	// Dirty indexes store everything under source 0 (Upsert normalizes);
	// queries must match, or self-exclusion breaks.
	if !x.clean && p.SourceID != 0 {
		q := *p
		q.SourceID = 0
		p = &q
	}
	kb.derive(&x.opts, p)
	keys := kb.keys
	res.Keys = len(keys)
	clk.Tick(res.StageNanos[:], int(StageTokenize))

	selfID := profile.ID(-1)
	if id, ok := x.lookupOrig(origKey(p)); ok {
		selfID = id
	}

	maxSize := int(x.cfg.MaxBlockFraction * float64(x.numProfiles.Load()))
	if maxSize < 2 {
		maxSize = 2
	}

	// Pass 1 — size probe: find the query's live postings and drop
	// oversized ones (block purging, applied per query).
	type probe struct {
		key  string
		sh   *shard
		size int
	}
	probes := make([]probe, 0, len(keys))
	for _, kt := range keys {
		s := x.shardFor(kt.Key)
		s.mu.RLock()
		pl := s.postings[kt.Key]
		sz := 0
		if pl != nil {
			sz = pl.size()
		}
		s.mu.RUnlock()
		if pl == nil {
			continue
		}
		if sz > maxSize {
			res.BlocksPurged++
			continue
		}
		probes = append(probes, probe{key: kt.Key, sh: s, size: sz})
	}
	// The query's block count for the ratio schemes (|B_p| in the batch
	// blocker) counts only live, unpurged postings — raw token counts
	// would inflate JS unions and can clamp ECBS to zero on small
	// indexes.
	liveKeys := len(probes)

	// Block filtering, applied per query: scan only the smallest (most
	// distinctive) FilterRatio fraction of the hit postings.
	if x.cfg.FilterRatio < 1 && len(probes) > 0 {
		slices.SortStableFunc(probes, func(a, b probe) int {
			if a.size != b.size {
				return cmp.Compare(a.size, b.size)
			}
			return cmp.Compare(a.key, b.key)
		})
		keep := int(math.Ceil(x.cfg.FilterRatio * float64(len(probes))))
		if keep < 1 {
			keep = 1
		}
		res.BlocksFiltered = len(probes) - keep
		probes = probes[:keep]
	}
	clk.Tick(res.StageNanos[:], int(StagePurgeFilter))

	// Pass 2 — scan the surviving postings, accumulating co-occurrence
	// statistics per candidate in the pooled flat scratch: queries are the
	// hot path, and the dense kernel does no per-candidate hashing or
	// allocation at all.
	sc := x.getScratch()
	defer x.putScratch(sc)
	for _, pr := range probes {
		// Deadline boundary: one clock read per posting, only when a
		// deadline is set. Candidates accumulated so far still rank and
		// score below — a truncated answer, not an empty one.
		if budget.expired() {
			res.truncate(StageCandidates)
			break
		}
		s := pr.sh
		s.mu.RLock()
		pl := s.postings[pr.key]
		if pl == nil { // deleted between passes by a concurrent upsert
			s.mu.RUnlock()
			continue
		}
		res.BlocksProbed++
		c := metablocking.BlockContribution(x.cfg.Scheme, false, 1, pl.comparisons(x.clean))
		visit := func(ids []profile.ID) {
			res.PostingsScanned += len(ids)
			sc.AddBlock(ids, selfID, c)
		}
		if x.clean {
			// Clean-clean: candidates live in the opposite source only.
			if p.SourceID == 1 {
				visit(pl.a)
			} else {
				visit(pl.b)
			}
		} else {
			visit(pl.a)
		}
		s.mu.RUnlock()
	}
	clk.Tick(res.StageNanos[:], int(StageCandidates))

	res.selfID = selfID
	dropped := x.weigh(res, liveKeys, sc, budget)
	clk.Tick(res.StageNanos[:], int(StageWeigh))
	res.Pruned = dropped + x.prune(res)
	clk.Tick(res.StageNanos[:], int(StagePrune))
	if m != nil {
		var total int64
		for s := StageTokenize; s <= StagePrune; s++ {
			m.Stages[s].Observe(res.StageNanos[s])
			total += res.StageNanos[s]
		}
		m.Query.Observe(total)
		m.Candidates.Observe(int64(len(res.Candidates)))
	}
	return res
}

// weigh converts the accumulated co-occurrence statistics into ranked
// weighted candidates using the configured meta-blocking scheme, filling
// res.Candidates.
//
// The prune rule decides how many ranked candidates can survive, and
// weigh keeps no more than that: under PruneTopK the touched list streams
// through a MaxCandidates-slot selection (cardinality pruning needs the
// k heaviest, not a total order of the neighbourhood), while PruneMean
// and PruneNone keep every candidate and sort them all. Either way
// res.Candidates is exactly the leading part of the full ranking. It
// returns how many weighed candidates the selection dropped, which prune
// adds to its own count.
func (x *Index) weigh(res *QueryResult, queryKeys int, sc *queryScratch, budget Budget) (dropped int) {
	touched := sc.Touched()
	if len(touched) == 0 {
		return 0
	}
	numBlocks := float64(x.numBlocks.Load())
	// Only the ratio schemes need each candidate's block count; CBS and
	// ARCS skip the per-candidate profile lookups entirely.
	needsCandKeys := x.cfg.Scheme.ReadsEndpoints()
	keep := len(touched)
	if x.cfg.Prune == PruneTopK && x.cfg.MaxCandidates < keep {
		keep = x.cfg.MaxCandidates
	}
	top := topK{keep: keep, best: make([]Candidate, 0, keep)}
	weighed := len(touched)
	x.mu.RLock()
	for i, id := range touched {
		// Deadline boundary, every weighCheckInterval candidates: the
		// candidates weighed so far still rank best-first below.
		if budget.Deadline != 0 && i%weighCheckInterval == 0 && budget.expired() {
			res.truncate(StageWeigh)
			weighed = i
			break
		}
		a := sc.At(id)
		candKeys := 0
		if needsCandKeys {
			if sp := x.byID[id]; sp != nil {
				candKeys = len(sp.keys)
			}
		}
		top.offer(Candidate{
			ID: id,
			// The query is endpoint a, the candidate b. There is no degree
			// factor: EJS never reaches here (withDefaults).
			Weight:     metablocking.Weight(x.cfg.Scheme, a, false, queryKeys, candKeys, numBlocks, 1),
			SharedKeys: int(a.CBS),
		})
	}
	x.mu.RUnlock()
	slices.SortFunc(top.best, compareRank)
	res.Candidates = top.best
	return weighed - len(top.best)
}

// compareRank is the ranking of a query's candidates: weight descending,
// ties by ascending ID. IDs are unique within a neighbourhood, so the
// order is total and the first k of it are one well-defined set.
func compareRank(a, b Candidate) int {
	if a.Weight != b.Weight {
		return cmp.Compare(b.Weight, a.Weight)
	}
	return cmp.Compare(a.ID, b.ID)
}

// topK keeps the keep best-ranked candidates offered to it. Until an
// offer overflows it, it only appends (with keep = everything, that is all
// it ever does); from then on best is a binary heap with the worst-ranked
// kept candidate at the root, so the common offer — a candidate ranking
// below everything kept — costs one comparison, and a better one replaces
// the root in O(log keep). keep is at least 1 (withDefaults).
type topK struct {
	keep   int
	best   []Candidate
	heaped bool
}

func (t *topK) offer(c Candidate) {
	if len(t.best) < t.keep {
		t.best = append(t.best, c)
		return
	}
	if !t.heaped {
		for i := t.keep/2 - 1; i >= 0; i-- {
			t.siftDown(i)
		}
		t.heaped = true
	}
	if compareRank(c, t.best[0]) >= 0 {
		return
	}
	t.best[0] = c
	t.siftDown(0)
}

// siftDown restores the worst-at-root heap order below slot i.
func (t *topK) siftDown(i int) {
	h := t.best
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && compareRank(h[l], h[worst]) > 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && compareRank(h[r], h[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// prune applies the configured rule to the ranked candidates in place and
// returns how many were dropped.
func (x *Index) prune(res *QueryResult) int {
	before := len(res.Candidates)
	switch x.cfg.Prune {
	case PruneTopK:
		if before > x.cfg.MaxCandidates {
			res.Candidates = res.Candidates[:x.cfg.MaxCandidates]
		}
	case PruneMean:
		var sum float64
		for _, c := range res.Candidates {
			sum += c.Weight
		}
		mean := sum / float64(before)
		keep := res.Candidates[:0]
		for _, c := range res.Candidates {
			if c.Weight >= mean {
				keep = append(keep, c)
			}
		}
		res.Candidates = keep
	}
	return before - len(res.Candidates)
}

// Identity is a profile's identity outside this index: the original ID
// and source it was upserted under.
type Identity struct {
	OriginalID string
	SourceID   int
}

// Resolution is the online analogue of one pipeline run for a single
// query profile: the ranked blocking candidates plus the scored matches.
type Resolution struct {
	// Query is the candidate-generation result.
	Query *QueryResult
	// Matches are the candidates scoring at or above the match threshold,
	// sorted by score descending. B is the candidate's internal ID; A is
	// the query profile's internal ID when the query is itself indexed,
	// and -1 otherwise (an ad-hoc probe has no internal identity).
	Matches []matching.Match
	// Comparisons is the number of candidate profiles actually scored —
	// the per-query matcher work.
	Comparisons int
	// CandidateIdentities[i] identifies Query.Candidates[i] and
	// MatchIdentities[i] identifies Matches[i]. They are read under the
	// lock acquisition that pins the candidates' profiles for scoring, so
	// an answer names exactly the profiles it scored and a response
	// builder needs no further index lookups.
	CandidateIdentities []Identity
	MatchIdentities     []Identity
}

// Resolve runs Query and then scores every surviving candidate with the
// configured similarity measure, keeping matches at or above the match
// threshold — blocking, meta-blocking pruning and matching collapsed into
// one sub-millisecond point lookup.
func (x *Index) Resolve(p *profile.Profile) *Resolution {
	return x.ResolveWithOptions(p, ResolveOptions{})
}

// ResolveWithOptions is Resolve with a work budget: a deadline stops the
// pipeline at the next stage or
// comparison boundary, and MaxComparisons caps scoring to the
// highest-ranked candidates. Either trip marks Query.Truncated with the
// stage that was running — the result is the best-first prefix of the
// unlimited answer. A zero budget is the exact unlimited behaviour.
func (x *Index) ResolveWithOptions(p *profile.Profile, opts ResolveOptions) *Resolution {
	kb := keyBufPool.Get().(*keyBuf)
	qr := x.queryBudget(p, opts.Budget, kb)
	r := &Resolution{Query: qr}
	queryID := qr.selfID
	m := x.metrics
	var clk obs.StageClock
	if m != nil {
		clk.Start()
	}

	// Default-Jaccard fast path: candidates carry their distinct token
	// bag from upsert time and the query's came out of the same single
	// tokenisation as its keys, so each comparison is a set intersection
	// — bitwise-identical scores to matching.JaccardMeasure with none of
	// its per-pair tokenization.
	var qset map[string]struct{}
	if x.cfg.defaultJaccard {
		qset = make(map[string]struct{}, len(kb.bag))
		for _, t := range kb.bag {
			qset[t] = struct{}{}
		}
	}
	keyBufPool.Put(kb)

	// Collect candidate profile snapshots and identities under the read
	// lock, score after releasing it: upserts replace stored profiles
	// instead of mutating them, so the pointers stay valid.
	type scored struct {
		id    profile.ID
		sp    *storedProfile
		score float64
	}
	cands := make([]scored, 0, len(qr.Candidates))
	r.CandidateIdentities = make([]Identity, len(qr.Candidates))
	x.mu.RLock()
	for i, c := range qr.Candidates {
		if sp := x.byID[c.ID]; sp != nil {
			cands = append(cands, scored{id: c.ID, sp: sp})
			r.CandidateIdentities[i] = Identity{OriginalID: sp.p.OriginalID, SourceID: sp.p.SourceID}
		}
	}
	x.mu.RUnlock()

	// The comparison cap truncates up-front: candidates arrive in rank
	// order, so the cap keeps the best-weighted prefix. The deadline is
	// checked per comparison (a clock read per scored candidate, only
	// when a deadline is set — scoring dominates it by orders of
	// magnitude).
	budget := opts.Budget
	if max := budget.MaxComparisons; max > 0 && max < len(cands) {
		cands = cands[:max]
		qr.truncate(StageScore)
	}
	hook := x.cfg.ScoreHook

	// Matches compact into the front of cands (the write index never
	// passes the read index), so ranking them moves their profiles along.
	matched := cands[:0]
	for _, c := range cands {
		if budget.expired() {
			qr.truncate(StageScore)
			break
		}
		if hook != nil {
			hook()
		}
		r.Comparisons++
		if x.cfg.defaultJaccard {
			c.score = jaccardBagSet(qset, c.sp.bag)
		} else {
			c.score = x.cfg.Measure.Score(p, &c.sp.p)
		}
		if c.score >= x.cfg.MatchThreshold {
			matched = append(matched, c)
		}
	}
	slices.SortFunc(matched, func(a, b scored) int {
		if a.score != b.score {
			return cmp.Compare(b.score, a.score)
		}
		return cmp.Compare(a.id, b.id)
	})
	if len(matched) > 0 {
		r.Matches = make([]matching.Match, len(matched))
		r.MatchIdentities = make([]Identity, len(matched))
		for i, c := range matched {
			r.Matches[i] = matching.Match{A: queryID, B: c.id, Score: c.score}
			r.MatchIdentities[i] = Identity{OriginalID: c.sp.p.OriginalID, SourceID: c.sp.p.SourceID}
		}
	}
	clk.Tick(qr.StageNanos[:], int(StageScore))
	if m != nil {
		m.Stages[StageScore].Observe(qr.StageNanos[StageScore])
		m.Comparisons.Observe(int64(r.Comparisons))
		var total int64
		for _, n := range qr.StageNanos {
			total += n
		}
		m.Resolve.Observe(total)
	}
	return r
}

// jaccardBagSet computes |A∩B|/|A∪B| of a query token set against a
// candidate's cached distinct bag, matching matching.JaccardTokens bit
// for bit (same cardinalities, same division).
func jaccardBagSet(qset map[string]struct{}, bag []string) float64 {
	inter := 0
	for _, t := range bag {
		if _, ok := qset[t]; ok {
			inter++
		}
	}
	union := len(qset) + len(bag) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Report evaluates the resolution against a ground truth, producing the
// same per-stage quality rows as the batch pipeline's StepReport table.
// The query profile must carry the internal ID the ground truth uses.
func (r *Resolution) Report(queryID profile.ID, gt *evaluation.GroundTruth, maxComparisons int64) []core.StepReport {
	pairs := make([]blocking.Pair, 0, len(r.Query.Candidates))
	for _, c := range r.Query.Candidates {
		pairs = append(pairs, blocking.Pair{A: queryID, B: c.ID}.Canonical())
	}
	matches := make([]matching.Match, len(r.Matches))
	copy(matches, r.Matches)
	for i := range matches {
		p := blocking.Pair{A: queryID, B: matches[i].B}.Canonical()
		matches[i].A, matches[i].B = p.A, p.B
	}
	return []core.StepReport{
		{Step: "index-query", Metrics: evaluation.EvaluatePairs(pairs, gt, maxComparisons)},
		{Step: "index-matching", Metrics: evaluation.EvaluateMatches(matches, gt, maxComparisons)},
	}
}
