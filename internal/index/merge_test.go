package index

import (
	"reflect"
	"testing"
)

func TestMergePartialsDeterministic(t *testing.T) {
	a := &Partial{
		Candidates: []PartialCandidate{
			{OriginalID: "a1", Source: 0, Weight: 3},
			{OriginalID: "a2", Source: 0, Weight: 1},
		},
		Matches:         []PartialMatch{{OriginalID: "a1", Source: 0, Score: 0.9}},
		Keys:            4,
		PostingsScanned: 7,
		Comparisons:     2,
	}
	b := &Partial{
		Candidates: []PartialCandidate{
			{OriginalID: "b1", Source: 1, Weight: 2},
		},
		Matches:         []PartialMatch{{OriginalID: "b1", Source: 1, Score: 0.5}},
		Keys:            3,
		PostingsScanned: 5,
		Comparisons:     1,
	}

	ab := MergePartials([]*Partial{a, b})
	ba := MergePartials([]*Partial{b, a})
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge depends on shard order:\nab=%+v\nba=%+v", ab, ba)
	}

	wantCands := []PartialCandidate{
		{OriginalID: "a1", Source: 0, Weight: 3},
		{OriginalID: "b1", Source: 1, Weight: 2},
		{OriginalID: "a2", Source: 0, Weight: 1},
	}
	if !reflect.DeepEqual(ab.Candidates, wantCands) {
		t.Errorf("candidates = %+v, want %+v", ab.Candidates, wantCands)
	}
	wantMatches := []PartialMatch{
		{OriginalID: "a1", Source: 0, Score: 0.9},
		{OriginalID: "b1", Source: 1, Score: 0.5},
	}
	if !reflect.DeepEqual(ab.Matches, wantMatches) {
		t.Errorf("matches = %+v, want %+v", ab.Matches, wantMatches)
	}
	if ab.Keys != 4 {
		t.Errorf("Keys = %d, want max 4", ab.Keys)
	}
	if ab.PostingsScanned != 12 || ab.Comparisons != 3 {
		t.Errorf("counters = scanned %d / comparisons %d, want 12 / 3", ab.PostingsScanned, ab.Comparisons)
	}
}

func TestMergePartialsTieBreak(t *testing.T) {
	a := &Partial{
		Candidates: []PartialCandidate{{OriginalID: "z", Source: 0, Weight: 2}},
		Matches:    []PartialMatch{{OriginalID: "z", Source: 0, Score: 0.7}},
	}
	b := &Partial{
		Candidates: []PartialCandidate{
			{OriginalID: "m", Source: 1, Weight: 2},
			{OriginalID: "m", Source: 0, Weight: 2},
		},
		Matches: []PartialMatch{{OriginalID: "m", Source: 0, Score: 0.7}},
	}
	m := MergePartials([]*Partial{a, b})
	wantCands := []PartialCandidate{
		{OriginalID: "m", Source: 0, Weight: 2},
		{OriginalID: "m", Source: 1, Weight: 2},
		{OriginalID: "z", Source: 0, Weight: 2},
	}
	if !reflect.DeepEqual(m.Candidates, wantCands) {
		t.Errorf("tied candidates = %+v, want (OriginalID, Source) ascending %+v", m.Candidates, wantCands)
	}
	wantMatches := []PartialMatch{
		{OriginalID: "m", Source: 0, Score: 0.7},
		{OriginalID: "z", Source: 0, Score: 0.7},
	}
	if !reflect.DeepEqual(m.Matches, wantMatches) {
		t.Errorf("tied matches = %+v, want %+v", m.Matches, wantMatches)
	}
}

func TestMergePartialsTruncationAndFlags(t *testing.T) {
	clean := &Partial{}
	scoreTrunc := &Partial{Truncated: true, TruncatedStage: StageScore.String()}
	candTrunc := &Partial{Truncated: true, TruncatedStage: StageCandidates.String()}

	m := MergePartials([]*Partial{clean, scoreTrunc, candTrunc})
	if !m.Truncated {
		t.Fatal("Truncated did not OR-merge")
	}
	// StageCandidates runs before StageScore in the pipeline: the merged
	// answer reports the earliest stage any shard tripped in.
	if m.TruncatedStage != StageCandidates.String() {
		t.Errorf("TruncatedStage = %q, want earliest %q", m.TruncatedStage, StageCandidates.String())
	}

	if got := MergePartials([]*Partial{clean, clean}); got.Truncated || got.TruncatedStage != "" {
		t.Errorf("clean merge reports truncation: %+v", got)
	}
}

func TestMergePartialsSkipsNilShards(t *testing.T) {
	a := &Partial{
		Candidates: []PartialCandidate{{OriginalID: "a1", Weight: 1}},
		Matches:    []PartialMatch{{OriginalID: "a1", Score: 0.4}},
	}
	m := MergePartials([]*Partial{nil, a, nil})
	if len(m.Candidates) != 1 || len(m.Matches) != 1 {
		t.Fatalf("nil shards not skipped: %+v", m)
	}
}

func TestStageRankUnknownLast(t *testing.T) {
	if s, ok := StageByName("no-such-stage"); ok {
		t.Errorf("StageByName(unknown) = %v, want a miss", s)
	}
	for s := Stage(0); int(s) < NumStages; s++ {
		if got, ok := StageByName(s.String()); !ok || got != s {
			t.Errorf("StageByName(%q) = %v/%v, want %v", s.String(), got, ok, s)
		}
	}
	// An unknown stage ranks after every known one, whatever the order
	// the shards answered in.
	unknown := &Partial{Truncated: true, TruncatedStage: "no-such-stage"}
	score := &Partial{Truncated: true, TruncatedStage: StageScore.String()}
	for _, parts := range [][]*Partial{{unknown, score}, {score, unknown}} {
		if m := MergePartials(parts); m.TruncatedStage != StageScore.String() {
			t.Errorf("TruncatedStage = %q, want %q", m.TruncatedStage, StageScore.String())
		}
	}
	if m := MergePartials([]*Partial{unknown}); m.TruncatedStage != "no-such-stage" {
		t.Errorf("TruncatedStage = %q, want the shard's own name", m.TruncatedStage)
	}
}
