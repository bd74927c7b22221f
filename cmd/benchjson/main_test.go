package main

import (
	"strings"
	"testing"
)

func fp(v float64) *float64 { return &v }

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkIndexQueryLSH/policy-union   1234   456.7 ns/op   10.0 comparisons/op   528 B/op   65 allocs/op")
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if r.Name != "BenchmarkIndexQueryLSH/policy-union" || r.Runs != 1234 || r.NsPerOp != 456.7 {
		t.Fatalf("parsed %+v", r)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 65 || r.Metrics["comparisons/op"] != 10 {
		t.Fatalf("parsed %+v", r)
	}
	if _, ok := parseLine("ok  	sparker	1.589s"); ok {
		t.Fatal("non-benchmark line accepted")
	}
}

// TestNormalizeName pins the cross-machine name matching the -compare
// gate depends on: the GOMAXPROCS suffix goes, real sub-benchmark names
// survive, and GOMAXPROCS=1 output (no suffix) is left alone.
func TestNormalizeName(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		want  string
	}{
		{"BenchmarkIndexQuery/shards-4-4", 4, "BenchmarkIndexQuery/shards-4"},
		{"BenchmarkIndexQuery/shards-16-16", 16, "BenchmarkIndexQuery/shards-16"},
		{"BenchmarkIndexQuery/shards-16", 1, "BenchmarkIndexQuery/shards-16"},
		{"BenchmarkIndexUpsertLSH-8", 8, "BenchmarkIndexUpsertLSH"},
		{"BenchmarkIndexUpsertLSH", 1, "BenchmarkIndexUpsertLSH"},
		{"BenchmarkIndexQueryLSH/policy-union-2", 2, "BenchmarkIndexQueryLSH/policy-union"},
	}
	for _, c := range cases {
		if got := normalizeName(c.name, c.procs); got != c.want {
			t.Fatalf("normalizeName(%q, %d) = %q, want %q", c.name, c.procs, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	baseline := []Result{
		{Name: "BenchmarkA-8", NsPerOp: 100, AllocsPerOp: fp(10), BytesPerOp: fp(1000)},
		{Name: "BenchmarkB-8", NsPerOp: 100, AllocsPerOp: fp(0), BytesPerOp: fp(0)},
		{Name: "BenchmarkGone-8", NsPerOp: 50},
	}
	current := []Result{
		{Name: "BenchmarkA-8", NsPerOp: 124, AllocsPerOp: fp(12), BytesPerOp: fp(1250)}, // within 25%
		{Name: "BenchmarkB-8", NsPerOp: 300, AllocsPerOp: fp(0), BytesPerOp: fp(0)},     // ns/op tripled: a note
		{Name: "BenchmarkNew-8", NsPerOp: 1},                                            // no baseline: note only
	}
	// Wall clock never gates: the baseline's machine is not this one.
	regs, notes := compareResults(baseline, current, 0.25)
	if len(regs) != 0 {
		t.Fatalf("regressions = %+v, want none (ns/op is advisory)", regs)
	}
	if len(notes) != 3 || !strings.Contains(strings.Join(notes, "\n"), "BenchmarkB-8: ns/op 100 -> 300") {
		t.Fatalf("notes = %v, want the ns/op drift, the new and the gone benchmark", notes)
	}

	// The deterministic columns gate, including the 0 -> n case.
	current[0].AllocsPerOp = fp(13)  // 10 -> 13 = +30%
	current[0].BytesPerOp = fp(1251) // just past +25%
	current[1].AllocsPerOp = fp(1)   // 0 -> 1
	current[1].BytesPerOp = fp(0)    // unchanged
	regs, _ = compareResults(baseline, current, 0.25)
	var got []string
	for _, r := range regs {
		got = append(got, r.name+" "+r.metric)
	}
	want := []string{"BenchmarkA-8 allocs/op", "BenchmarkA-8 B/op", "BenchmarkB-8 allocs/op"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("regressions = %v, want %v", got, want)
	}
}
