package main

import (
	"flag"
	"strings"
	"testing"
	"time"

	"sparker/internal/index"
	"sparker/internal/metablocking"
)

// TestCoordinatorRejectsIndexFlags drives the coordinator-mode check
// from the registration it is derived from: every flag registered in
// the local-index section must be refused beside -shards, so a flag
// added there later is covered without touching this test.
func TestCoordinatorRejectsIndexFlags(t *testing.T) {
	c := newCLI()
	indexFlags := 0
	c.fs.VisitAll(func(f *flag.Flag) {
		args := []string{"-shards", "http://s0:8081", "-" + f.Name + "=" + f.DefValue}
		_, err := parseConfig(args)
		if c.shared[f.Name] {
			if err != nil {
				t.Errorf("%v: shared flag refused in coordinator mode: %v", args, err)
			}
			return
		}
		indexFlags++
		if err == nil || !strings.Contains(err.Error(), "-"+f.Name) {
			t.Errorf("%v: err = %v, want a coordinator-mode refusal naming -%s", args, err, f.Name)
		}
	})
	// The registration really is split: the section marker did not
	// swallow (or miss) everything.
	for _, name := range []string{"a", "dirty", "generate", "snapshot", "follow", "oplog-dir", "slow-query", "k", "filter-ratio", "max-block-fraction"} {
		if c.shared[name] {
			t.Errorf("-%s counts as shared, want index-only", name)
		}
	}
	for _, name := range []string{"addr", "pprof", "metrics", "max-inflight", "shed-wait", "default-budget-ms", "max-body", "shards", "probe-interval"} {
		if !c.shared[name] {
			t.Errorf("-%s counts as index-only, want shared", name)
		}
	}
	if indexFlags == 0 {
		t.Fatal("no index-only flag registered")
	}
}

// TestParseConfigRejects pins the flag-layer validation: combinations,
// ranges and enumerations fail before anything is opened or loaded.
func TestParseConfigRejects(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the error
	}{
		{"-follow http://l:1 -a a.csv", "-follow bootstraps from the leader"},
		{"-follow http://l:1 -b b.csv", "-follow bootstraps from the leader"},
		{"-follow http://l:1 -dirty d.csv", "-follow bootstraps from the leader"},
		{"-follow http://l:1 -generate", "-follow bootstraps from the leader"},
		{"-follow http://l:1 -oplog-dir wal", "-oplog-dir is a leader-side"},
		{"-follow leader:8080", "bad leader url"},

		{"-k 0", "-k must be positive"},
		{"-index-shards 0", "-index-shards must be positive"},
		{"-filter-ratio -0.1", "-filter-ratio must be in [0, 1]"},
		{"-filter-ratio 1.5", "-filter-ratio must be in [0, 1]"},
		{"-max-block-fraction -1", "-max-block-fraction must be in [0, 1]"},
		{"-max-block-fraction 2", "-max-block-fraction must be in [0, 1]"},
		{"-snapshot-interval 1m", "-snapshot-interval needs -snapshot"},
		{"-snapshot s.snap -snapshot-interval -1s", "-snapshot-interval must be non-negative"},
		{"-snapshot s.snap -snapshot-interval 1m -read-only", "-snapshot-interval saves nothing on a replica"},
		{"-snapshot s.snap -snapshot-interval 1m -follow http://l:1", "-snapshot-interval saves nothing on a replica"},
		{"-oplog-fsync always", "-oplog-fsync needs -oplog-dir"},
		{"-oplog-fsync sometimes", "-oplog-fsync needs -oplog-dir"},

		{"-scheme jaccard", `unknown scheme "jaccard"`},
		{"-scheme EJS", "keeps no node degrees"},
		{"-scheme ejs", "keeps no node degrees"},
		{"-prune topk", `unknown pruning rule "topk"`},
		{"-measure cosine", `unknown measure "cosine"`},
		{"-oplog-dir wal -oplog-fsync sometimes", "sometimes"},

		{"-no-such-flag", "flag provided but not defined"},
		// The retired LSH probe's flags are refused like any unknown one.
		{"-lsh fallback", "flag provided but not defined: -lsh"},
		{"-lsh-signature 16", "flag provided but not defined: -lsh-signature"},
		{"-lsh-threshold 0.5", "flag provided but not defined: -lsh-threshold"},
		{"-lsh-floor 2", "flag provided but not defined: -lsh-floor"},
		{"-lsh-weight buckets", "flag provided but not defined: -lsh-weight"},
		{"-k ten", "invalid value"},
		{"stray", `unexpected argument "stray"`},
	} {
		_, err := parseConfig(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseConfig(%q) error = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestParseConfigAccepts pins what a clean command line turns into —
// above all the four flag sets the end-to-end benchmark boots.
func TestParseConfigAccepts(t *testing.T) {
	parse := func(args string) config {
		t.Helper()
		cfg, err := parseConfig(strings.Fields(args))
		if err != nil {
			t.Fatalf("parseConfig(%q): %v", args, err)
		}
		if (cfg.node == nil) == (cfg.coordinator == nil) {
			t.Fatalf("parseConfig(%q): want exactly one mode, got node=%v coordinator=%v", args, cfg.node, cfg.coordinator)
		}
		return cfg
	}

	cfg := parse("-addr 127.0.0.1:9000 -a a.csv -b b.csv")
	if n := cfg.node; cfg.addr != "127.0.0.1:9000" || n.fileA != "a.csv" || n.fileB != "b.csv" || n.idCol != "id" {
		t.Errorf("-a -b: %+v %+v", cfg, n)
	}
	def := index.DefaultConfig()
	def.OpLog.Enabled = true
	if got := cfg.node.index; got.Shards != def.Shards || got.Scheme != def.Scheme || got.Prune != def.Prune ||
		got.MaxCandidates != def.MaxCandidates || got.MatchThreshold != def.MatchThreshold ||
		got.Measure != nil || got.OpLog != def.OpLog ||
		got.FilterRatio != 0 || got.MaxBlockFraction != 0 {
		t.Errorf("default flags build index config %+v, want the package defaults %+v", got, def)
	}
	if o := cfg.node.opts; o.NoMetrics || o.MaxInFlight != 0 || o.SnapshotPath != "" || o.MaxBodyBytes <= 0 {
		t.Errorf("default serve options = %+v", o)
	}

	cfg = parse("-a a.csv -b b.csv -snapshot idx.snap -oplog-dir wal -oplog-fsync interval")
	if n := cfg.node; n.opts.SnapshotPath != "idx.snap" || n.wal.Dir != "wal" || n.wal.Sync != index.WALSyncInterval {
		t.Errorf("durable leader: opts %+v wal %+v", n.opts, n.wal)
	}

	cfg = parse("-follow http://127.0.0.1:8080")
	if cfg.node.follow != "http://127.0.0.1:8080" {
		t.Errorf("-follow: %+v", cfg.node)
	}

	cfg = parse("-shards http://a:1,http://b:2,http://c:3 -max-inflight 8 -shed-wait 50ms -default-budget-ms 20ms -metrics=false -probe-interval 1s")
	cc := cfg.coordinator
	if len(cc.shards) != 3 || cc.shards[2] != "http://c:3" {
		t.Errorf("-shards: %v", cc.shards)
	}
	if o := cc.opts; o.MaxInFlight != 8 || o.ShedWait != 50*time.Millisecond || o.DefaultBudget != 20*time.Millisecond ||
		!o.NoMetrics || o.ProbeInterval != time.Second || o.MaxBodyBytes <= 0 {
		t.Errorf("coordinator options = %+v", o)
	}

	// The cluster equivalence config and the knobs with remapped values.
	cfg = parse("-prune none -filter-ratio 1 -max-block-fraction 1 -scheme ARCS -threshold 0 -k 5 -measure dice -read-only -oplog-retain 100")
	n := cfg.node
	if ix := n.index; ix.Prune != index.PruneNone || ix.FilterRatio != 1 || ix.MaxBlockFraction != 1 ||
		ix.Scheme != metablocking.ARCS || ix.MatchThreshold != -1 || ix.MaxCandidates != 5 || ix.Measure == nil ||
		ix.OpLog.MaxOps != 100 {
		t.Errorf("index config = %+v", ix)
	}
	if !n.readOnly {
		t.Error("-read-only not carried")
	}

	// Scheme names are the batch CLI's and the stored configurations', in
	// any case.
	for _, arg := range []string{"cbs", "CBS", "Ecbs"} {
		want, err := metablocking.ParseScheme(arg)
		if got := parse("-scheme " + arg).node.index.Scheme; err != nil || got != want {
			t.Errorf("-scheme %s: got %v, want %v (%v)", arg, got, want, err)
		}
	}

	// A shared flag stays accepted beside -shards.
	parse("-shards http://a:1 -pprof 127.0.0.1:6060")
}
