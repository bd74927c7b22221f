package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sparker/internal/core"
	"sparker/internal/datagen"
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
	for _, name := range []string{"a", "dirty", "generate", "snapshot", "follow", "oplog-dir", "slow-query", "index-shards", "config"} {
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

// writeConfig writes body to a file in a test directory and returns its
// path.
func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "resolve.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseConfigRejects pins the flag-layer validation: combinations,
// ranges and enumerations fail before anything is opened or loaded.
func TestParseConfigRejects(t *testing.T) {
	ejs := writeConfig(t, `{"meta_blocking": true, "scheme": "ejs", "pruning": "cnp"}`)
	cosine := writeConfig(t, `{"measure": "cosine-tfidf"}`)
	unknown := writeConfig(t, `{"scheme": "jaccard"}`)
	batchDefault := writeConfig(t, `{"loose_schema": true, "meta_blocking": true, "pruning": "blast", "use_entropy": true}`)
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

		{"-index-shards 0", "-index-shards must be positive"},
		{"-snapshot-interval 1m", "-snapshot-interval needs -snapshot"},
		{"-snapshot s.snap -snapshot-interval -1s", "-snapshot-interval must be non-negative"},
		{"-snapshot s.snap -snapshot-interval 1m -read-only", "-snapshot-interval saves nothing on a replica"},
		{"-snapshot s.snap -snapshot-interval 1m -follow http://l:1", "-snapshot-interval saves nothing on a replica"},
		{"-oplog-fsync always", "-oplog-fsync needs -oplog-dir"},
		{"-oplog-fsync sometimes", "-oplog-fsync needs -oplog-dir"},
		{"-oplog-dir wal -oplog-fsync sometimes", "sometimes"},

		// A resolve config the index cannot honour is refused, never
		// remapped; every refused field is named at once.
		{"-config " + ejs, "scheme ejs"},
		{"-config " + cosine, "measure cosine-tfidf"},
		{"-config " + unknown, `unknown scheme "jaccard"`},
		{"-config " + batchDefault, "loose_schema, use_entropy, pruning blast"},
		{"-config no-such-file.json", "no-such-file.json"},

		{"-no-such-flag", "flag provided but not defined"},
		// The seven resolve flags -config replaced, and the retired LSH
		// probe's, are refused like any unknown one.
		{"-scheme cbs", "flag provided but not defined: -scheme"},
		{"-prune none", "flag provided but not defined: -prune"},
		{"-k 5", "flag provided but not defined: -k"},
		{"-measure dice", "flag provided but not defined: -measure"},
		{"-threshold 0.1", "flag provided but not defined: -threshold"},
		{"-filter-ratio 1", "flag provided but not defined: -filter-ratio"},
		{"-max-block-fraction 1", "flag provided but not defined: -max-block-fraction"},
		{"-lsh fallback", "flag provided but not defined: -lsh"},
		{"-lsh-signature 16", "flag provided but not defined: -lsh-signature"},
		{"-lsh-threshold 0.5", "flag provided but not defined: -lsh-threshold"},
		{"-lsh-floor 2", "flag provided but not defined: -lsh-floor"},
		{"-lsh-weight buckets", "flag provided but not defined: -lsh-weight"},
		{"-index-shards ten", "invalid value"},
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
	if got := cfg.node.index; got.Shards != def.Shards || !reflect.DeepEqual(got.ResolveConfig, def.ResolveConfig) ||
		got.OpLog != def.OpLog {
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

	// The cluster equivalence config, as a resolve file. Every absent
	// field is zero, as sparker -config reads it: match_threshold 0
	// keeps every scored candidate, top_k 0 is the online 10.
	equiv := writeConfig(t, `{"meta_blocking": false, "filter_ratio": 1, "purge_factor": 1, "scheme": "ARCS", "measure": "dice"}`)
	cfg = parse("-config " + equiv + " -read-only -oplog-retain 100")
	n := cfg.node
	want := core.ResolveConfig{FilterRatio: 1, PurgeFactor: 1, Scheme: metablocking.ARCS, Measure: core.MeasureDice}
	if ix := n.index; !reflect.DeepEqual(ix.ResolveConfig, want) || ix.OpLog.MaxOps != 100 || ix.Shards != 16 {
		t.Errorf("index config = %+v, want resolve knobs %+v", ix, want)
	}
	if !n.readOnly {
		t.Error("-read-only not carried")
	}

	// Scheme and pruning names are the batch CLI's and the stored
	// configurations', in any case.
	for _, arg := range []string{"cbs", "CBS", "Ecbs"} {
		want, err := metablocking.ParseScheme(arg)
		path := writeConfig(t, `{"scheme": "`+arg+`", "meta_blocking": true, "pruning": "WNP", "top_k": 3}`)
		got := parse("-config " + path).node.index
		if err != nil || got.Scheme != want || got.Pruning != metablocking.WNP || got.TopK != 3 {
			t.Errorf("scheme %s: got %v/%v k=%d, want %v/WNP k=3 (%v)", arg, got.Scheme, got.Pruning, got.TopK, want, err)
		}
	}

	// A shared flag stays accepted beside -shards.
	parse("-shards http://a:1 -pprof 127.0.0.1:6060")
}

// TestBatchSavedConfigBoots: the file `sparker -generate
// -loose-schema=false -pruning cnp -save-config` writes boots a node,
// whose index prunes with the batch's own rule.
func TestBatchSavedConfigBoots(t *testing.T) {
	// cmd/sparker's effective configuration for those flags.
	batch := core.DefaultConfig()
	batch.LooseSchema = false
	batch.UseEntropy = false
	batch.Pruning = metablocking.CNP
	path := filepath.Join(t.TempDir(), "batch.json")
	if err := core.SaveConfigFile(path, batch); err != nil {
		t.Fatal(err)
	}
	cfg, err := parseConfig([]string{"-config", path, "-generate"})
	if err != nil {
		t.Fatal(err)
	}
	ix := cfg.node.index
	if !reflect.DeepEqual(ix.ResolveConfig, batch.ResolveConfig) {
		t.Fatalf("index resolve knobs %+v, want the batch's %+v", ix.ResolveConfig, batch.ResolveConfig)
	}
	d := datagen.GenerateDirty(60, 5)
	x, err := index.NewFromCollection(d.Collection, ix)
	if err != nil {
		t.Fatal(err)
	}
	q := d.Collection.Profiles[0]
	if r := x.Resolve(&q); len(r.Query.Candidates) == 0 || len(r.Query.Candidates) > 10 {
		t.Fatalf("query %s: %d candidates, want 1..10 under CNP's online k", q.OriginalID, len(r.Query.Candidates))
	}
}
