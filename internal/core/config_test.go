package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparker/internal/metablocking"
)

func TestConfigRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = metablocking.ARCS
	cfg.Pruning = metablocking.ReciprocalCNP
	cfg.Measure = MeasureCosineTFIDF
	cfg.Clusterer = ClusterMergeCenter
	cfg.MatchThreshold = 0.42
	cfg.Partitions = 16

	var buf bytes.Buffer
	if err := SaveConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("round trip changed config:\nwant %+v\ngot  %+v", cfg, back)
	}
}

func TestConfigRoundTripAllSchemesAndPrunings(t *testing.T) {
	for _, s := range []metablocking.Scheme{metablocking.CBS, metablocking.ECBS, metablocking.JS, metablocking.EJS, metablocking.ARCS} {
		for _, p := range []metablocking.Pruning{metablocking.WEP, metablocking.CEP, metablocking.WNP,
			metablocking.ReciprocalWNP, metablocking.CNP, metablocking.ReciprocalCNP, metablocking.BlastPruning} {
			cfg := DefaultConfig()
			cfg.Scheme = s
			cfg.Pruning = p
			var buf bytes.Buffer
			if err := SaveConfig(&buf, cfg); err != nil {
				t.Fatal(err)
			}
			back, err := LoadConfig(&buf)
			if err != nil {
				t.Fatalf("%v/%v: %v", s, p, err)
			}
			if back.Scheme != s || back.Pruning != p {
				t.Fatalf("%v/%v came back as %v/%v", s, p, back.Scheme, back.Pruning)
			}
		}
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "config.json")
	cfg := DefaultConfig()
	cfg.MatchThreshold = 0.222
	if err := SaveConfigFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.MatchThreshold != 0.222 {
		t.Fatalf("threshold: %f", back.MatchThreshold)
	}
}

func TestLoadConfigRejectsBadNames(t *testing.T) {
	cases := []string{
		`{"scheme": "bogus"}`,
		`{"pruning": "bogus"}`,
		`{"measure": "bogus"}`,
		`{"clusterer": "bogus"}`,
		`{not json`,
	}
	for _, c := range cases {
		if _, err := LoadConfig(strings.NewReader(c)); err == nil {
			t.Fatalf("want error for %q", c)
		}
	}
}

func TestLoadConfigDefaultsEmptyEnums(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"match_threshold": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheme != metablocking.CBS || cfg.Pruning != metablocking.WEP {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.MatchThreshold != 0.5 {
		t.Fatalf("threshold: %f", cfg.MatchThreshold)
	}
}

// TestParseHelpers: a stored configuration's scheme and pruning names go
// through metablocking's one name table, so a hand-edited file may spell
// them in any case.
func TestParseHelpers(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"scheme": "ARCS", "pruning": "Blast"}`))
	if err != nil || cfg.Scheme != metablocking.ARCS || cfg.Pruning != metablocking.BlastPruning {
		t.Fatalf("got %v/%v, %v", cfg.Scheme, cfg.Pruning, err)
	}
	if _, err := LoadConfig(strings.NewReader(`{"scheme": "arcs", "pruning": "WNP-reciprocal"}`)); err == nil {
		t.Fatal("want error for a report name in place of the configuration spelling rwnp")
	}
}

func TestSavedConfigIsHumanReadable(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveConfig(&buf, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"scheme": "cbs"`, `"pruning": "blast"`, `"measure": "jaccard"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

// TestStoredConfigsReloadByteIdentical: files an earlier build saved load
// to the configuration they were saved from, and SaveConfig writes them
// back byte for byte (top_k, absent from them, is omitted at zero).
func TestStoredConfigsReloadByteIdentical(t *testing.T) {
	agnostic := SchemaAgnosticConfig()
	agnostic.Scheme = metablocking.ARCS
	agnostic.Pruning = metablocking.CNP
	agnostic.Measure = MeasureDice
	agnostic.Clusterer = ClusterCenter
	agnostic.MatchThreshold = 0.45
	agnostic.Partitions = 8
	for file, want := range map[string]Config{
		"default-config.json":             DefaultConfig(),
		"schema-agnostic-cnp-config.json": agnostic,
	} {
		path := filepath.Join("testdata", file)
		stored, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoadConfigFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s loads to\n%+v, want\n%+v", file, got, want)
		}
		var buf bytes.Buffer
		if err := SaveConfig(&buf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), stored) {
			t.Fatalf("%s re-saves as\n%s\nwant\n%s", file, buf.Bytes(), stored)
		}
	}
	k := DefaultConfig()
	k.TopK = 7
	var buf bytes.Buffer
	if err := SaveConfig(&buf, k); err != nil {
		t.Fatal(err)
	}
	if back, err := LoadConfig(&buf); err != nil || back.TopK != 7 {
		t.Fatalf("top_k 7 came back as %d (%v)", back.TopK, err)
	}
}

// TestValidateNamesEveryRefusal: the online index refuses the batch
// default for three reasons, and one error names all of them; the fields
// of batch-only stages are not among them.
func TestValidateNamesEveryRefusal(t *testing.T) {
	err := DefaultConfig().Validate()
	if err == nil {
		t.Fatal("the batch default (loose schema, entropy, Blast) validated for serving")
	}
	for _, want := range []string{"loose_schema", "use_entropy", "blast"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate error %q does not name %s", err, want)
		}
	}
	cfg := DefaultConfig()
	cfg.LooseSchema, cfg.UseEntropy = false, false
	cfg.Scheme, cfg.Measure = metablocking.EJS, MeasureCosineTFIDF
	for _, p := range []metablocking.Pruning{metablocking.WEP, metablocking.CEP, metablocking.ReciprocalWNP, metablocking.ReciprocalCNP, metablocking.BlastPruning} {
		cfg.Pruning = p
		err := cfg.Validate()
		for _, want := range []string{"scheme ejs", "measure cosine-tfidf", "pruning " + p.Name()} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Validate error %v does not name %s", err, want)
			}
		}
	}
	served := SchemaAgnosticConfig()
	served.Clusterer, served.Partitions, served.Seed, served.SchemaThreshold = ClusterCenter, 8, 7, 0.9
	for _, p := range []metablocking.Pruning{metablocking.CNP, metablocking.WNP} {
		served.Pruning = p
		if err := served.Validate(); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
	served.MetaBlocking, served.Pruning = false, metablocking.BlastPruning // pruning is not read with meta-blocking off
	if err := served.Validate(); err != nil {
		t.Errorf("meta-blocking off: %v", err)
	}
}
