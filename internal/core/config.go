package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"sparker/internal/metablocking"
)

// The paper's debugging workflow ends with "the system allows ... to
// store the obtained configuration. Then, the optimized configuration can
// be applied to the whole data in a batch mode". This file provides that
// persistence: configurations round-trip through JSON with symbolic names
// for the enum-like knobs.

// configJSON is the serialised form of Config; enums become strings so
// stored configurations stay readable and stable across versions.
type configJSON struct {
	LooseSchema     bool    `json:"loose_schema"`
	SchemaThreshold float64 `json:"schema_threshold"`
	PurgeFactor     float64 `json:"purge_factor"`
	FilterRatio     float64 `json:"filter_ratio"`
	MetaBlocking    bool    `json:"meta_blocking"`
	Scheme          string  `json:"scheme"`
	Pruning         string  `json:"pruning"`
	UseEntropy      bool    `json:"use_entropy"`
	Measure         string  `json:"measure"`
	MatchThreshold  float64 `json:"match_threshold"`
	Clusterer       string  `json:"clusterer"`
	Partitions      int     `json:"partitions,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
}

// SaveConfig writes the configuration as indented JSON.
func SaveConfig(w io.Writer, cfg Config) error {
	cj := configJSON{
		LooseSchema:     cfg.LooseSchema,
		SchemaThreshold: cfg.SchemaThreshold,
		PurgeFactor:     cfg.PurgeFactor,
		FilterRatio:     cfg.FilterRatio,
		MetaBlocking:    cfg.MetaBlocking,
		Scheme:          cfg.Scheme.Name(),
		Pruning:         cfg.Pruning.Name(),
		UseEntropy:      cfg.UseEntropy,
		Measure:         string(cfg.Measure),
		MatchThreshold:  cfg.MatchThreshold,
		Clusterer:       string(cfg.Clusterer),
		Partitions:      cfg.Partitions,
		Seed:            cfg.Seed,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cj); err != nil {
		return fmt.Errorf("core: saving config: %w", err)
	}
	return nil
}

// LoadConfig reads a configuration previously written by SaveConfig.
// Missing fields keep the zero value; symbolic names are validated.
func LoadConfig(r io.Reader) (Config, error) {
	var cj configJSON
	if err := json.NewDecoder(r).Decode(&cj); err != nil {
		return Config{}, fmt.Errorf("core: loading config: %w", err)
	}
	cfg := Config{
		LooseSchema:     cj.LooseSchema,
		SchemaThreshold: cj.SchemaThreshold,
		PurgeFactor:     cj.PurgeFactor,
		FilterRatio:     cj.FilterRatio,
		MetaBlocking:    cj.MetaBlocking,
		UseEntropy:      cj.UseEntropy,
		Measure:         MeasureKind(cj.Measure),
		MatchThreshold:  cj.MatchThreshold,
		Clusterer:       ClusterAlgorithm(cj.Clusterer),
		Partitions:      cj.Partitions,
		Seed:            cj.Seed,
	}
	var err error
	if cj.Scheme != "" {
		if cfg.Scheme, err = metablocking.ParseScheme(cj.Scheme); err != nil {
			return Config{}, err
		}
	}
	if cj.Pruning != "" {
		if cfg.Pruning, err = metablocking.ParsePruning(cj.Pruning); err != nil {
			return Config{}, err
		}
	}
	switch cfg.Measure {
	case "", MeasureJaccard, MeasureDice, MeasureCosineTFIDF:
	default:
		return Config{}, fmt.Errorf("core: unknown measure %q", cfg.Measure)
	}
	switch cfg.Clusterer {
	case "", ClusterConnectedComponents, ClusterCenter, ClusterMergeCenter, ClusterUniqueMapping:
	default:
		return Config{}, fmt.Errorf("core: unknown clusterer %q", cfg.Clusterer)
	}
	return cfg, nil
}

// SaveConfigFile writes the configuration to a file.
func SaveConfigFile(path string, cfg Config) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return SaveConfig(f, cfg)
}

// LoadConfigFile reads a configuration from a file.
func LoadConfigFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return LoadConfig(f)
}
