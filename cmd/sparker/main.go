// Command sparker runs the full entity-resolution pipeline (Figure 3 of
// the paper) in batch mode: load profiles, block, match, cluster, and
// optionally evaluate against a ground truth and write the entities out.
//
// Two clean-clean CSV sources:
//
//	sparker -a abt.csv -b buy.csv -id id -gt matches.csv -out entities.csv
//
// A single dirty source:
//
//	sparker -dirty products.csv -id id
//
// No inputs: run on the generated SynthAbtBuy benchmark:
//
//	sparker -generate -executors 8
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"sparker/internal/core"
	"sparker/internal/dataflow"
	"sparker/internal/datagen"
	"sparker/internal/evaluation"
	"sparker/internal/loader"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
	"sparker/internal/profile"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sparker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fileA    = flag.String("a", "", "CSV file of the first clean source")
		fileB    = flag.String("b", "", "CSV file of the second clean source")
		dirty    = flag.String("dirty", "", "CSV file of a single dirty source")
		idCol    = flag.String("id", "id", "identifier column name")
		gtFile   = flag.String("gt", "", "ground-truth CSV (two original-ID columns)")
		outFile  = flag.String("out", "", "write resolved entities to this CSV")
		generate = flag.Bool("generate", false, "run on the generated SynthAbtBuy benchmark")

		executors = flag.Int("executors", 0, "simulated executors (0 = sequential)")

		loose     = flag.Bool("loose-schema", true, "enable Blast attribute partitioning")
		threshold = flag.Float64("schema-threshold", 0.3, "LSH attribute-similarity threshold")
		entropy   = flag.Bool("entropy", true, "scale meta-blocking weights by cluster entropy")
		scheme    = flag.String("scheme", "cbs", "weight scheme: cbs|ecbs|js|ejs|arcs")
		pruning   = flag.String("pruning", "blast", "pruning: wep|cep|wnp|rwnp|cnp|rcnp|blast")
		measure   = flag.String("measure", "jaccard", "matcher measure: jaccard|dice|cosine-tfidf")
		matchTh   = flag.Float64("match-threshold", 0.3, "matcher similarity threshold")
		clusterer = flag.String("clusterer", "connected-components", "clusterer: connected-components|center|merge-center")

		configFile = flag.String("config", "", "load a stored pipeline configuration (overrides flags)")
		saveConfig = flag.String("save-config", "", "write the effective configuration to this file")

		candidatesOut = flag.String("candidates-out", "", "export the blocker's candidate pairs to this CSV (for an external matcher)")
		matchesIn     = flag.String("matches-in", "", "import externally matched pairs (id_a,id_b[,score]) instead of running the matcher")
	)
	flag.Parse()

	collection, gtPairs, err := loadInput(*fileA, *fileB, *dirty, *idCol, *gtFile, *generate)
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.LooseSchema = *loose
	cfg.SchemaThreshold = *threshold
	cfg.UseEntropy = *entropy && *loose
	cfg.MatchThreshold = *matchTh
	cfg.Measure = core.MeasureKind(*measure)
	cfg.Clusterer = core.ClusterAlgorithm(*clusterer)
	if cfg.Scheme, err = metablocking.ParseScheme(*scheme); err != nil {
		return err
	}
	if cfg.Pruning, err = metablocking.ParsePruning(*pruning); err != nil {
		return err
	}
	if *configFile != "" {
		// A stored configuration (the paper's "batch mode" artifact)
		// overrides the individual flags.
		if cfg, err = core.LoadConfigFile(*configFile); err != nil {
			return err
		}
	}
	if *saveConfig != "" {
		if err := core.SaveConfigFile(*saveConfig, cfg); err != nil {
			return err
		}
		fmt.Printf("configuration written to %s\n", *saveConfig)
	}

	var cluster *dataflow.Context
	if *executors > 0 {
		cluster = dataflow.NewContext(dataflow.WithParallelism(*executors))
		defer cluster.Close()
	}

	pipeline := core.NewPipeline(cfg, cluster)
	result, err := resolve(pipeline, collection, *candidatesOut, *matchesIn)
	if err != nil {
		return err
	}

	fmt.Printf("profiles: %d  (max comparisons: %d)\n", collection.Size(), collection.MaxComparisons())
	fmt.Printf("blocks: raw=%d purged=%d filtered=%d\n",
		result.Blocker.Raw.NumBlocks(), result.Blocker.Purged.NumBlocks(), result.Blocker.Filtered.NumBlocks())
	fmt.Printf("candidates: %d   matches: %d   entities: %d\n",
		len(result.Blocker.Candidates), len(result.Matches), len(result.Entities))
	if result.Blocker.Partitioning != nil {
		fmt.Printf("attribute partitions:\n%s", result.Blocker.Partitioning)
	}
	if cluster != nil {
		m := cluster.Metrics()
		fmt.Printf("cluster: executors=%d tasks=%d shuffleRecords=%d broadcasts=%d\n",
			*executors, m.TasksLaunched, m.ShuffleRecords, m.BroadcastsBuilt)
	}

	if len(gtPairs) > 0 {
		gt, err := evaluation.FromOriginalIDs(collection, gtPairs)
		if err != nil {
			return err
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "step\tcandidates\trecall\tprecision\tF1")
		for _, r := range result.Evaluate(collection, gt) {
			fmt.Fprintf(w, "%s\t%d\t%.4f\t%.4f\t%.4f\n",
				r.Step, r.Metrics.Candidates, r.Metrics.Recall, r.Metrics.Precision, r.Metrics.F1)
		}
		w.Flush()
	}

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := loader.WriteEntitiesCSV(f, collection, result.Entities); err != nil {
			return err
		}
		fmt.Printf("entities written to %s\n", *outFile)
	}
	return nil
}

// resolve runs the pipeline, optionally exporting candidates for an
// external matcher and importing its results (the "any existing tool can
// be used" hand-off of the paper).
func resolve(pipeline *core.Pipeline, collection *profile.Collection, candidatesOut, matchesIn string) (*core.Result, error) {
	if candidatesOut == "" && matchesIn == "" {
		return pipeline.Resolve(collection)
	}
	blocker, err := pipeline.RunBlocker(collection)
	if err != nil {
		return nil, err
	}
	if candidatesOut != "" {
		f, err := os.Create(candidatesOut)
		if err != nil {
			return nil, err
		}
		if err := loader.WriteCandidatePairsCSV(f, collection, blocker.Candidates); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		fmt.Printf("candidate pairs written to %s\n", candidatesOut)
	}
	var matches []matching.Match
	if matchesIn != "" {
		f, err := os.Open(matchesIn)
		if err != nil {
			return nil, err
		}
		matches, err = loader.ReadMatchesCSV(f, collection)
		f.Close()
		if err != nil {
			return nil, err
		}
	} else {
		matches, err = pipeline.RunMatcher(collection, blocker.Candidates)
		if err != nil {
			return nil, err
		}
	}
	entities, err := pipeline.RunClusterer(matches)
	if err != nil {
		return nil, err
	}
	return &core.Result{Blocker: blocker, Matches: matches, Entities: entities}, nil
}

func loadInput(fileA, fileB, dirty, idCol, gtFile string, generate bool) (*profile.Collection, [][2]string, error) {
	switch {
	case generate:
		ds := datagen.Generate(datagen.AbtBuy())
		return ds.Collection, ds.GroundTruth, nil
	case dirty != "":
		ps, err := loader.ReadProfilesCSVFile(dirty, idCol)
		if err != nil {
			return nil, nil, err
		}
		gt, err := maybeGroundTruth(gtFile)
		return profile.NewDirty(ps), gt, err
	case fileA != "" && fileB != "":
		a, err := loader.ReadProfilesCSVFile(fileA, idCol)
		if err != nil {
			return nil, nil, err
		}
		b, err := loader.ReadProfilesCSVFile(fileB, idCol)
		if err != nil {
			return nil, nil, err
		}
		gt, err := maybeGroundTruth(gtFile)
		return profile.NewCleanClean(a, b), gt, err
	}
	return nil, nil, fmt.Errorf("provide -a/-b, -dirty, or -generate (see -h)")
}

func maybeGroundTruth(path string) ([][2]string, error) {
	if path == "" {
		return nil, nil
	}
	return loader.ReadGroundTruthCSVFile(path)
}
