// Command sparker-bench regenerates every experiment of the paper's
// evaluation (E1–E9 plus the ablations, indexed in the
// internal/experiments package doc) in one run and prints their tables.
// Use -markdown to emit GitHub tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"sparker/internal/datagen"
	"sparker/internal/experiments"
	"sparker/internal/metablocking"
)

var markdown = flag.Bool("markdown", false, "emit Markdown tables")

func main() {
	var (
		scale     = flag.Int("scale", 1, "dataset scale factor")
		executors = flag.String("executors", "1,2,4,8", "comma-separated executor counts for E6")
	)
	flag.Parse()

	cfg := datagen.AbtBuy().Scaled(*scale)
	d, err := experiments.LoadSynthAbtBuy(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %s — %d profiles (|A|=%d, |B|=%d), %d true matches, %d exhaustive comparisons\n\n",
		d.Name, d.Collection.Size(), d.Collection.Separator,
		d.Collection.Size()-int(d.Collection.Separator), d.GT.Size(), d.Collection.MaxComparisons())

	runE1E2()
	runE3(d)
	runE4(d)
	runE5(d)
	runE6(cfg, parseInts(*executors))
	runE7(d)
	runE8(d)
	runE9(d)
	runE10(d)
	runE11()
	runAblations(d)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparker-bench:", err)
	os.Exit(1)
}

// emit prints a table either as tab-aligned text or Markdown.
func emit(header []string, rows [][]string) {
	if *markdown {
		fmt.Println("| " + strings.Join(header, " | ") + " |")
		seps := make([]string, len(header))
		for i := range seps {
			seps[i] = "---"
		}
		fmt.Println("| " + strings.Join(seps, " | ") + " |")
		for _, r := range rows {
			fmt.Println("| " + strings.Join(r, " | ") + " |")
		}
	} else {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, strings.Join(header, "\t"))
		for _, r := range rows {
			fmt.Fprintln(w, strings.Join(r, "\t"))
		}
		w.Flush()
	}
	fmt.Println()
}

func runE1E2() {
	fmt.Println("## E1 — Figure 1(c): schema-agnostic meta-blocking toy")
	toyTable(experiments.Figure1Toy())
	fmt.Println("## E2 — Figure 2(c): loose-schema meta-blocking toy (entropy-weighted)")
	toyTable(experiments.Figure2Toy())
}

func toyTable(edges []experiments.ToyEdge) {
	var rows [][]string
	for _, e := range edges {
		kept := "removed"
		if e.Retained {
			kept = "retained"
		}
		rows = append(rows, []string{e.A + "-" + e.B, fmt.Sprintf("%.1f", e.Weight), kept})
	}
	emit([]string{"edge", "weight", "pruning"}, rows)
}

func runE3(d *experiments.Dataset) {
	fmt.Println("## E3 — Figure 6(a,b): LSH threshold sweep")
	var rows [][]string
	for _, r := range experiments.ThresholdSweep(d, []float64{1.0, 0.5, 0.3}) {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", r.Threshold),
			fmt.Sprintf("%d", r.Clusters),
			fmt.Sprintf("%d", r.BlobSize),
			fmt.Sprintf("%d", r.Blocks),
			fmt.Sprintf("%d", r.Comparisons),
			fmt.Sprintf("%.4f", r.Recall),
			fmt.Sprintf("%.6f", r.Precision),
			fmt.Sprintf("%d", r.LostPairs),
		})
	}
	emit([]string{"threshold", "clusters", "blob attrs", "blocks", "candidates in blocks", "recall", "precision", "lost pairs"}, rows)
}

func runE4(d *experiments.Dataset) {
	fmt.Println("## E4 — Figure 6(c,d): manual partition edit")
	res, err := experiments.ManualEdit(d)
	if err != nil {
		fatal(err)
	}
	emit([]string{"partitioning", "clusters", "candidates in blocks", "recall", "lost pairs"}, [][]string{
		{"automatic (th=0.3)", fmt.Sprintf("%d", res.Auto.Clusters), fmt.Sprintf("%d", res.Auto.Comparisons), fmt.Sprintf("%.4f", res.Auto.Recall), fmt.Sprintf("%d", res.Auto.LostPairs)},
		{"manual name/description split", fmt.Sprintf("%d", res.Edited.Clusters), fmt.Sprintf("%d", res.Edited.Comparisons), fmt.Sprintf("%.4f", res.Edited.Recall), fmt.Sprintf("%d", res.Edited.LostPairs)},
	})
	fmt.Printf("pairs newly lost by the split: %d (each shared only name/description keys before)\n\n", len(res.NewlyLost))
}

func runE5(d *experiments.Dataset) {
	fmt.Println("## E5 — Figure 6(e): meta-blocking with entropy")
	var rows [][]string
	for _, r := range experiments.EntropyMetaBlocking(d) {
		rows = append(rows, []string{r.Name, fmt.Sprintf("%d", r.Candidates), fmt.Sprintf("%.4f", r.Recall), fmt.Sprintf("%.6f", r.Precision)})
	}
	emit([]string{"configuration", "candidates", "recall", "precision"}, rows)
}

func runE6(cfg datagen.Config, executors []int) {
	fmt.Println("## E6 — scalability: executor sweep (distributed blocking + broadcast meta-blocking)")
	rows, err := experiments.Scalability(cfg, executors)
	if err != nil {
		fatal(err)
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Executors),
			fmt.Sprintf("%d", r.Profiles),
			fmt.Sprintf("%d", r.BlockingMS),
			fmt.Sprintf("%d", r.MetaBlockMS),
			fmt.Sprintf("%d", r.TotalMS),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d", r.ShuffleRecords),
			fmt.Sprintf("%d", r.Tasks),
		})
	}
	emit([]string{"executors", "profiles", "blocking ms", "meta-blocking ms", "total ms", "speedup", "shuffle records", "tasks"}, out)
}

func runE7(d *experiments.Dataset) {
	fmt.Println("## E7 — broadcast-join meta-blocking vs naive edge materialisation")
	rows, err := experiments.BroadcastVsNaive(d, 4)
	if err != nil {
		fatal(err)
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Algorithm, fmt.Sprintf("%d", r.Millis), fmt.Sprintf("%d", r.ShuffleRecords), fmt.Sprintf("%d", r.Edges)})
	}
	emit([]string{"plan", "ms", "shuffle records", "retained edges"}, out)
}

func runE8(d *experiments.Dataset) {
	fmt.Println("## E8 — end-to-end pipeline (Figures 3 and 5)")
	reports, err := experiments.EndToEnd(d, false)
	if err != nil {
		fatal(err)
	}
	var rows [][]string
	for _, r := range reports {
		rows = append(rows, []string{
			r.Step,
			fmt.Sprintf("%d", r.Metrics.Candidates),
			fmt.Sprintf("%.4f", r.Metrics.Recall),
			fmt.Sprintf("%.4f", r.Metrics.Precision),
			fmt.Sprintf("%.4f", r.Metrics.F1),
			fmt.Sprintf("%.4f", r.Metrics.ReductionRatio),
		})
	}
	emit([]string{"step", "candidates", "recall", "precision", "F1", "reduction ratio"}, rows)
}

func runE9(d *experiments.Dataset) {
	fmt.Println("## E9 — Section 3: debug-sample representativeness")
	var rows [][]string
	for _, r := range experiments.SamplingExperiment(d, []int{10, 20, 50}, 10) {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.K), fmt.Sprintf("%d", r.PerSeed),
			fmt.Sprintf("%d", r.SampleSize), fmt.Sprintf("%d", r.MatchingPairs),
		})
	}
	emit([]string{"K", "k", "sample size", "matching pairs inside"}, rows)
}

func runE10(d *experiments.Dataset) {
	fmt.Println("## E10 — progressive meta-blocking: recall vs comparison budget")
	var rows [][]string
	for _, r := range experiments.ProgressiveRecall(d, []int{1, 5, 10, 25, 50, 100}) {
		rows = append(rows, []string{
			r.Strategy,
			fmt.Sprintf("%d%%", r.BudgetPercent),
			fmt.Sprintf("%d", r.Comparisons),
			fmt.Sprintf("%.4f", r.Recall),
		})
	}
	emit([]string{"scheduler", "budget", "comparisons", "recall"}, rows)
}

func runE11() {
	fmt.Println("## E11 — cross-dataset check: bibliographic benchmark (\"different datasets can be used\")")
	bib, err := experiments.LoadBibliographic(datagen.BibDefault())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %s — %d profiles, %d true matches\n\n", bib.Name, bib.Collection.Size(), bib.GT.Size())
	reports, err := experiments.EndToEnd(bib, false)
	if err != nil {
		fatal(err)
	}
	var rows [][]string
	for _, r := range reports {
		rows = append(rows, []string{
			r.Step,
			fmt.Sprintf("%d", r.Metrics.Candidates),
			fmt.Sprintf("%.4f", r.Metrics.Recall),
			fmt.Sprintf("%.4f", r.Metrics.Precision),
			fmt.Sprintf("%.4f", r.Metrics.F1),
		})
	}
	emit([]string{"step", "candidates", "recall", "precision", "F1"}, rows)
}

func runAblations(d *experiments.Dataset) {
	fmt.Println("## Ablation — weight scheme × pruning rule (entropy on)")
	var rows [][]string
	for _, r := range experiments.SchemePruningAblation(d,
		[]metablocking.Scheme{metablocking.CBS, metablocking.JS, metablocking.ARCS},
		[]metablocking.Pruning{metablocking.WEP, metablocking.WNP, metablocking.CNP, metablocking.BlastPruning}) {
		rows = append(rows, []string{
			r.Scheme, r.Pruning,
			fmt.Sprintf("%d", r.Candidates),
			fmt.Sprintf("%.4f", r.Recall),
			fmt.Sprintf("%.6f", r.Precision),
			fmt.Sprintf("%.4f", r.F1),
		})
	}
	emit([]string{"scheme", "pruning", "candidates", "recall", "precision", "F1"}, rows)

	fmt.Println("## Ablation — entity-clustering algorithm")
	cl, err := experiments.ClustererAblation(d)
	if err != nil {
		fatal(err)
	}
	var crows [][]string
	for _, r := range cl {
		crows = append(crows, []string{r.Name, fmt.Sprintf("%d", r.Candidates), fmt.Sprintf("%.4f", r.Recall), fmt.Sprintf("%.6f", r.Precision)})
	}
	emit([]string{"clusterer", "co-reference pairs", "recall", "precision"}, crows)
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err == nil && v > 0 {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		out = []int{1, 2, 4}
	}
	return out
}
