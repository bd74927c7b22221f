package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"time"

	"sparker/internal/blocking"
	"sparker/internal/clustering"
	"sparker/internal/core"
	"sparker/internal/dataflow"
	"sparker/internal/evaluation"
	"sparker/internal/looseschema"
	"sparker/internal/matching"
	"sparker/internal/metablocking"
)

// batchK is batch-resolve's dataset scale: 4 346 profiles. A pass at
// k=4 takes 3.4 s here, which leaves too few passes for a median
// inside the benchmark's run length.
const batchK = 2

// minPasses is the fewest passes of each kind a batch run makes.
const minPasses = 3

// entityHash identifies an entity set whatever order its entities and
// members come in.
func entityHash(es []clustering.Entity) uint64 {
	keys := make([][]int32, len(es))
	for i, e := range es {
		keys[i] = append([]int32(nil), e.Profiles...)
		sort.Slice(keys[i], func(a, b int) bool { return keys[i][a] < keys[i][b] })
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a][0] < keys[b][0] })
	h := fnv.New64a()
	var buf [4]byte
	for _, k := range keys {
		for _, id := range k {
			binary.LittleEndian.PutUint32(buf[:], uint32(id))
			h.Write(buf[:])
		}
		h.Write([]byte{0xff, 0xff, 0xff, 0xff}) // entity separator: no profile ID is -1
	}
	return h.Sum64()
}

// runBatch is the batch-resolve workload: the paper's pipeline, in
// process, sequential and on the dataflow engine.
func runBatch(e *env) error {
	if e.Trace {
		return runBatchTraced(e)
	}
	d, err := WriteDataset(e.work, e.k(batchK), e.Seed)
	if err != nil {
		return err
	}

	// Set-up is what stands between the generated files and the first
	// pass: parsing both CSVs into a collection. It takes milliseconds,
	// so it is repeated often enough for a steady median. Every time in
	// this workload is scaled to the nominal machine (see calibrate).
	var setups, speeds []float64
	speed := calibrate()
	for i := 0; i < 31; i++ {
		t0 := time.Now()
		if err := d.LoadCollection(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	speed = (speed + calibrate()) / 2
	e.res.set("setup_s", median(setups)*speed, len(setups))

	gt, err := evaluation.FromOriginalIDs(d.Collection, d.GroundTruth)
	if err != nil {
		return err
	}
	ctx := dataflow.NewContext(dataflow.WithParallelism(runtime.NumCPU()))
	defer ctx.Close()

	// Sequential and dataflow passes alternate, so drift in the machine
	// lands on both alike. A batch job that dies keeps nothing: it is
	// back when it has read its inputs again and resolved them, so each
	// sequential pass is preceded by a timed reload and the two together
	// are one restart.
	var seq, df, restarts []float64 // scaled
	var rawSeq, rawDf []float64
	var first *core.Result
	var want uint64
	disagree := 0
	begin := time.Now()
	for len(seq) < minPasses || time.Since(begin).Seconds() < e.Seconds {
		for _, dctx := range []*dataflow.Context{nil, ctx} {
			speed := calibrate()
			speeds = append(speeds, speed)
			var reload float64
			if dctx == nil {
				t0 := time.Now()
				if err := d.LoadCollection(); err != nil {
					return err
				}
				reload = time.Since(t0).Seconds()
			}
			t0 := time.Now()
			r, err := core.NewPipeline(core.DefaultConfig(), dctx).Resolve(d.Collection)
			took := time.Since(t0).Seconds()
			e.res.Attempted++
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: pass failed:", err)
				e.res.Failed++
				continue
			}
			if first == nil {
				first, want = r, entityHash(r.Entities)
			} else if entityHash(r.Entities) != want {
				disagree++
				e.res.Failed++
				continue
			}
			if dctx == nil {
				seq, rawSeq = append(seq, took*speed), append(rawSeq, took)
				restarts = append(restarts, (reload+took)*speed)
			} else {
				df, rawDf = append(df, took*speed), append(rawDf, took)
			}
		}
	}
	e.res.check("entity-set hash identical across passes", disagree == 0 && first != nil,
		"%d of %d passes disagree with the first", disagree, e.res.Attempted)
	if len(seq) == 0 || len(df) == 0 {
		return fmt.Errorf("no pass succeeded")
	}

	sort.Float64s(seq)
	e.res.set("op_p50_ms", median(seq)*1e3, len(seq))
	e.res.set("op_p75_ms", quantile(seq, 0.75)*1e3, len(seq))
	e.res.set("query_p50_ms", median(seq)*1e3, len(seq)) // a pass is the batch pipeline's one read
	e.res.set("query_p75_ms", quantile(seq, 0.75)*1e3, len(seq))
	e.res.set("load.op_p90_ms", quantile(seq, 0.9)*1e3, len(seq))
	e.res.set("restart_s", median(restarts), len(restarts))
	e.res.set("load.op_p99_ms", seq[len(seq)-1]*1e3, len(seq)) // the slowest pass
	e.res.set("sat_ops_per_s", 1/median(df), len(df))
	e.res.set("load.resolve_s", median(rawSeq), len(rawSeq)) // as the clock read them
	e.res.set("load.resolve_dataflow_s", median(rawDf), len(rawDf))
	e.res.set("load.calibration_ms", ms(nominalCalibration)/median(speeds), len(speeds))
	final := first.Evaluate(d.Collection, gt)[2].Metrics // pairs of the final entities
	e.res.set("recall", final.Recall, gt.Size())
	e.res.set("precision", final.Precision, final.Candidates)
	return nil
}

// runBatchTraced is batch-resolve's traced run: the batch probe's
// staged passes are the workload itself, stage by stage.
func runBatchTraced(e *env) error {
	tr := newTrace()
	if err := e.addProbes(tr); err != nil {
		return err
	}
	e.res.Attempted = int(e.res.Values["load.sent"].Value)
	e.res.set("serve.shed_share", 0, 0)
	e.res.set("serve.degraded_share", 0, 0)
	e.res.set("serve.truncated_share", 0, 0)
	return tr.write(e.tracePath())
}

// probeBatchLayers times the batch pipeline stage by stage: the harness
// itself makes the calls Resolve makes, each under a span, first
// sequentially and then through the *Distributed twins. Both entity
// sets must equal Resolve's. The harness process is the system here,
// so its own CPU and memory are the proc rows; on a serving workload
// the live servers' take their place.
func probeBatchLayers(e *env, d *Dataset, tr *Trace) error {
	before, err := readUsage(os.Getpid())
	if err != nil {
		return err
	}
	c := d.Collection
	cfg := core.DefaultConfig()
	gt, err := evaluation.FromOriginalIDs(c, d.GroundTruth)
	if err != nil {
		return err
	}

	var refs []float64
	var want uint64
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		r, err := core.NewPipeline(cfg, nil).Resolve(c)
		if err != nil {
			return err
		}
		refs = append(refs, time.Since(t0).Seconds())
		want = entityHash(r.Entities)
	}
	var seqSeconds float64 // the staged sequential pass

	ctx := dataflow.NewContext(dataflow.WithParallelism(runtime.NumCPU()))
	defer ctx.Close()
	for _, dctx := range []*dataflow.Context{nil, ctx} {
		prefix, root := "", "staged-pass"
		if dctx != nil {
			prefix, root = "dataflow.", "staged-pass-dataflow"
			ctx.ResetMetrics()
		}
		times := map[string]float64{}
		var stageErr error
		rootStart := tr.now()
		rootIdx := tr.add(Span{Name: root, StartNs: rootStart, Parent: -1, Op: -1})
		stage := func(name string, fn func() error) {
			if stageErr != nil {
				return
			}
			t0 := time.Now()
			tr.time(name, rootIdx, -1, func() { stageErr = fn() })
			times[name] += time.Since(t0).Seconds()
		}

		var part *looseschema.Partitioning
		var raw, filtered *blocking.Collection
		var bidx *blocking.Index
		var edges []metablocking.Edge
		var matches []matching.Match
		var entities []clustering.Entity
		stage("looseschema.partition", func() error {
			aps := looseschema.ExtractAttributeProfiles(c, cfg.Tokenizer)
			part = looseschema.PartitionAttributes(aps, c.IsClean(), looseschema.Options{
				Threshold: cfg.SchemaThreshold, Seed: cfg.Seed, Tokenizer: cfg.Tokenizer,
			})
			return nil
		})
		opts := blocking.Options{Tokenizer: cfg.Tokenizer, Clustering: part}
		stage(prefix+"blocking.token_blocking", func() (err error) {
			if dctx != nil {
				raw, err = blocking.DistributedTokenBlocking(dctx, c, opts, cfg.Partitions)
				return err
			}
			raw = blocking.TokenBlocking(c, opts)
			return nil
		})
		stage("blocking.purge_filter", func() error {
			filtered = blocking.Filter(blocking.PurgeBySize(raw, cfg.PurgeFactor), cfg.FilterRatio)
			return nil
		})
		stage("blocking.build_index", func() error {
			bidx = blocking.BuildIndex(filtered)
			return nil
		})
		mbOpts := metablocking.Options{Scheme: cfg.Scheme, Pruning: cfg.Pruning, Entropy: part}
		stage(prefix+"metablocking.run", func() (err error) {
			if dctx != nil {
				edges, err = metablocking.RunDistributed(dctx, bidx, mbOpts, cfg.Partitions)
				return err
			}
			edges = metablocking.Run(bidx, mbOpts)
			return nil
		})
		candidates := make([]blocking.Pair, len(edges))
		for i, ed := range edges {
			candidates[i] = blocking.Pair{A: ed.A, B: ed.B}
		}
		measure := matching.JaccardMeasure(cfg.Tokenizer)
		stage(prefix+"matching.match", func() (err error) {
			if dctx != nil {
				matches, err = matching.MatchPairsDistributed(dctx, c, candidates, measure, cfg.MatchThreshold, cfg.Partitions)
				return err
			}
			matches = matching.MatchPairs(c, candidates, measure, cfg.MatchThreshold)
			return nil
		})
		stage(prefix+"clustering.cluster", func() (err error) {
			if dctx != nil {
				entities, err = clustering.DistributedConnectedComponents(dctx, matches, cfg.Partitions)
				return err
			}
			entities = clustering.ConnectedComponents(matches)
			return nil
		})
		rootEnd := tr.now()
		tr.end(rootIdx, rootEnd)
		if stageErr != nil {
			return stageErr
		}
		e.res.check(root+" entity set equals Resolve's", entityHash(entities) == want,
			"hash %x, Resolve's %x", entityHash(entities), want)

		if dctx != nil {
			m := ctx.Metrics()
			e.res.set("dataflow.token_blocking_s", times["dataflow.blocking.token_blocking"], 1)
			e.res.set("dataflow.metablocking_s", times["dataflow.metablocking.run"], 1)
			e.res.set("dataflow.matching_s", times["dataflow.matching.match"], 1)
			e.res.set("dataflow.clustering_s", times["dataflow.clustering.cluster"], 1)
			e.res.set("dataflow.tasks", float64(m.TasksLaunched), 0)
			e.res.set("dataflow.shuffle_records", float64(m.ShuffleRecords), 0)
			continue
		}
		seqSeconds = float64(rootEnd-rootStart) / 1e9
		pairs := evaluation.EvaluatePairs(candidates, gt, c.MaxComparisons())
		e.res.set("looseschema.partition_s", times["looseschema.partition"], 1)
		e.res.set("blocking.token_blocking_s", times["blocking.token_blocking"], 1)
		e.res.set("blocking.purge_filter_s", times["blocking.purge_filter"], 1)
		e.res.set("blocking.build_index_s", times["blocking.build_index"], 1)
		e.res.set("blocking.blocks_raw", float64(raw.NumBlocks()), 0)
		e.res.set("blocking.blocks_filtered", float64(filtered.NumBlocks()), 0)
		e.res.set("metablocking.run_s", times["metablocking.run"], 1)
		e.res.set("metablocking.edges_retained", float64(len(edges)), 0)
		e.res.set("metablocking.pc", pairs.Recall, gt.Size())
		e.res.set("metablocking.pq", pairs.Precision, pairs.Candidates)
		e.res.set("matching.match_s", times["matching.match"], 1)
		e.res.set("matching.pairs_scored", float64(len(candidates)), 0)
		e.res.set("matching.ns_per_pair", times["matching.match"]*1e9/float64(len(candidates)), len(candidates))
		e.res.set("matching.matches", float64(len(matches)), 0)
		e.res.set("clustering.cluster_s", times["clustering.cluster"], 1)
		e.res.set("clustering.entities", float64(len(entities)), 0)
	}
	after, err := readUsage(os.Getpid())
	if err != nil {
		return err
	}
	passes := len(refs) + 2
	closure := tr.closureShare("staged-pass")
	e.res.set("load.sent", float64(passes), 0)
	e.res.set("load.ok", float64(passes), 0)
	e.res.set("load.failed", 0, 0)
	e.res.set("proc.cpu_ms_per_op", ms(after.cpu-before.cpu)/float64(passes), passes)
	e.res.set("proc.rss_peak_mb", after.rssPeak, 0)
	e.res.set("trace.closure_share", closure, 0)
	e.res.set("trace.overhead_share", seqSeconds/median(refs)-1, 0)
	e.res.check("staged-pass closure at least 0.9", closure >= minClosure,
		"the stages cover %.3f of the staged pass", closure)
	return nil
}
