// Command sparker-serve exposes an online entity index over HTTP: build
// the index once from CSV sources (or the generated benchmark), then
// answer point queries and incremental upserts without re-running the
// batch pipeline.
//
// Two clean-clean CSV sources:
//
//	sparker-serve -a abt.csv -b buy.csv -id id -addr :8080
//
// The resolve knobs — purge factor, filter ratio, meta-blocking, scheme,
// pruning rule and its top_k, measure, match threshold — come from one
// configuration file, the JSON `sparker -save-config` writes and
// `sparker -config` reads, with the same meaning for every field and
// every zero. A field the index cannot honour (loose schema, entropy,
// EJS, cosine-TF-IDF, a pruning rule other than CNP or WNP) is refused
// at boot, never remapped:
//
//	sparker-serve -generate -config resolve.json
//
// A single dirty source:
//
//	sparker-serve -dirty products.csv -id id
//
// No inputs: serve the generated SynthAbtBuy benchmark:
//
//	sparker-serve -generate
//
// Endpoints, all under /v1/: POST /v1/query, POST /v1/upsert, POST
// /v1/bulk (JSON-lines bodies, "id" field plus attributes; ?source=1
// targets the second clean source), POST /v1/snapshot/save, GET
// /v1/stats; /metrics, /healthz and /readyz are unversioned operator
// conventions. Every 4xx/5xx — an unknown path included — answers the
// typed JSON error envelope {"error": {"code", "message"}}.
//
// Durable snapshots make restarts warm: with -snapshot the server
// restores the index from the file at boot (falling back to a fresh
// build from the input flags when the file is absent or written by
// another format version, version 3 included; with -oplog-dir the log
// is replayed onto that build, and boot fails on a sequence gap instead
// of dropping logged writes), saves it on SIGTERM/SIGINT and on POST
// /v1/snapshot/save, and with -snapshot-interval also on a timer. A
// snapshot is a checkpoint at one sequence number; what was written
// after it survives a crash only in the op log (-oplog-dir, below).
// With -read-only the index rejects upserts (HTTP 403) — the replica
// serving mode: point several read-only processes at one snapshot file.
// A replica only ever reads that file: automatic saves are disabled and
// /v1/snapshot/save answers 403, so a stale replica can never clobber
// the primary's newer snapshot.
//
//	sparker-serve -generate -snapshot /var/lib/sparker/idx.snap
//	# ... kill it, restart with the same flags: no re-indexing.
//
// Replication: every sparker-serve keeps an in-memory op log (bounded
// by -oplog-retain) and serves it on GET /v1/deltas, with GET
// /v1/snapshot streaming a full bootstrap image. A replica started with
// -follow bootstraps from its leader over HTTP, serves read-only at its
// last applied sequence number, and tails the leader's delta feed;
// /v1/stats and /metrics report the replication lag. A follower that falls off
// the leader's retention window re-bootstraps automatically.
//
//	sparker-serve -generate -addr :8080                  # leader
//	sparker-serve -follow http://localhost:8080 -addr :8081
//
// Cluster mode: -shards (a comma-separated list of shard base URLs)
// turns the process into a scatter-gather coordinator instead of an
// index server. Upserts route to one shard by hash of the profile's
// original ID, queries fan out to every shard with a split budget and
// merge deterministically, and a dead shard degrades answers (the
// surviving shards' merged results, marked "degraded") rather than
// failing them. Shard health is probed via /readyz; the coordinator's
// own /readyz drains only when no shard is left. The coordinator runs
// the same front end as a node — the same admission gate, body cap and
// degradation ladder, with the same -default-budget-ms precedence — and
// rejects the flags that configure a local index. -index-shards (the
// per-process index shard count) is unrelated to cluster mode.
//
//	sparker-serve -addr :8081 &                 # shard 0
//	sparker-serve -addr :8082 &                 # shard 1
//	sparker-serve -shards http://localhost:8081,http://localhost:8082 -addr :8080
//
// Durability: with -oplog-dir every op is appended to a CRC-framed,
// rotating on-disk segment file *before* it mutates the index
// (-oplog-fsync picks the always/interval/never fsync policy). The
// segment log is the only on-disk delta store: after a crash — kill -9
// included — the next boot restores the snapshot, replays the log tail
// past it, truncates a torn or bit-flipped tail at the last good frame,
// and repopulates the in-memory delta window, so followers catch up
// over /v1/deltas without a re-bootstrap. Every snapshot save prunes
// the segments it covers.
//
//	sparker-serve -generate -snapshot idx.snap -oplog-dir ./oplog -oplog-fsync always
//
// Overload behavior: with -max-inflight the resolution routes sit
// behind an admission gate — beyond the cap a request waits at most
// -shed-wait for a slot and is then shed with 429/503 + Retry-After,
// and admitted queries degrade under pressure (tightened budgets and
// comparison caps) instead of queueing. -default-budget-ms
// bounds every query's wall clock; clients can tighten (or lift) it
// per request with ?budget_ms= / ?max_comparisons=, and budget-bound
// answers come back marked "truncated" with the stage that tripped.
// GET /healthz (liveness) and /readyz (readiness: 503 while shedding
// hard) let a load balancer drain replicas cleanly; request bodies are
// capped by -max-body (413 beyond), and header/read/write/idle
// timeouts close the slowloris hole:
//
//	sparker-serve -generate -max-inflight 64 -shed-wait 50ms -default-budget-ms 20ms
//
// Observability: GET /metrics serves the Prometheus text exposition
// (disable with -metrics=false), /v1/query?debug=1 returns a per-stage
// timing breakdown inline, -slow-query logs any query slower than the
// given duration with its full stage breakdown, and -pprof starts
// net/http/pprof on a separate address so profiling traffic never
// shares the serving listener:
//
//	sparker-serve -generate -slow-query 50ms -pprof localhost:6060
//
// All logging is structured (log/slog, text format on stderr).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"sparker/internal/core"
	"sparker/internal/datagen"
	"sparker/internal/index"
	"sparker/internal/loader"
	"sparker/internal/profile"
	"sparker/serve"
)

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err == nil {
		err = run(cfg)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "sparker-serve:", err)
		os.Exit(1)
	}
}

// config is the validated command line: the listener both modes share
// and exactly one of coordinator (-shards) and node.
type config struct {
	addr        string
	pprofAddr   string
	coordinator *coordinatorConfig
	node        *nodeConfig
}

// coordinatorConfig is coordinator mode: a different program — no
// index, no persistence, just the scatter-gather front end over the
// listed shards.
type coordinatorConfig struct {
	shards []string
	opts   serve.ClusterOptions
}

// nodeConfig is index-server mode: where the index comes from, how it
// persists and replicates, and how it is built and served.
type nodeConfig struct {
	fileA, fileB, dirty, idCol string
	generate                   bool

	snapshotInterval time.Duration
	readOnly         bool
	follow           string
	wal              index.WALConfig // Dir empty: no durable op log

	index index.Config
	opts  serve.Options // SnapshotPath is -snapshot
}

// cli is the flag set together with everything registering it binds:
// the config the flags fill directly, and the raw values that need
// parsing or belong to one mode only.
type cli struct {
	fs   *flag.FlagSet
	cfg  config
	node nodeConfig
	// shared names the flags both modes accept — those registered before
	// the local-index ones. Coordinator mode rejects every other flag,
	// so a flag added to the index section can never be silently ignored
	// there.
	shared map[string]bool

	metrics       bool
	shards        string
	probeInterval time.Duration

	configFile, oplogFsync string
}

func newCLI() *cli {
	c := &cli{fs: flag.NewFlagSet("sparker-serve", flag.ContinueOnError), shared: map[string]bool{}}
	fs, n, o, ix := c.fs, &c.node, &c.node.opts, &c.node.index
	*ix = index.DefaultConfig()

	fs.StringVar(&c.cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.cfg.pprofAddr, "pprof", "", "also serve net/http/pprof on this address (empty disables)")
	fs.BoolVar(&c.metrics, "metrics", true, "serve the Prometheus text exposition on GET /metrics")
	fs.IntVar(&o.MaxInFlight, "max-inflight", 0, "admission gate: max concurrently served /v1/query+/v1/upsert+/v1/bulk requests; beyond it requests shed with 429/503 instead of queueing (0 disables)")
	fs.DurationVar(&o.ShedWait, "shed-wait", 0, "how long an over-limit request may wait for an admission slot before a 503 (0: shed immediately with 429)")
	fs.DurationVar(&o.DefaultBudget, "default-budget-ms", 0, "per-query wall-clock budget applied when the request carries no ?budget_ms= (0 = unlimited); accepts any duration, e.g. 50ms")
	fs.Int64Var(&o.MaxBodyBytes, "max-body", serve.DefaultMaxBodyBytes, "max request body bytes on /v1/query, /v1/upsert and /v1/bulk (413 beyond it)")
	fs.StringVar(&c.shards, "shards", "", "coordinator mode: comma-separated shard base URLs (e.g. http://s0:8081,http://s1:8082); scatter-gathers queries and hash-routes writes instead of serving an index")
	fs.DurationVar(&c.probeInterval, "probe-interval", 500*time.Millisecond, "coordinator mode: shard /readyz health-probe cadence")
	fs.VisitAll(func(f *flag.Flag) { c.shared[f.Name] = true })

	// Everything below configures a local index: node mode only.
	fs.StringVar(&n.fileA, "a", "", "CSV file of the first clean source")
	fs.StringVar(&n.fileB, "b", "", "CSV file of the second clean source")
	fs.StringVar(&n.dirty, "dirty", "", "CSV file of a single dirty source")
	fs.StringVar(&n.idCol, "id", "id", "identifier column name")
	fs.BoolVar(&n.generate, "generate", false, "serve the generated SynthAbtBuy benchmark")

	fs.StringVar(&o.SnapshotPath, "snapshot", "", "snapshot file: restore at boot, save on SIGTERM and POST /v1/snapshot/save")
	fs.DurationVar(&n.snapshotInterval, "snapshot-interval", 0, "also save the snapshot periodically (0 disables; needs -snapshot)")
	fs.BoolVar(&n.readOnly, "read-only", false, "replica mode: reject upserts (HTTP 403)")

	fs.StringVar(&n.follow, "follow", "", "replicate from this leader URL: bootstrap via GET /v1/snapshot, tail GET /v1/deltas, serve read-only")
	fs.IntVar(&ix.OpLog.MaxOps, "oplog-retain", 0, "op frames retained in memory for /v1/deltas (0: default window)")

	fs.StringVar(&n.wal.Dir, "oplog-dir", "", "durable op-log directory: append every op to rotating segment files before applying it, replay the tail at boot (crash-safe restart)")
	fs.StringVar(&c.oplogFsync, "oplog-fsync", "", "op-log fsync policy: always (fsync per append), interval (background flush, the default), never (OS page cache only); needs -oplog-dir")

	fs.DurationVar(&o.SlowQuery, "slow-query", 0, "log queries slower than this with a per-stage breakdown (0 disables)")

	fs.IntVar(&ix.Shards, "index-shards", 16, "index shard count (a restored snapshot keeps its saved count)")
	fs.StringVar(&c.configFile, "config", "", "resolve configuration file: the JSON sparker -save-config writes, read as sparker -config reads it (absent fields are zero); refused if the index cannot honour it. Without it: CBS weights, CNP keeping the top 10, Jaccard at 0.3")
	return c
}

// parseConfig turns the command line into one validated config: every
// range, enumeration and flag-combination check happens here, before
// anything is opened, loaded or listened on.
func parseConfig(args []string) (config, error) {
	c := newCLI()
	if err := c.fs.Parse(args); err != nil {
		return config{}, err
	}
	if c.fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", c.fs.Arg(0))
	}
	cfg, n := c.cfg, &c.node
	n.opts.NoMetrics = !c.metrics

	// In coordinator mode a flag that configures a local index is a
	// misconfiguration, not a silent no-op.
	if c.shards != "" {
		var bad []string
		c.fs.Visit(func(f *flag.Flag) {
			if !c.shared[f.Name] {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			return config{}, fmt.Errorf("coordinator mode (-shards) serves no local index; drop %s", strings.Join(bad, ", "))
		}
		cc := &coordinatorConfig{opts: serve.ClusterOptions{
			MaxInFlight:   n.opts.MaxInFlight,
			ShedWait:      n.opts.ShedWait,
			DefaultBudget: n.opts.DefaultBudget,
			MaxBodyBytes:  n.opts.MaxBodyBytes,
			ProbeInterval: c.probeInterval,
			NoMetrics:     n.opts.NoMetrics,
		}}
		for _, u := range strings.Split(c.shards, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cc.shards = append(cc.shards, u)
			}
		}
		cfg.coordinator = cc
		return cfg, nil
	}

	// Validate at the flag layer: index.Config treats zero as "unset",
	// so an explicit 0 here would be silently replaced by a default.
	ix := &n.index
	if ix.Shards <= 0 {
		return config{}, fmt.Errorf("-index-shards must be positive, got %d", ix.Shards)
	}
	if n.follow != "" {
		if err := serve.ValidateLeaderURL(n.follow); err != nil {
			return config{}, err
		}
		if n.fileA != "" || n.fileB != "" || n.dirty != "" || n.generate {
			return config{}, fmt.Errorf("-follow bootstraps from the leader; drop -a/-b/-dirty/-generate")
		}
		// A follower swaps its whole index on re-bootstrap, which would
		// orphan an attached WAL mid-flight; its durability is the
		// leader's job.
		if n.wal.Dir != "" {
			return config{}, fmt.Errorf("-oplog-dir is a leader-side durability flag; a -follow replica replays the leader's log instead")
		}
	}
	switch {
	case n.snapshotInterval == 0:
	case n.snapshotInterval < 0:
		return config{}, fmt.Errorf("-snapshot-interval must be non-negative, got %s", n.snapshotInterval)
	case n.opts.SnapshotPath == "":
		return config{}, fmt.Errorf("-snapshot-interval needs -snapshot (the file to save to)")
	case n.readOnly || n.follow != "":
		return config{}, fmt.Errorf("-snapshot-interval saves nothing on a replica: -read-only and -follow never write the snapshot")
	}
	if n.wal.Dir == "" && c.oplogFsync != "" {
		return config{}, fmt.Errorf("-oplog-fsync needs -oplog-dir (there is no op log on disk to fsync)")
	}
	var err error
	if n.wal.Sync, err = index.ParseWALSyncPolicy(c.oplogFsync); err != nil {
		return config{}, err
	}
	// Every serving process keeps an op log: it is what /v1/deltas
	// serves, and its memory is bounded by the retention window
	// regardless of index size.
	ix.OpLog.Enabled = true
	if c.configFile != "" {
		rc, err := core.LoadConfigFile(c.configFile)
		if err == nil {
			err = rc.Validate()
		}
		if err != nil {
			return config{}, fmt.Errorf("-config %s: %w", c.configFile, err)
		}
		ix.ResolveConfig = rc.ResolveConfig
	}
	cfg.node = n
	return cfg, nil
}

func run(cfg config) error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// The pprof handlers live on their own mux and address so profiling
	// traffic (and its unauthenticated endpoints) never shares the
	// serving listener.
	if cfg.pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(cfg.pprofAddr, pm); err != nil {
				logger.Error("pprof listener failed", "addr", cfg.pprofAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", cfg.pprofAddr)
	}

	// Coordinator mode: /v1 queries fan out to every shard and merge,
	// writes hash-route to one shard, and a dead shard degrades answers
	// instead of failing them.
	if cc := cfg.coordinator; cc != nil {
		cc.opts.Logger = logger
		cluster, err := serve.NewCluster(cc.shards, cc.opts)
		if err != nil {
			return err
		}
		logger.Info("coordinating", "shards", len(cc.shards))
		return serveUntilSignal(cfg.addr, cluster, logger, cluster.Close)
	}
	return runNode(cfg.addr, cfg.node, logger)
}

// serveUntilSignal is the one server lifecycle: listen, serve until
// SIGINT/SIGTERM, drain in-flight requests, then run the mode's own
// shutdown work. The server-level timeouts close the slowloris hole: a
// client that trickles headers or never reads its response is cut off
// instead of holding a connection (and, with admission on, a slot)
// forever.
func serveUntilSignal(addr string, handler http.Handler, logger *slog.Logger, onShutdown func()) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", addr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown failed", "err", err)
		}
		onShutdown()
		return nil
	}
}

// runNode serves one local index: restore or build it, attach the
// durable op log, start the save timer and the follower loop, serve.
func runNode(addr string, n *nodeConfig, logger *slog.Logger) error {
	snapshot := n.opts.SnapshotPath
	// A follower never writes; -read-only covers the shared-snapshot
	// replica mode.
	isReadOnly := n.readOnly || n.follow != ""

	// Restore at boot: a follower bootstraps from its leader over HTTP;
	// otherwise a present, version-compatible snapshot skips loading and
	// re-indexing the input files entirely.
	var idx *index.Index
	if n.follow != "" {
		n.opts.Follower = serve.NewFollower(n.follow, n.index, serve.FollowerOptions{Logger: logger})
		bctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		x, err := n.opts.Follower.Bootstrap(bctx)
		cancel()
		if err != nil {
			return err
		}
		idx = x
		logger.Info("bootstrapped from leader",
			"leader", n.follow,
			"profiles", x.Size(),
			"seq", x.Seq())
	} else if snapshot != "" {
		x, err := index.Load(snapshot, n.index)
		switch {
		case err == nil:
			idx = x
			st, _ := x.PersistState()
			logger.Info("restored snapshot",
				"path", snapshot,
				"profiles", x.Size(),
				"bytes", st.Bytes,
				"saved_at", st.SavedAt.Format(time.RFC3339))
		case errors.Is(err, fs.ErrNotExist), errors.Is(err, index.ErrSnapshotVersion):
			logger.Warn("snapshot unavailable, building fresh index", "path", snapshot, "err", err)
		default:
			return err
		}
	}
	if idx == nil {
		c, err := loadCollection(n.fileA, n.fileB, n.dirty, n.idCol, n.generate)
		if err != nil {
			return err
		}
		if idx, err = index.NewFromCollection(c, n.index); err != nil {
			return err
		}
		snap := idx.Snapshot()
		logger.Info("indexed collection",
			"profiles", snap.Profiles,
			"blocks", snap.Blocks,
			"shards", snap.Shards,
			"max_block_size", snap.MaxBlockSize)
	}
	if n.readOnly {
		idx.SetReadOnly(true)
		logger.Info("read-only replica mode: upserts rejected")
	}

	// Attach the durable op log after the snapshot restore: recovery
	// replays only the segment tail past the restored sequence number,
	// repopulating the in-memory window so followers resume from
	// /v1/deltas without a re-bootstrap. From here every op hits disk
	// before it mutates the index.
	if n.wal.Dir != "" {
		rec, err := idx.OpenWAL(n.wal)
		if err != nil {
			return fmt.Errorf("op-log recovery: %w", err)
		}
		logger.Info("op log attached",
			"dir", n.wal.Dir,
			"fsync", n.wal.Sync.String(),
			"segments", rec.Segments,
			"replayed_ops", rec.Replayed,
			"skipped_ops", rec.SkippedOps,
			"truncated_bytes", rec.TruncatedBytes,
			"dropped_segments", rec.DroppedSegments,
			"seq", idx.Seq())
	}

	// A read-only replica consumes the snapshot file, never produces it:
	// auto-saving would overwrite a newer primary snapshot with this
	// replica's stale copy.
	save := func(reason string) {
		if snapshot == "" || isReadOnly {
			return
		}
		start := time.Now()
		st, err := idx.Save(snapshot)
		if err != nil {
			logger.Error("snapshot save failed", "reason", reason, "path", snapshot, "err", err)
			return
		}
		logger.Info("saved snapshot",
			"path", st.Path,
			"bytes", st.Bytes,
			"seq", st.Seq,
			"elapsed", time.Since(start).Round(time.Millisecond),
			"reason", reason)
	}
	// The save timer runs on a goroutine shutdown can stop and wait for:
	// the final save-on-SIGTERM never races an in-flight interval save,
	// and the goroutine never outlives the graceful exit.
	var saveLoop sync.WaitGroup
	stopSaves := make(chan struct{})
	if n.snapshotInterval > 0 {
		saveLoop.Add(1)
		go func() {
			defer saveLoop.Done()
			t := time.NewTicker(n.snapshotInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					save("interval")
				case <-stopSaves:
					return
				}
			}
		}()
	}

	// The handler itself refuses /v1/snapshot/save on a read-only index
	// (403), so the path can be passed through unconditionally.
	n.opts.Logger = logger
	handler := serve.NewHandlerOptions(idx, n.opts)
	if n.opts.MaxInFlight > 0 {
		logger.Info("admission control on",
			"max_inflight", n.opts.MaxInFlight,
			"shed_wait", n.opts.ShedWait.String(),
			"default_budget", n.opts.DefaultBudget.String())
	}
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	if f := n.opts.Follower; f != nil {
		go func() { _ = f.Run(runCtx, handler) }()
		logger.Info("following leader", "leader", n.follow)
	}
	return serveUntilSignal(addr, handler, logger, func() {
		cancelRun()
		// Stop the timed saves and wait the loop out: the final save
		// below must not race an in-flight interval save.
		close(stopSaves)
		saveLoop.Wait()
		save("shutdown")
		// After the final save so the snapshot prunes now-covered
		// segments; close syncs whatever the flush policy left pending.
		if idx.WALEnabled() {
			if err := idx.CloseWAL(); err != nil {
				logger.Error("op log close failed", "err", err)
			}
		}
	})
}

// loadCollection assembles the startup collection from the flags; with no
// inputs it serves an empty clean-clean index ready for /v1/bulk loads.
func loadCollection(fileA, fileB, dirty, idCol string, generate bool) (*profile.Collection, error) {
	switch {
	case generate:
		return datagen.Generate(datagen.AbtBuy()).Collection, nil
	case dirty != "":
		ps, err := loader.ReadProfilesCSVFile(dirty, idCol)
		if err != nil {
			return nil, err
		}
		return profile.NewDirty(ps), nil
	case fileA != "" && fileB != "":
		a, err := loader.ReadProfilesCSVFile(fileA, idCol)
		if err != nil {
			return nil, err
		}
		b, err := loader.ReadProfilesCSVFile(fileB, idCol)
		if err != nil {
			return nil, err
		}
		return profile.NewCleanClean(a, b), nil
	case fileA == "" && fileB == "":
		return profile.NewCleanClean(nil, nil), nil
	}
	return nil, fmt.Errorf("need both -a and -b (or -dirty, or -generate)")
}
