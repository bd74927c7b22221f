package index

// The durable op log (WAL): the same CRC-framed op records the in-memory
// window retains (oplog.go) appended to rotating on-disk segment files
// *before* the in-memory index is mutated, so an acknowledged write
// survives a crash. Layout:
//
//	<dir>/00000001.seg    frames for seq 1..n
//	<dir>/000000NN.seg    frames for seq NN.. (named by first seq held)
//
// Segment files are append-only; a new segment starts when the active one
// passes WALConfig.SegmentBytes. Durability is a policy choice: fsync on
// every append (WALSyncAlways), on a background interval (WALSyncInterval,
// the default — bounded loss of the last interval's ops on power cut), or
// never (the OS decides; a process kill still loses nothing because the
// kernel holds the written pages).
//
// Recovery (Index.OpenWAL) runs after the snapshot restore: segments
// fully covered by the snapshot's sequence are skipped, the remainder is
// replayed through the same strict apply path replication uses
// (applyOpLocked), and the replayed frames repopulate the in-memory op
// window — so OpsSince keeps serving followers across a restart instead
// of forcing a 410 re-bootstrap. A torn or bit-flipped tail truncates at
// the last good frame (the crash contract of an append-only file);
// segments after the damage cannot be replayed (the sequence would gap)
// and are dropped, with both reported in WALRecovery.
//
// A failed write or fsync is sticky: the segment may end in torn bytes
// (recovery would drop everything behind them) or hold pages the kernel
// gave up on, so every later append fails until the log is reopened and
// recovery has re-established a clean tail.
//
// Retention: prune(seq) — called after every successful Save — deletes
// sealed segments whose every frame is at or below the seq the snapshot
// now covers, so snapshot + remaining WAL always reconstructs the full
// state. The active segment is never pruned.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sparker/internal/obs"
)

// WALSyncPolicy selects when segment appends are fsynced.
type WALSyncPolicy int

const (
	// WALSyncInterval fsyncs dirty segments on a background timer
	// (WALConfig.SyncInterval). The default: group-commit durability —
	// a power cut loses at most the last interval's ops, a plain process
	// kill loses nothing.
	WALSyncInterval WALSyncPolicy = iota
	// WALSyncAlways fsyncs after every append: no acknowledged write is
	// ever lost, at the cost of one fsync per upsert.
	WALSyncAlways
	// WALSyncNever leaves flushing to the OS page cache entirely.
	WALSyncNever
)

// String names the policy for flags, stats and logs.
func (p WALSyncPolicy) String() string {
	switch p {
	case WALSyncAlways:
		return "always"
	case WALSyncInterval:
		return "interval"
	case WALSyncNever:
		return "never"
	}
	return "unknown"
}

// ParseWALSyncPolicy parses the flag spelling of a sync policy.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return WALSyncAlways, nil
	case "interval", "":
		return WALSyncInterval, nil
	case "never":
		return WALSyncNever, nil
	}
	return 0, fmt.Errorf("index: unknown WAL sync policy %q (want always, interval or never)", s)
}

// WALConfig configures the durable op log opened by Index.OpenWAL.
type WALConfig struct {
	// Dir is the segment directory (created if absent). Required.
	Dir string
	// Sync selects the fsync policy (default WALSyncInterval).
	Sync WALSyncPolicy
	// SyncInterval is the background fsync period of WALSyncInterval
	// (default 100ms).
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it passes this size
	// (default 16 MiB).
	SegmentBytes int64
}

// withDefaults resolves zero fields to their documented defaults.
func (c WALConfig) withDefaults() WALConfig {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 100 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 16 << 20
	}
	return c
}

// WALRecovery reports what Index.OpenWAL found and replayed.
type WALRecovery struct {
	// Segments is the number of segment files found on disk.
	Segments int `json:"segments"`
	// SkippedSegments were fully covered by the snapshot and not read.
	SkippedSegments int `json:"skipped_segments"`
	// Replayed counts frames applied to the index.
	Replayed int64 `json:"replayed"`
	// SkippedOps counts frames read but already covered by the snapshot.
	SkippedOps int64 `json:"skipped_ops"`
	// TruncatedBytes counts bytes cut from a torn or corrupt tail.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// DroppedSegments counts segments removed because they followed the
	// damage (their frames could no longer be applied in sequence).
	DroppedSegments int `json:"dropped_segments"`
}

// WALStats summarises the durable op log for Snapshot.
type WALStats struct {
	// Dir is the segment directory; Policy the fsync policy in force.
	Dir    string `json:"dir"`
	Policy string `json:"policy"`
	// Segments and Bytes describe the on-disk footprint (active included).
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// FirstSeq is the oldest sequence retained on disk; LastSeq the
	// newest (0 when the log is empty).
	FirstSeq int64 `json:"first_seq"`
	LastSeq  int64 `json:"last_seq"`
	// Appended, Syncs and Rotations count operations since open.
	Appended  int64 `json:"appended"`
	Syncs     int64 `json:"syncs"`
	Rotations int64 `json:"rotations"`
	// PrunedSegments counts sealed segments deleted by retention.
	PrunedSegments int64 `json:"pruned_segments"`
	// SegmentBytes is the configured rotation threshold.
	SegmentBytes int64 `json:"segment_bytes"`
}

// walSegment is one sealed (no longer written) segment file.
type walSegment struct {
	firstSeq int64
	path     string
	size     int64
}

// wal is the durable op log attached to an index. Appends arrive under
// the index writer lock; mu additionally covers the background flusher,
// retention pruning, and stats reads (leaf lock: nothing is acquired
// under it).
type wal struct {
	dir     string
	cfg     WALConfig
	metrics *Metrics

	mu     sync.Mutex
	sealed []walSegment // ascending by firstSeq
	f      *os.File     // active segment (nil until the first append)
	path   string
	first  int64 // first seq held (or named) by the active segment
	size   int64
	last   int64 // newest seq on disk (0 when empty)
	dirty  bool  // bytes written since the last fsync
	closed bool
	failed error // sticky first write/fsync error: every append returns it

	appended  int64
	syncs     int64
	rotations int64
	pruned    int64

	stop chan struct{}
	done chan struct{}
}

// walSegmentPath names a segment by the first sequence number it holds.
// Parsing is numeric, so the zero padding is cosmetic (stable listings).
func walSegmentPath(dir string, firstSeq int64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.seg", firstSeq))
}

// listWALSegments scans dir for segment files, ascending by first seq.
// Non-segment files are ignored; a .seg file whose name does not parse is
// an error (it is unrecoverable state, not clutter).
func listWALSegments(dir string) ([]walSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		seq, err := strconv.ParseInt(strings.TrimSuffix(name, ".seg"), 10, 64)
		if err != nil || seq <= 0 {
			return nil, fmt.Errorf("index: wal: segment name %q does not parse as a sequence number", name)
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("index: wal: stat %s: %w", name, err)
		}
		segs = append(segs, walSegment{firstSeq: seq, path: filepath.Join(dir, name), size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// append durably records one framed op. Called under the index writer
// lock before the in-memory structures are touched: an error here aborts
// the upsert with the index unchanged (the write-ahead property).
func (w *wal) append(seq int64, frame []byte) error {
	var start int64
	if w.metrics != nil {
		start = obs.Now()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("index: wal closed")
	}
	if w.failed != nil {
		return w.failed
	}
	// Rotate once the active segment passes the threshold — or when a
	// recovered-but-empty segment's name would not match the first frame
	// written into it (possible only after operator surgery; a fresh,
	// correctly named segment keeps the name ⇒ first-seq invariant).
	if w.f != nil && (w.size >= w.cfg.SegmentBytes || (w.size == 0 && w.first != seq)) {
		if err := w.sealActiveLocked(); err != nil {
			return err
		}
	}
	if w.f == nil {
		path := walSegmentPath(w.dir, seq)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("index: wal: %w", err)
		}
		w.f, w.path, w.first, w.size = f, path, seq, 0
		// Make the new directory entry durable so a crash cannot forget
		// a segment whose frames it remembers. Best effort, as for
		// snapshot renames.
		if dir, err := os.Open(w.dir); err == nil {
			_ = dir.Sync()
			dir.Close()
		}
	}
	n, err := w.f.Write(frame)
	w.size += int64(n)
	if err != nil {
		// A short write leaves a torn tail that recovery truncates; the
		// failed op was never applied, so disk and index still agree —
		// as long as nothing is appended behind the tear.
		w.failed = fmt.Errorf("index: wal append: %w", err)
		return w.failed
	}
	w.dirty = true
	w.last = seq
	w.appended++
	if w.cfg.Sync == WALSyncAlways {
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	if w.metrics != nil {
		w.metrics.WALAppend.Observe(obs.Now() - start)
	}
	return nil
}

// syncLocked fsyncs the active segment — the one fsync every policy,
// rotation and close go through. A failure is sticky. Caller holds mu
// and has checked w.f.
func (w *wal) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		w.failed = fmt.Errorf("index: wal sync: %w", err)
		return w.failed
	}
	w.syncs++
	w.dirty = false
	return nil
}

// sealActiveLocked syncs, closes and shelves the active segment. Caller
// holds mu.
func (w *wal) sealActiveLocked() error {
	if w.f == nil {
		return nil
	}
	if w.cfg.Sync != WALSyncNever {
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("index: wal seal: %w", err)
	}
	w.sealed = append(w.sealed, walSegment{firstSeq: w.first, path: w.path, size: w.size})
	w.f, w.path, w.first, w.size = nil, "", 0, 0
	w.rotations++
	return nil
}

// prune deletes sealed segments every frame of which is covered by a
// snapshot at keepSeq: a segment is removable when the next segment
// starts at or below keepSeq+1 (its own frames are all older). The
// active segment is never deleted. Deletion failures are left for the
// next prune — retention is an optimisation, not a correctness hook.
func (w *wal) prune(keepSeq int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.sealed) > 0 {
		var nextFirst int64
		if len(w.sealed) > 1 {
			nextFirst = w.sealed[1].firstSeq
		} else if w.f != nil {
			nextFirst = w.first
		} else {
			return
		}
		if nextFirst > keepSeq+1 {
			return
		}
		if err := os.Remove(w.sealed[0].path); err != nil && !os.IsNotExist(err) {
			return
		}
		w.sealed = w.sealed[1:]
		w.pruned++
	}
}

// flushLoop is the WALSyncInterval background fsync.
func (w *wal) flushLoop() {
	defer close(w.done)
	t := time.NewTicker(w.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed && w.failed == nil && w.dirty && w.f != nil {
				_ = w.syncLocked() // sticky: the next append reports it
			}
			w.mu.Unlock()
		}
	}
}

// close stops the flusher and syncs + closes the active segment: a clean
// shutdown is durable under every policy.
func (w *wal) close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
		w.stop = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	// Sync even after a failure (frames acknowledged before it may be
	// unflushed) and report it: the flusher's has no other way out.
	err := w.failed
	if serr := w.syncLocked(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("index: wal close: %w", cerr)
	}
	w.f = nil
	return err
}

// stats snapshots the WAL for Snapshot.
func (w *wal) stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := WALStats{
		Dir:            w.dir,
		Policy:         w.cfg.Sync.String(),
		LastSeq:        w.last,
		Appended:       w.appended,
		Syncs:          w.syncs,
		Rotations:      w.rotations,
		PrunedSegments: w.pruned,
		SegmentBytes:   w.cfg.SegmentBytes,
	}
	for _, seg := range w.sealed {
		s.Segments++
		s.Bytes += seg.size
	}
	if w.f != nil {
		s.Segments++
		s.Bytes += w.size
	}
	if len(w.sealed) > 0 {
		s.FirstSeq = w.sealed[0].firstSeq
	} else if w.f != nil && w.size > 0 {
		s.FirstSeq = w.first
	}
	return s
}

// OpenWAL attaches a durable op log to the index, first recovering
// whatever the directory already holds: segments fully covered by the
// index's current sequence (the restored snapshot) are skipped, the rest
// is replayed through the same strict apply path replication uses, and a
// torn or corrupt tail is truncated at the last good frame (segments
// past the damage are dropped — their frames could no longer apply in
// sequence). Replayed frames repopulate the in-memory op window, so
// OpsSince serves followers across the restart.
//
// Call it once, after any snapshot restore and before serving writes; it
// requires the op log (Config.OpLog.Enabled). A sequence gap between the
// snapshot and the oldest retained frame — or a frame that contradicts
// the restored state — is a hard error: the pairing of snapshot and WAL
// is wrong and replaying further would corrupt the index. Close the log
// with CloseWAL on shutdown.
func (x *Index) OpenWAL(cfg WALConfig) (WALRecovery, error) {
	var rec WALRecovery
	if x.oplog == nil {
		return rec, fmt.Errorf("index: open wal: %w", ErrOpLogDisabled)
	}
	if cfg.Dir == "" {
		return rec, errors.New("index: open wal: Dir is required")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return rec, fmt.Errorf("index: open wal: %w", err)
	}
	segs, err := listWALSegments(cfg.Dir)
	if err != nil {
		return rec, fmt.Errorf("index: open wal: %w", err)
	}

	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	if x.wal != nil {
		return rec, errors.New("index: wal already open")
	}
	rec.Segments = len(segs)

	// Replay. x.wal stays nil until the scan finishes so applyOpLocked
	// does not write the frames straight back into the log.
	live := segs[:0]
	damaged := false
	for i, seg := range segs {
		if damaged {
			// Frames after a truncated tail cannot apply (the sequence
			// would gap); remove them so the on-disk log stays replayable.
			os.Remove(seg.path)
			rec.DroppedSegments++
			continue
		}
		if i+1 < len(segs) && segs[i+1].firstSeq <= x.seq.Load()+1 {
			// Every frame here is older than the next segment's first,
			// hence already in the snapshot. Keep the file: prune owns
			// deletion, recovery only reads.
			rec.SkippedSegments++
			live = append(live, seg)
			continue
		}
		goodEnd, err := x.replayWALSegment(seg, &rec)
		if err != nil {
			return rec, err
		}
		if goodEnd < seg.size {
			if err := os.Truncate(seg.path, goodEnd); err != nil {
				return rec, fmt.Errorf("index: open wal: truncate %s: %w", seg.path, err)
			}
			rec.TruncatedBytes += seg.size - goodEnd
			seg.size = goodEnd
			damaged = true
		}
		live = append(live, seg)
	}

	w := &wal{dir: cfg.Dir, cfg: cfg, metrics: x.metrics}
	if n := len(live); n > 0 {
		// The last surviving segment stays active: restarts continue it
		// instead of littering the directory with one segment per boot.
		last := live[n-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return rec, fmt.Errorf("index: open wal: %w", err)
		}
		w.sealed = append(w.sealed, live[:n-1]...)
		w.f, w.path, w.first, w.size = f, last.path, last.firstSeq, last.size
		w.last = x.seq.Load()
	}
	if cfg.Sync == WALSyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flushLoop()
	}
	x.wal = w
	return rec, nil
}

// replayWALSegment applies one segment's frames past the index's current
// sequence and returns the offset of the last cleanly framed byte. A
// framing/CRC/decode failure ends the scan there (the caller truncates);
// a sequence gap or a frame the restored state contradicts is a hard
// error. Caller holds writeMu.
func (x *Index) replayWALSegment(seg walSegment, rec *WALRecovery) (goodEnd int64, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, fmt.Errorf("index: open wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	for {
		payload, err := readOpFrame(br)
		if err == io.EOF {
			return goodEnd, nil
		}
		if err != nil {
			return goodEnd, nil // torn tail: caller truncates here
		}
		o, err := decodeOpPayload(payload, x.clean)
		if err != nil {
			return goodEnd, nil // CRC-valid garbage: same contract
		}
		cur := x.seq.Load()
		switch {
		case o.seq <= cur:
			rec.SkippedOps++
			// Already in the restored state, but not necessarily in the
			// in-memory window: re-retain contiguous frames so OpsSince
			// can serve followers that were behind the snapshot when the
			// leader died (the no-resync half of the restart contract).
			if last, ok := x.oplog.newestSeq(); !ok || o.seq == last+1 {
				x.oplog.append(opRec{seq: o.seq, tstamp: o.tstamp, frame: frameOf(payload)})
			}
		case o.seq == cur+1:
			if err := x.applyOpLocked(o, payload); err != nil {
				return goodEnd, fmt.Errorf("index: open wal: %s seq %d: %w", filepath.Base(seg.path), o.seq, err)
			}
			rec.Replayed++
		default:
			return goodEnd, fmt.Errorf("index: open wal: %s jumps to seq %d with index at %d (missing segments? wrong snapshot?)",
				filepath.Base(seg.path), o.seq, cur)
		}
		goodEnd += int64(opFrameOverhead + len(payload))
	}
}

// CloseWAL syncs and closes the durable op log (no-op when none is
// open). The index remains usable; subsequent writes are in-memory only.
func (x *Index) CloseWAL() error {
	x.writeMu.Lock()
	w := x.wal
	x.wal = nil
	x.writeMu.Unlock()
	if w == nil {
		return nil
	}
	return w.close()
}

// WALEnabled reports whether a durable op log is attached.
func (x *Index) WALEnabled() bool {
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	return x.wal != nil
}
