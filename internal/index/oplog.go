package index

// The op log: every applied write is assigned a monotonically increasing
// sequence number and, when the log is enabled, encoded as one
// length-prefixed, CRC-framed record. The same frame bytes serve two
// consumers:
//
//   - GET /v1/deltas streams them from the in-memory window to network
//     followers, which replay them with ApplyOps — the replication
//     transport of the serving tier;
//   - the WAL appends them to on-disk segments before the write mutates
//     anything and replays them at boot (wal.go) — the only on-disk
//     delta store.
//
// Frame wire/file format (identical everywhere):
//
//	uint32 LE payload length | payload | uint32 LE CRC-32 (IEEE) of payload
//
// Payload:
//
//	uvarint sequence number
//	varint  leader wall-clock timestamp (unix nanos; replication lag only,
//	        never index state)
//	byte    op type (1 = upsert; others reserved)
//	uvarint assigned internal profile ID
//	byte    source ID
//	string  original ID          (uvarint length + bytes)
//	uvarint attribute count, then per attribute: string key, string value
//
// A profile's tokens, which are its blocking keys, are a pure function of
// (profile, config) and are re-derived on apply, so frames stay small and
// a replayed index is structurally identical to the directly written one.
//
// Replay is deterministic: the frame carries the ID the leader assigned,
// and apply verifies the replica would assign the same one (same base
// state + same op order ⇒ same lookup results), so divergence surfaces
// as an error instead of silently drifting posting lists.
//
// The in-memory log retains a bounded window (OpLogConfig.MaxOps /
// MaxBytes). A follower that falls behind the window gets ErrOpLogGap
// and must bootstrap a fresh snapshot.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"time"

	"sparker/internal/profile"
)

const (
	// opUpsert inserts or replaces one profile; the only op type the
	// write path emits today (a replace subsumes its internal delete).
	// The type byte exists so future ops extend the format instead of
	// breaking it: unknown types fail apply.
	opUpsert byte = 1

	// maxOpPayload bounds one frame's payload, mirroring the snapshot
	// string bound: a frame that encodes must decode.
	maxOpPayload = 1 << 30

	// opFrameOverhead is the fixed per-frame framing cost (length + CRC).
	opFrameOverhead = 8
)

var (
	// ErrOpLogDisabled is returned by op-log surfaces on an index built
	// without Config.OpLog.Enabled.
	ErrOpLogDisabled = errors.New("index: op log disabled (enable Config.OpLog)")
	// ErrOpLogGap marks a request for ops older than the retained window
	// (or ahead of the log entirely): the caller must resynchronise from
	// a full snapshot instead of streaming deltas.
	ErrOpLogGap = errors.New("index: requested ops fall outside the retained op-log window")
)

// OpLogConfig enables and bounds the in-memory op log. The zero value
// disables it: upserts then cost nothing extra.
type OpLogConfig struct {
	// Enabled turns the op log on.
	Enabled bool
	// MaxOps bounds retained ops (default 65536). Older ops are evicted;
	// consumers behind the window resynchronise from a full snapshot.
	MaxOps int
	// MaxBytes bounds retained frame bytes (default 64 MiB).
	MaxBytes int64
}

// withDefaults resolves zero bounds to their documented defaults.
func (c OpLogConfig) withDefaults() OpLogConfig {
	if !c.Enabled {
		return OpLogConfig{}
	}
	if c.MaxOps <= 0 {
		c.MaxOps = 1 << 16
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	return c
}

// OpLogStats summarises the op log for Snapshot.
type OpLogStats struct {
	// Ops and Bytes describe the currently retained window.
	Ops   int   `json:"ops"`
	Bytes int64 `json:"bytes"`
	// FloorSeq is the oldest retained sequence number (0 when empty).
	FloorSeq int64 `json:"floor_seq"`
	// Appended counts ops ever appended to the log.
	Appended int64 `json:"appended"`
	// MaxOps and MaxBytes are the configured retention bounds.
	MaxOps   int   `json:"max_ops"`
	MaxBytes int64 `json:"max_bytes"`
}

// opRec is one retained op: its sequence number, the leader timestamp,
// and the complete frame bytes as written to disk and the wire.
type opRec struct {
	seq    int64
	tstamp int64
	frame  []byte
}

// opLog is the bounded in-memory op window plus its change broadcast.
type opLog struct {
	cfg OpLogConfig

	mu       sync.RWMutex
	recs     []opRec
	bytes    int64
	appended int64
	// notify is closed (and replaced) on every append: long-poll waiters
	// grab the current channel, re-check the log, then block on it.
	notify chan struct{}
}

func newOpLog(cfg OpLogConfig) *opLog {
	return &opLog{cfg: cfg, notify: make(chan struct{})}
}

// append retains one op and wakes long-poll waiters. Records must arrive
// in sequence order (the caller holds the index writer lock).
func (l *opLog) append(rec opRec) {
	l.mu.Lock()
	l.recs = append(l.recs, rec)
	l.bytes += int64(len(rec.frame))
	l.appended++
	// Evict from the front past the retention bounds; the newest op is
	// always retained even when it alone exceeds MaxBytes.
	drop := 0
	for len(l.recs)-drop > 1 &&
		(len(l.recs)-drop > l.cfg.MaxOps || l.bytes > l.cfg.MaxBytes) {
		l.bytes -= int64(len(l.recs[drop].frame))
		drop++
	}
	if drop > 0 {
		l.recs = append(l.recs[:0], l.recs[drop:]...)
	}
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
}

// stats snapshots the retention window.
func (l *opLog) stats() OpLogStats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s := OpLogStats{
		Ops:      len(l.recs),
		Bytes:    l.bytes,
		Appended: l.appended,
		MaxOps:   l.cfg.MaxOps,
		MaxBytes: l.cfg.MaxBytes,
	}
	if len(l.recs) > 0 {
		s.FloorSeq = l.recs[0].seq
	}
	return s
}

// framesAfter copies the concatenated frames of ops with sequence in
// (since, …], bounded by maxBytes (at least one frame is returned when
// any is pending). gap reports that ops after since existed but were
// evicted — or that since runs ahead of the log — so the caller must
// resynchronise.
func (l *opLog) framesAfter(since int64, maxBytes int) (frames []byte, gap bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.recs) == 0 {
		// Nothing retained: with appended ops evicted, anything before
		// the current head is unservable. The caller distinguishes
		// "caught up" (since == current seq) before calling.
		return nil, false
	}
	floor, head := l.recs[0].seq, l.recs[len(l.recs)-1].seq
	if since >= head {
		return nil, since > head // ahead of the log: stale leader state
	}
	if since+1 < floor {
		return nil, true // behind the retained window
	}
	for _, rec := range l.recs[since+1-floor:] {
		if len(frames) > 0 && len(frames)+len(rec.frame) > maxBytes {
			break
		}
		frames = append(frames, rec.frame...)
	}
	return frames, false
}

// OpLogEnabled reports whether the index maintains an op log (and can
// therefore serve deltas and attach a WAL).
func (x *Index) OpLogEnabled() bool { return x.oplog != nil }

// Seq returns the sequence number of the last applied write. It is 0 on
// a fresh index and restored from snapshots, so a restarted leader
// keeps handing out sequence numbers its followers can track.
func (x *Index) Seq() int64 { return x.seq.Load() }

// OpNotify returns a channel closed at the next op append — the
// long-poll primitive: fetch the channel, re-check OpsSince, then block
// on the channel. Nil when the op log is disabled.
func (x *Index) OpNotify() <-chan struct{} {
	if x.oplog == nil {
		return nil
	}
	x.oplog.mu.RLock()
	ch := x.oplog.notify
	x.oplog.mu.RUnlock()
	return ch
}

// OpsSince copies the encoded frames of the ops applied after sequence
// number since, bounded by maxBytes per call (at least one frame when
// any is pending; callers stream the rest with follow-up calls). seq is
// the index's current sequence. ErrOpLogGap means the requested ops are
// no longer retained (or since is ahead of this index): the caller must
// resynchronise from a full snapshot.
func (x *Index) OpsSince(since int64, maxBytes int) (frames []byte, seq int64, err error) {
	if x.oplog == nil {
		return nil, 0, ErrOpLogDisabled
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	cur := x.seq.Load()
	if since == cur {
		return nil, cur, nil
	}
	if since > cur {
		return nil, cur, fmt.Errorf("%w: since %d ahead of seq %d", ErrOpLogGap, since, cur)
	}
	frames, gap := x.oplog.framesAfter(since, maxBytes)
	if gap || frames == nil {
		// Either explicitly behind the window, or the pending ops were
		// all evicted (framesAfter saw an empty/advanced log).
		return nil, cur, fmt.Errorf("%w: since %d, seq %d", ErrOpLogGap, since, cur)
	}
	return frames, cur, nil
}

// frameOf rebuilds the complete on-disk/wire frame of one validated
// payload (length prefix, payload, CRC).
func frameOf(payload []byte) []byte {
	frame := make([]byte, 0, opFrameOverhead+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
}

// newestSeq returns the newest retained sequence (ok=false when empty).
func (l *opLog) newestSeq() (int64, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.recs) == 0 {
		return 0, false
	}
	return l.recs[len(l.recs)-1].seq, true
}

// appendOpString appends a uvarint length-prefixed string.
func appendOpString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// checkOpBounds mirrors the snapshot encode bounds for one profile so an
// op that is accepted always frames, persists and decodes. Checked
// before the write mutates anything.
func checkOpBounds(p *profile.Profile) error {
	if len(p.Attributes) > maxSnapshotItems {
		return fmt.Errorf("index: profile %s exceeds op attribute limit", p.OriginalID)
	}
	if len(p.OriginalID) > maxSnapshotString {
		return fmt.Errorf("index: profile original ID exceeds op string limit")
	}
	for _, kv := range p.Attributes {
		if len(kv.Key) > maxSnapshotString || len(kv.Value) > maxSnapshotString {
			return fmt.Errorf("index: profile %s exceeds op string limit", p.OriginalID)
		}
	}
	return nil
}

// encodeOpFrame encodes one complete upsert frame (length prefix,
// payload, CRC) for the given already-normalized, ID-assigned profile.
func encodeOpFrame(seq, tstamp int64, p *profile.Profile) []byte {
	payload := make([]byte, 0, 64+16*len(p.Attributes))
	payload = binary.AppendUvarint(payload, uint64(seq))
	payload = binary.AppendVarint(payload, tstamp)
	payload = append(payload, opUpsert)
	payload = binary.AppendUvarint(payload, uint64(p.ID))
	payload = append(payload, byte(p.SourceID))
	payload = appendOpString(payload, p.OriginalID)
	payload = binary.AppendUvarint(payload, uint64(len(p.Attributes)))
	for _, kv := range p.Attributes {
		payload = appendOpString(payload, kv.Key)
		payload = appendOpString(payload, kv.Value)
	}
	return frameOf(payload)
}

// readOpFrame reads one frame from r and returns its validated payload.
// A clean end of input returns io.EOF; a torn or corrupt frame (short
// length, short payload, CRC mismatch, absurd length) returns a non-EOF
// error — recovery paths drop the tail there, network paths surface it.
func readOpFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("op frame length: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxOpPayload {
		return nil, fmt.Errorf("op frame payload of %d bytes out of range", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("op frame payload: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("op frame checksum: %w", err)
	}
	if got, want := binary.LittleEndian.Uint32(crc[:]), crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("op frame checksum mismatch: frame %08x, computed %08x", got, want)
	}
	return payload, nil
}

// op is one decoded op-log record.
type op struct {
	seq    int64
	tstamp int64
	typ    byte
	p      profile.Profile
}

// opCursor walks an op payload with sticky errors.
type opCursor struct {
	b   []byte
	err error
}

func (c *opCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.err = errors.New("bad uvarint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *opCursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.err = errors.New("bad varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *opCursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if len(c.b) == 0 {
		c.err = io.ErrUnexpectedEOF
		return 0
	}
	b := c.b[0]
	c.b = c.b[1:]
	return b
}

func (c *opCursor) string() string {
	n := c.uvarint()
	if c.err == nil && n > maxSnapshotString {
		c.err = fmt.Errorf("string of %d bytes exceeds limit", n)
	}
	if c.err != nil {
		return ""
	}
	if uint64(len(c.b)) < n {
		c.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s
}

// capped bounds up-front slice capacity for decoded counts: growth past
// it is paid for by input actually read, so a lying header cannot force
// a large allocation.
func capped(n uint64) int {
	if n > 4096 {
		return 4096
	}
	return int(n)
}

// decodeOpPayload parses and validates one frame payload against the
// index's task semantics (clean-clean source discipline, ID range).
func decodeOpPayload(payload []byte, clean bool) (op, error) {
	c := opCursor{b: payload}
	var o op
	o.seq = int64(c.uvarint())
	o.tstamp = c.varint()
	o.typ = c.byte()
	if c.err == nil && o.typ != opUpsert {
		return o, fmt.Errorf("unknown op type %d", o.typ)
	}
	id := c.uvarint()
	if c.err == nil && id > math.MaxInt32 {
		return o, fmt.Errorf("op profile ID %d out of range", id)
	}
	src := c.byte()
	if c.err == nil && (src > 1 || (!clean && src != 0)) {
		return o, fmt.Errorf("op source %d invalid for this task", src)
	}
	o.p = profile.Profile{ID: profile.ID(id), OriginalID: c.string(), SourceID: int(src)}
	nAttrs := c.uvarint()
	if c.err == nil && nAttrs > maxSnapshotItems {
		return o, fmt.Errorf("op attribute count %d out of range", nAttrs)
	}
	if c.err == nil && nAttrs > 0 {
		o.p.Attributes = make([]profile.KeyValue, 0, capped(nAttrs))
		for i := uint64(0); i < nAttrs && c.err == nil; i++ {
			k := c.string()
			v := c.string()
			o.p.Attributes = append(o.p.Attributes, profile.KeyValue{Key: k, Value: v})
		}
	}
	if c.err != nil {
		return o, fmt.Errorf("op payload: %w", c.err)
	}
	if len(c.b) != 0 {
		return o, fmt.Errorf("op payload: %d trailing bytes", len(c.b))
	}
	return o, nil
}

// commitLocked is the one write path. It lands an upsert whose identity
// is resolved (p.ID final; replacing: that ID is being overwritten) in
// write-ahead order: the frame reaches the durable log before anything
// in memory changes, so a failed append leaves the index untouched and a
// crash after it replays the op at the next boot. rec.frame is nil
// without an op log. Caller holds writeMu.
func (x *Index) commitLocked(p profile.Profile, replacing bool, rec opRec) error {
	if x.wal != nil {
		if err := x.wal.append(rec.seq, rec.frame); err != nil {
			return err
		}
	}
	if replacing {
		x.unlinkLocked(p.ID)
	}
	x.putLocked(p)
	if p.ID >= x.nextID {
		x.nextID = p.ID + 1
	}
	x.upserts.Add(1)
	x.seq.Store(rec.seq)
	if x.oplog != nil {
		x.oplog.append(rec)
	}
	return nil
}

// applyOpLocked replays one decoded op — a follower's delta, or a WAL
// frame at boot (recovery runs with x.wal unset, so frames read back
// from disk are not re-appended) — once the replica is seen to make the
// leader's decisions (next sequence, same ID). Retaining the frame lets
// a replica chain its own followers and a restarted leader keep serving
// the tail it reloaded. The caller holds writeMu. The read-only guard
// does not apply: replication is how a read-only replica advances.
func (x *Index) applyOpLocked(o op, payload []byte) error {
	if want := x.seq.Load() + 1; o.seq != want {
		return fmt.Errorf("op seq %d does not follow %d", o.seq, want-1)
	}
	oldID, replacing := x.lookupOrig(identityOf(&o.p))
	if replacing {
		if oldID != o.p.ID {
			return fmt.Errorf("op replaces profile %d, replica holds it as %d", o.p.ID, oldID)
		}
	} else if o.p.ID != x.nextID {
		return fmt.Errorf("op assigns ID %d, replica would assign %d", o.p.ID, x.nextID)
	}
	rec := opRec{seq: o.seq, tstamp: o.tstamp}
	if x.oplog != nil {
		rec.frame = frameOf(payload)
	}
	return x.commitLocked(o.p, replacing, rec)
}

// ApplyOps replays a stream of op frames — the follower half of
// replication: the bytes a leader's GET /v1/deltas returns, applied in
// order. It works on a read-only replica; that
// guard rejects out-of-band writes, not replication. Frames are applied
// one at a time under the writer lock, so queries interleave freely.
// Any framing, checksum, or sequence error stops the stream and is
// returned with the count applied so far; a sequence mismatch means the
// follower must resynchronise from a full snapshot (see ErrOpLogGap on
// the serving side). lastStamp is the leader timestamp of the final
// applied op, the replication-lag input.
func (x *Index) ApplyOps(r io.Reader) (applied int, lastStamp int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		payload, err := readOpFrame(br)
		if err == io.EOF {
			return applied, lastStamp, nil
		}
		if err != nil {
			return applied, lastStamp, fmt.Errorf("index: apply ops: %w", err)
		}
		o, err := decodeOpPayload(payload, x.clean)
		if err != nil {
			return applied, lastStamp, fmt.Errorf("index: apply ops: %w", err)
		}
		x.writeMu.Lock()
		err = x.applyOpLocked(o, payload)
		x.writeMu.Unlock()
		if err != nil {
			return applied, lastStamp, fmt.Errorf("index: apply ops: %w", err)
		}
		applied++
		lastStamp = o.tstamp
	}
}

// nextOpRec numbers — and, with the op log on, frames — the upsert the
// caller is about to commit: caller holds writeMu and has assigned p.ID
// but not yet mutated anything, so a bounds rejection here keeps out a
// profile that could never leave through a save or a replica.
func (x *Index) nextOpRec(p *profile.Profile) (opRec, error) {
	rec := opRec{seq: x.seq.Load() + 1}
	if x.oplog == nil {
		return rec, nil
	}
	if err := checkOpBounds(p); err != nil {
		return opRec{}, err
	}
	rec.tstamp = time.Now().UnixNano()
	rec.frame = encodeOpFrame(rec.seq, rec.tstamp, p)
	return rec, nil
}
