package index

// Durable snapshots: the index serializes to a single versioned,
// length-prefixed binary file and restores to a fully queryable index,
// so sparker-serve restarts (and read-only replicas) skip reading and
// parsing the input files.
//
// File layout (integers are varints, strings are uvarint length + bytes):
//
//	magic   "SPKRIDX1" (8 bytes)
//	uvarint format version (5; any other answers ErrSnapshotVersion)
//	header  clean flag, save timestamp, nextID, queries/upserts
//	        counters, sequence number, profile count
//	records one profile record per profile, in ID order: source,
//	        original ID, attributes (the record an op frame carries
//	        after its ID; see appendRecord)
//	trailer CRC-32 (IEEE) of every preceding byte
//
// The image is the collection and nothing derived from it. Under
// schema-agnostic token blocking every posting and every token list is a
// pure function of the profiles, so the image holds neither: a record's
// ID is its position (IDs are dense, 0..n-1, because the index never
// deletes a profile outright), and Load builds the index from the
// decoded profiles with the constructor core NewFromCollection runs
// (build). The op log already works this way: its frames carry profiles
// only and tokens are re-derived on apply. A restored index therefore
// equals a built one; its postings list their members in ID order where
// the live index had them in write order, which no answer depends on.
// Nothing of the scoring config or the shard count is written: the
// loaded index takes both from its Config.
//
// Nothing follows the trailer. A snapshot is a checkpoint at one sequence
// number; the writes after it live in the WAL segments (wal.go), the only
// on-disk delta store, and bytes past the CRC fail the load.
//
// A version-4 (or older) image answers ErrSnapshotVersion like any other,
// and sparker-serve rebuilds from its input files. With a WAL that
// rebuild replays the log from sequence 1, and a log whose start a save
// has pruned is a sequence gap, a hard error (wal.go): no acknowledged
// write is dropped silently.
//
// Encoding is deterministic (records by ID): save → load → save
// reproduces the exact bytes apart from the save-timestamp varint and the
// CRC that covers it.
//
// How a snapshot is read. Load reads the file whole into one buffer of
// the file's size (Decode reads its stream to the end) and takes one
// immutable string copy of it. A cursor parses the varints in place;
// every decoded string (original IDs, attribute keys and values) is a
// substring of that one copy, the profiles grow as their records are
// read, and the attribute runs are carved out of a slab a few thousand at
// a time, each with its capacity clipped to its length. The CRC is one
// crc32 call over everything before the trailer, checked before the
// build. Every count is checked against the bytes that remain, and
// nothing is sized from a count beyond a few thousand items or twice the
// records read so far, so corrupt input fails with an error rather than
// a panic or an allocation out of proportion to the input actually
// supplied. A restored index keeps the
// snapshot-sized string alive while any restored profile is referenced.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"sparker/internal/obs"
	"sparker/internal/profile"
)

const (
	snapshotMagic = "SPKRIDX1"
	// snapshotVersion is the one format this build writes and reads.
	snapshotVersion = 5

	// maxSnapshotString bounds any single length-prefixed string (an
	// original ID, an attribute key or value) a profile record may carry.
	// Enforced symmetrically: checkRecordBounds refuses longer strings
	// before a write or a save, so a record that encodes always decodes.
	// Decode makes a string a substring of its input, so a corrupt length
	// prefix allocates nothing at all.
	maxSnapshotString = 1 << 30
	// maxSnapshotItems bounds a record's attribute count, also enforced
	// on both sides.
	maxSnapshotItems = 1 << 26
)

var (
	// ErrReadOnly is returned by Upsert on a read-only replica.
	ErrReadOnly = errors.New("index: read-only replica rejects writes")
	// ErrSnapshotVersion marks a snapshot written by an incompatible
	// format version; callers typically fall back to a fresh build.
	ErrSnapshotVersion = errors.New("index: unsupported snapshot version")
	// errSnapshotTrailing marks bytes after a snapshot's CRC trailer.
	errSnapshotTrailing = errors.New("snapshot has trailing data after its checksum (a snapshot ends at its CRC; deltas live in the WAL)")
)

// PersistState describes the index's durable-snapshot state: the most
// recent successful Save, or the file the index was restored from.
type PersistState struct {
	// Restored reports that the index was loaded from a snapshot rather
	// than built from a collection.
	Restored bool `json:"restored"`
	// Path is the snapshot file of the last Save (or Load).
	Path string `json:"path,omitempty"`
	// Bytes is the encoded snapshot size.
	Bytes int64 `json:"bytes,omitempty"`
	// SavedAt is when the snapshot was written (for a restored index,
	// when the restored file was originally saved).
	SavedAt time.Time `json:"saved_at,omitempty"`
	// Seq is the sequence number the file is a checkpoint at: recovery
	// replays the WAL from Seq+1.
	Seq int64 `json:"seq,omitempty"`
}

// PersistState returns the durable-snapshot state, or ok=false when the
// index has never been saved or restored.
func (x *Index) PersistState() (PersistState, bool) {
	x.persistMu.Lock()
	defer x.persistMu.Unlock()
	return x.persist, x.persist != PersistState{}
}

// ReadOnly reports whether the index rejects writes (replica mode).
func (x *Index) ReadOnly() bool { return x.readOnly.Load() }

// Restored reports that the index was built by Load/Decode rather than
// from a collection — the readiness signal for a replica: a read-only
// index that never restored (and never applied a delta) is an empty
// shell a load balancer should not route to.
func (x *Index) Restored() bool { return x.restored }

// SetReadOnly toggles replica mode: a read-only index rejects Upsert
// with ErrReadOnly while queries keep working.
func (x *Index) SetReadOnly(v bool) { x.readOnly.Store(v) }

// Save writes a durable snapshot to path atomically: the encoding goes
// to path+".tmp" and is fsynced (file and directory) before a rename,
// so a crash mid-save never leaves a partial file at path — only a
// stale temp file a later Save overwrites. Saves on one index are
// serialized end to end (sparker-serve aims its interval timer, HTTP
// endpoint and shutdown hook at the same path); the writer lock is held
// only during the encode (no upsert is half applied in the snapshot)
// and queries proceed concurrently throughout.
func (x *Index) Save(path string) (PersistState, error) {
	// A read-only replica consumes snapshots, it never produces them:
	// a stale replica saving to the shared path would clobber the
	// primary's newer snapshot. Enforced here so every caller — not
	// just the HTTP handler and sparker-serve — gets the invariant.
	if x.readOnly.Load() {
		return PersistState{}, fmt.Errorf("index: save: %w", ErrReadOnly)
	}
	var saveStart int64
	if x.metrics != nil {
		saveStart = obs.Now()
	}
	x.saveMu.Lock()
	defer x.saveMu.Unlock()

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return PersistState{}, fmt.Errorf("index: save: %w", err)
	}
	now := time.Now()
	bw := bufio.NewWriterSize(f, 1<<20)

	x.writeMu.Lock()
	n, err := x.encodeLocked(bw, now)
	// The image holds exactly the writes applied so far: capture the
	// sequence and the attached WAL under the same writer-lock hold as
	// the encode.
	seq, w := x.seq.Load(), x.wal
	x.writeMu.Unlock()

	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return PersistState{}, fmt.Errorf("index: save %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return PersistState{}, fmt.Errorf("index: save %s: %w", path, err)
	}
	// The rename is not durable until the directory entry is synced; a
	// power cut could otherwise roll a reported-successful save back to
	// the previous snapshot. Best effort: not every platform/filesystem
	// supports fsync on a directory fd.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	x.imageBytes.Store(n)
	st := PersistState{Restored: x.restored, Path: path, Bytes: n, SavedAt: now, Seq: seq}
	x.persistMu.Lock()
	x.persist = st
	x.persistMu.Unlock()
	// The snapshot now covers everything up to seq; WAL segments whose
	// frames are all at or below it are no longer needed for recovery.
	if w != nil {
		w.prune(seq)
	}
	if m := x.metrics; m != nil {
		m.Save.Observe(obs.Now() - saveStart)
		m.SnapshotBytes.Store(st.Bytes)
	}
	return st, nil
}

// Deprecated: the snapshot delta tail is gone and this is Save. The
// name survives only because the frozen benchmark (bench/probe.go) times
// it; the benchmark PR that retires that traced metric deletes it.
func (x *Index) SaveDelta(path string) (PersistState, error) { return x.Save(path) }

// Image returns a snapshot as bytes, with the sequence number it is a
// checkpoint at. The writer lock is held only while the image is encoded
// into memory, never while anyone consumes it: a reader of the bytes as
// slow as it likes (a stalled follower bootstrap) delays no write.
func (x *Index) Image() (image []byte, seq int64, err error) {
	x.writeMu.Lock()
	// The last image's size is the hint; a little slack absorbs the
	// writes since, so the buffer rarely regrows under the lock.
	hint := x.imageBytes.Load()
	buf := bytes.NewBuffer(make([]byte, 0, hint+hint/16+1024))
	_, err = x.encodeLocked(buf, time.Now())
	seq = x.seq.Load()
	x.writeMu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	x.imageBytes.Store(int64(buf.Len()))
	return buf.Bytes(), seq, nil
}

// Load restores an index from a snapshot file. The tokenizer of cfg must
// match the configuration the snapshot was saved under (it is code, not
// data, and is not serialized; the image holds nothing of the measure),
// and the shard count is cfg.Shards: the image holds no postings. A
// missing file surfaces as fs.ErrNotExist and an incompatible format as
// ErrSnapshotVersion, both via errors.Is.
func Load(path string, cfg Config) (*Index, error) {
	start := obs.Now()
	buf, err := os.ReadFile(path) // one read into one buffer of the file's size
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	x, err := decode(buf, cfg)
	if err != nil {
		return nil, fmt.Errorf("index: load %s: %w", path, err)
	}
	x.persistMu.Lock()
	x.persist.Path = path
	x.persistMu.Unlock()
	if m := x.metrics; m != nil {
		m.Load.Observe(obs.Now() - start)
		m.SnapshotBytes.Store(x.persist.Bytes)
	}
	return x, nil
}

// Decode restores an index from a snapshot stream, which it reads to its
// end before decoding. See Load.
func Decode(r io.Reader, cfg Config) (*Index, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return decode(buf, cfg)
}

// decode checks a whole snapshot image — header, records, CRC — and
// builds the index from its profiles (see the file header).
func decode(buf []byte, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cursor{b: buf, s: string(buf)}
	if c.rest() < len(snapshotMagic) {
		return nil, fmt.Errorf("snapshot magic: %w", io.ErrUnexpectedEOF)
	}
	if magic := c.s[:len(snapshotMagic)]; magic != snapshotMagic {
		return nil, fmt.Errorf("not an index snapshot (bad magic %q)", magic)
	}
	c.off = len(snapshotMagic)
	version, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("snapshot version: %w", err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d",
			ErrSnapshotVersion, version, snapshotVersion)
	}

	cleanByte, err := c.byte()
	if err != nil || cleanByte > 1 {
		return nil, fmt.Errorf("snapshot clean flag: %w", orBad(err, cleanByte))
	}
	clean := cleanByte == 1
	savedAtNanos, err := c.varint()
	if err != nil {
		return nil, fmt.Errorf("snapshot timestamp: %w", err)
	}
	nextID, err := c.uvarint()
	if err != nil || nextID > math.MaxInt32 {
		return nil, fmt.Errorf("snapshot nextID %d: %w", nextID, orBad(err, 0))
	}
	queries, err := c.uvarint()
	if err != nil || queries > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot query counter: %w", orBad(err, 0))
	}
	upserts, err := c.uvarint()
	if err != nil || upserts > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot upsert counter: %w", orBad(err, 0))
	}
	seq, err := c.uvarint()
	if err != nil || seq > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot sequence number: %w", orBad(err, 0))
	}
	numProfiles, err := c.count(minRecordBytes)
	// The index never deletes a profile outright (removals only happen
	// inside a replace), so every assigned ID is live: the ID bound must
	// equal the profile count exactly. This also caps the dense query
	// scratch (sized to nextID) by the profiles actually present — a
	// tiny snapshot cannot claim a huge ID space and OOM the first Query.
	if err != nil || numProfiles != nextID {
		return nil, fmt.Errorf("snapshot profile count %d does not match ID bound %d: %w",
			numProfiles, nextID, orBad(err, 0))
	}

	// The records, in ID order: a record's ID is its position. The
	// profiles double as records are read, up to the count, so a count
	// that merely fits the bytes sizes nothing past twice the records
	// actually supplied.
	n := int(numProfiles)
	ps := make([]profile.Profile, 0, min(n, slabChunk))
	var attrs slab[profile.KeyValue]
	for i := range n {
		if i == cap(ps) {
			ps = slices.Grow(ps, min(i, n-i))
		}
		ps = append(ps, profile.Profile{})
		if err := c.record(&ps[i], clean, &attrs); err != nil {
			return nil, fmt.Errorf("snapshot profile %d/%d: %w", i, numProfiles, err)
		}
		ps[i].ID = profile.ID(i)
	}

	// Trailer: CRC of everything before it, in one pass.
	end := c.off
	if c.rest() < 4 {
		return nil, fmt.Errorf("snapshot checksum: %w", io.ErrUnexpectedEOF)
	}
	sum := crc32.ChecksumIEEE(buf[:end])
	if got := binary.LittleEndian.Uint32(buf[end:]); got != sum {
		return nil, fmt.Errorf("snapshot checksum mismatch: file %08x, computed %08x", got, sum)
	}
	// Nothing may follow the trailer. Stray bytes are a hard error and
	// deliberately not ErrSnapshotVersion: a file that once carried a
	// delta tail holds acknowledged writes, and the fresh-build fallback
	// that error invites would silently lose them.
	if extra := len(buf) - end - 4; extra > 0 {
		return nil, fmt.Errorf("%w: %d bytes", errSnapshotTrailing, extra)
	}

	x, err := build(clean, ps, cfg)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	x.queries.Store(int64(queries))
	x.upserts.Store(int64(upserts))
	x.seq.Store(int64(seq))
	x.restored = true
	x.imageBytes.Store(int64(len(buf)))
	x.persist = PersistState{
		Restored: true,
		Bytes:    int64(len(buf)),
		SavedAt:  time.Unix(0, savedAtNanos),
		Seq:      int64(seq),
	}
	return x, nil
}

// encodeLocked streams the snapshot; caller holds writeMu, so no writer
// can interleave and the byID reads need no further locking.
func (x *Index) encodeLocked(w io.Writer, savedAt time.Time) (int64, error) {
	cw := &crcWriter{w: w}
	cw.bytes([]byte(snapshotMagic))
	cw.uvarint(snapshotVersion)
	if x.clean {
		cw.byte(1)
	} else {
		cw.byte(0)
	}
	cw.varint(savedAt.UnixNano())
	cw.uvarint(uint64(x.nextID))
	cw.uvarint(uint64(x.queries.Load()))
	cw.uvarint(uint64(x.upserts.Load()))
	cw.uvarint(uint64(x.seq.Load()))
	cw.uvarint(uint64(len(x.byID)))

	// Every ID below nextID is live (no profile is deleted outright, and
	// every insert takes nextID), so walking the IDs in order walks byID
	// in order.
	var rec []byte
	for id := profile.ID(0); id < x.nextID && cw.err == nil; id++ {
		sp := x.byID[id]
		// Mirror the decoder's bounds so Save fails loudly instead of
		// writing a file Load would reject at restart.
		if cw.err = checkRecordBounds(&sp.p); cw.err == nil {
			rec = appendRecord(rec[:0], &sp.p)
			cw.bytes(rec)
		}
	}

	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.sum)
	if cw.err == nil {
		if _, err := w.Write(trailer[:]); err != nil {
			cw.err = err
		} else {
			cw.n += int64(len(trailer))
		}
	}
	return cw.n, cw.err
}

// The fewest bytes one item of each kind can occupy in an image or an op
// payload: what a claimed count is checked against before anything is
// sized from it.
const (
	minRecordBytes = 3 // source, original-ID length, attribute count
	minAttrBytes   = 2 // key length, value length
)

// appendRecord appends p's profile record — source, original ID,
// attributes — to dst. It is the unit an op frame and a snapshot share:
// a frame carries it after the profile's ID, an image in the ID's place.
func appendRecord(dst []byte, p *profile.Profile) []byte {
	dst = append(dst, byte(p.SourceID))
	dst = appendString(dst, p.OriginalID)
	dst = binary.AppendUvarint(dst, uint64(len(p.Attributes)))
	for _, kv := range p.Attributes {
		dst = appendString(dst, kv.Key)
		dst = appendString(dst, kv.Value)
	}
	return dst
}

// appendString appends a uvarint length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// checkRecordBounds holds a profile to the bounds the record reader
// enforces, so a profile that is written, saved or shipped always reads
// back. The write path checks it before anything mutates, the encoder
// before every record.
func checkRecordBounds(p *profile.Profile) error {
	if len(p.Attributes) > maxSnapshotItems {
		return fmt.Errorf("index: profile %s exceeds the attribute limit", p.OriginalID)
	}
	if len(p.OriginalID) > maxSnapshotString {
		return fmt.Errorf("index: profile original ID exceeds the string limit")
	}
	for _, kv := range p.Attributes {
		if len(kv.Key) > maxSnapshotString || len(kv.Value) > maxSnapshotString {
			return fmt.Errorf("index: profile %s exceeds the string limit", p.OriginalID)
		}
	}
	return nil
}

// record reads one profile record into p, leaving its ID to the caller,
// and checks its source against the task (clean-clean: 0 or 1; dirty: 0).
// Strings are substrings of the cursor's input. A non-nil attrs carves
// the attribute run from that slab; nil allocates it exactly.
func (c *cursor) record(p *profile.Profile, clean bool, attrs *slab[profile.KeyValue]) error {
	src, err := c.byte()
	if err != nil {
		return err
	}
	if src > 1 || (!clean && src != 0) {
		return fmt.Errorf("source %d invalid for this task", src)
	}
	orig, err := c.string()
	if err != nil {
		return err
	}
	n, err := c.count(minAttrBytes)
	if err != nil || n > maxSnapshotItems {
		return fmt.Errorf("attribute count %d: %w", n, orBad(err, 0))
	}
	*p = profile.Profile{OriginalID: orig, SourceID: int(src)}
	if n == 0 {
		return nil
	}
	if attrs != nil {
		p.Attributes = attrs.take(int(n), c.rest()/minAttrBytes)
	} else {
		p.Attributes = make([]profile.KeyValue, n)
	}
	for i := range p.Attributes {
		kv := &p.Attributes[i]
		if kv.Key, err = c.string(); err != nil {
			return err
		}
		if kv.Value, err = c.string(); err != nil {
			return err
		}
	}
	return nil
}

// slabChunk is how many items a slab allocates at a time.
const slabChunk = 4096

// slab carves the runs of one item kind out of chunk allocations — one
// allocation per few thousand items instead of one per item. build
// carves its stored profiles and token lists this way, the decoder its
// attribute runs.
type slab[T any] struct{ free []T }

// take returns a zeroed run of n items, n > 0, with its capacity clipped
// to n: an append to a carved posting list or profile field copies out
// instead of writing into a neighbour's run. atMost bounds how many more
// items the input can still ask for (callers derive it from a checked
// count or from the bytes that remain) and caps the chunk, so allocation
// stays proportional to the input actually supplied.
func (s *slab[T]) take(n, atMost int) []T {
	if n > len(s.free) {
		s.free = make([]T, max(n, min(slabChunk, atMost)))
	}
	run := s.free[:n:n]
	s.free = s.free[n:]
	return run
}

// orBad folds (err, bad value) checks into one %w operand: the read
// error when there was one, otherwise a value error.
func orBad(err error, v byte) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("bad value %d", v)
}

// crcWriter counts and checksums everything written; the first error
// sticks and later writes become no-ops, so encode paths stay linear.
type crcWriter struct {
	w   io.Writer
	sum uint32
	n   int64
	err error
	buf [binary.MaxVarintLen64]byte
}

func (c *crcWriter) bytes(p []byte) {
	if c.err != nil {
		return
	}
	if _, err := c.w.Write(p); err != nil {
		c.err = err
		return
	}
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p)
	c.n += int64(len(p))
}

func (c *crcWriter) byte(b byte)      { c.buf[0] = b; c.bytes(c.buf[:1]) }
func (c *crcWriter) uvarint(v uint64) { c.bytes(c.buf[:binary.PutUvarint(c.buf[:], v)]) }
func (c *crcWriter) varint(v int64)   { c.bytes(c.buf[:binary.PutVarint(c.buf[:], v)]) }

// cursor walks a snapshot image or an op payload in place: b is the
// input as read, s the one immutable copy of it that every decoded string
// is a substring of.
// Running off the end is io.ErrUnexpectedEOF.
type cursor struct {
	b   []byte
	s   string
	off int
}

// rest is the number of bytes not yet consumed.
func (c *cursor) rest() int { return len(c.b) - c.off }

func (c *cursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, io.ErrUnexpectedEOF
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, varintErr(n)
	}
	c.off += n
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, varintErr(n)
	}
	c.off += n
	return v, nil
}

// varintErr names a failed binary.Uvarint/Varint: 0 bytes consumed is a
// truncated value, a negative count an overflowing one.
func varintErr(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return errors.New("varint overflows 64 bits")
}

// count reads an item count and checks it against the bytes that remain:
// every item occupies at least itemBytes, so a count the rest of the
// input cannot hold fails here, before anything is sized from it.
func (c *cursor) count(itemBytes int) (uint64, error) {
	n, err := c.uvarint()
	if err == nil && n > uint64(c.rest()/itemBytes) {
		err = fmt.Errorf("%d items in %d bytes: %w", n, c.rest(), io.ErrUnexpectedEOF)
	}
	return n, err
}

func (c *cursor) string() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxSnapshotString {
		return "", fmt.Errorf("string of %d bytes exceeds limit", n)
	}
	if n > uint64(c.rest()) {
		return "", io.ErrUnexpectedEOF
	}
	s := c.s[c.off : c.off+int(n)]
	c.off += int(n)
	return s, nil
}
