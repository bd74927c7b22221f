package index

// Durable snapshots: the index serializes to a single versioned,
// length-prefixed binary file and restores to a fully queryable index,
// so sparker-serve restarts (and read-only replicas) skip re-tokenizing
// and re-indexing the whole collection.
//
// File layout (integers are varints, strings are uvarint length + bytes):
//
//	magic   "SPKRIDX1" (8 bytes)
//	uvarint format version (4; any other answers ErrSnapshotVersion)
//	header  clean flag, shard count, save timestamp, nextID,
//	        queries/upserts counters, sequence number, profile count,
//	        posting count
//	profiles section: per profile ID, source, original ID, attributes,
//	        and its keys (its distinct tokens in first-occurrence order)
//	per-shard sections: posting count, then per posting key and the
//	        source-A / source-B ID lists in live order
//	trailer CRC-32 (IEEE) of every preceding byte
//
// The image holds what the index is and nothing of how it scores: the
// keys are schema-agnostic tokens, so a key is its own block, and the
// same writes encode to the same bytes under every served measure.
//
// Nothing follows the trailer. A snapshot is a checkpoint at one sequence
// number; the writes after it live in the WAL segments (wal.go), the only
// on-disk delta store, and bytes past the CRC fail the load.
//
// A version-3 image answers ErrSnapshotVersion like any other, and
// sparker-serve rebuilds from its input files. With a WAL that rebuild
// replays the log from sequence 1, and a log whose start a save has
// pruned is a sequence gap, a hard error (wal.go): no acknowledged write
// is dropped silently.
//
// Encoding is deterministic (profiles by ID, postings by key within each
// shard, ID lists verbatim): save → load → save reproduces the exact
// bytes apart from the save-timestamp varint and the CRC that covers it.
//
// How a snapshot is read. Load reads the file whole into one buffer of
// the file's size (Decode reads its stream to the end) and takes one
// immutable string copy of it. A cursor then parses the varints in
// place; every decoded string — original IDs, attribute keys and values,
// tokens, posting keys — is a substring of that one copy, and the items
// themselves (stored profiles, attribute and token runs, posting structs,
// ID lists) are carved out of slabs
// a few thousand items at a time, each run with its capacity clipped to
// its length so a later append copies out instead of writing into its
// neighbour. The CRC is one crc32 call over everything before the
// trailer. Every count is checked against the bytes that remain before
// anything is sized from it (each item occupies at least a byte or a
// few), and every length and cross-reference is validated as it is read,
// so corrupt input fails with an error rather than a panic or an
// allocation out of proportion to the input actually supplied.
//
// What that retains: a restored index keeps the snapshot-sized string
// and its slab chunks alive for as long as anything restored from them
// is still referenced. Overwriting one restored profile frees nothing by
// itself — its chunk goes when every item in it is gone, and the string
// stays while any restored posting key or token is in use, which for
// practical purposes is the life of the index. The bound is the file's
// size plus the slabs, less than the two allocations per stored string
// and one per list that they replace.

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
	"sort"
	"time"

	"sparker/internal/obs"
	"sparker/internal/profile"
)

const (
	snapshotMagic = "SPKRIDX1"
	// snapshotVersion is the one format this build writes and reads.
	snapshotVersion = 4

	// maxSnapshotString bounds any single length-prefixed string
	// (attribute values, blocking keys) a snapshot may carry. Enforced
	// symmetrically: encode rejects longer strings, so a successful Save
	// is always loadable. Decode makes a string a substring of the image,
	// so a corrupt length prefix allocates nothing at all.
	maxSnapshotString = 1 << 30
	// maxSnapshotItems bounds per-profile attribute/key counts, also
	// enforced on both sides.
	maxSnapshotItems = 1 << 26
	// maxSnapshotShards bounds the decoded shard count.
	maxSnapshotShards = 1 << 12
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
// data, and is not serialized; the image holds nothing of the measure);
// the shard count is restored from the file and overrides cfg.Shards. A
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

// decode restores an index from a whole snapshot image (see the file
// header for how the image is read and what the restored index retains).
func decode(buf []byte, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &decoder{cursor: cursor{b: buf, s: string(buf)}}
	if d.rest() < len(snapshotMagic) {
		return nil, fmt.Errorf("snapshot magic: %w", io.ErrUnexpectedEOF)
	}
	if magic := d.s[:len(snapshotMagic)]; magic != snapshotMagic {
		return nil, fmt.Errorf("not an index snapshot (bad magic %q)", magic)
	}
	d.off = len(snapshotMagic)
	version, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("snapshot version: %w", err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d",
			ErrSnapshotVersion, version, snapshotVersion)
	}

	cleanByte, err := d.byte()
	if err != nil || cleanByte > 1 {
		return nil, fmt.Errorf("snapshot clean flag: %w", orBad(err, cleanByte))
	}
	clean := cleanByte == 1
	shards, err := d.uvarint()
	if err != nil || shards < 1 || shards > maxSnapshotShards {
		return nil, fmt.Errorf("snapshot shard count %d: %w", shards, orBad(err, 0))
	}
	savedAtNanos, err := d.varint()
	if err != nil {
		return nil, fmt.Errorf("snapshot timestamp: %w", err)
	}
	nextID, err := d.uvarint()
	if err != nil || nextID > math.MaxInt32 {
		return nil, fmt.Errorf("snapshot nextID %d: %w", nextID, orBad(err, 0))
	}
	queries, err := d.uvarint()
	if err != nil || queries > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot query counter: %w", orBad(err, 0))
	}
	upserts, err := d.uvarint()
	if err != nil || upserts > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot upsert counter: %w", orBad(err, 0))
	}
	seq, err := d.uvarint()
	if err != nil || seq > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot sequence number: %w", orBad(err, 0))
	}
	numProfiles, err := d.count(minProfileBytes)
	// The index never deletes a profile outright (removals only happen
	// inside a replace), so every assigned ID is live: the ID bound must
	// equal the profile count exactly. This also caps the dense query
	// scratch (sized to nextID) by the profiles actually present — a
	// tiny snapshot cannot claim a huge ID space and OOM the first Query.
	if err != nil || numProfiles != nextID {
		return nil, fmt.Errorf("snapshot profile count %d does not match ID bound %d: %w",
			numProfiles, nextID, orBad(err, 0))
	}
	numBlocks, err := d.count(minPostingBytes)
	if err != nil {
		return nil, fmt.Errorf("snapshot posting count: %w", err)
	}

	cfg.Shards = int(shards)
	x := New(clean, cfg)
	d.x = x
	// The counts were checked against the bytes that remain, so sizing
	// the profile maps from them up front is safe.
	x.byID = make(map[profile.ID]*storedProfile, numProfiles)
	x.byOrig = make(map[Identity]profile.ID, numProfiles)

	// Profiles section.
	for i := uint64(0); i < numProfiles; i++ {
		sp, err := d.profile(nextID, int(numProfiles-i))
		if err != nil {
			return nil, fmt.Errorf("snapshot profile %d/%d: %w", i, numProfiles, err)
		}
		id := sp.p.ID
		if _, dup := x.byID[id]; dup {
			return nil, fmt.Errorf("snapshot profile %d/%d: duplicate ID %d", i, numProfiles, id)
		}
		key := identityOf(&sp.p)
		if _, dup := x.byOrig[key]; dup {
			return nil, fmt.Errorf("snapshot profile %d/%d: duplicate identity %d:%s",
				i, numProfiles, key.SourceID, key.OriginalID)
		}
		x.byID[id] = sp
		x.byOrig[key] = id
	}

	// Per-shard posting sections. Postings are re-distributed through
	// shardFor, so the section boundaries only structure the file — and
	// hint at each shard's map size, since the encoder writes shard s's
	// postings in section s.
	var totalPostings uint64
	for s := uint64(0); s < shards; s++ {
		n, err := d.count(minPostingBytes)
		if err != nil {
			return nil, fmt.Errorf("snapshot shard %d: %w", s, err)
		}
		if sh := x.shards[s]; len(sh.postings) == 0 {
			sh.postings = make(map[string]*posting, n)
		}
		for i := uint64(0); i < n; i++ {
			if err := d.posting(int(n - i)); err != nil {
				return nil, fmt.Errorf("snapshot shard %d posting %d: %w", s, i, err)
			}
		}
		totalPostings += n
	}
	if totalPostings != numBlocks {
		return nil, fmt.Errorf("snapshot holds %d postings, header says %d", totalPostings, numBlocks)
	}

	// Trailer: CRC of everything before it, in one pass.
	end := d.off
	if d.rest() < 4 {
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

	x.nextID = profile.ID(nextID)
	x.idBound.Store(int64(nextID))
	x.numProfiles.Store(int64(numProfiles))
	x.numBlocks.Store(int64(totalPostings))
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
// can interleave and the byID/shard reads need no further locking.
func (x *Index) encodeLocked(w io.Writer, savedAt time.Time) (int64, error) {
	cw := &crcWriter{w: w}
	cw.bytes([]byte(snapshotMagic))
	cw.uvarint(snapshotVersion)
	if x.clean {
		cw.byte(1)
	} else {
		cw.byte(0)
	}
	cw.uvarint(uint64(len(x.shards)))
	cw.varint(savedAt.UnixNano())
	cw.uvarint(uint64(x.nextID))
	cw.uvarint(uint64(x.queries.Load()))
	cw.uvarint(uint64(x.upserts.Load()))
	cw.uvarint(uint64(x.seq.Load()))
	cw.uvarint(uint64(len(x.byID)))
	cw.uvarint(uint64(x.numBlocks.Load()))

	ids := make([]profile.ID, 0, len(x.byID))
	for id := range x.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sp := x.byID[id]
		// Mirror the decoder's count bounds so Save fails loudly instead
		// of writing a file Load would reject at restart.
		if len(sp.p.Attributes) > maxSnapshotItems || len(sp.tokens) > maxSnapshotItems {
			cw.err = fmt.Errorf("profile %d exceeds snapshot item limits", sp.p.ID)
			break
		}
		cw.uvarint(uint64(sp.p.ID))
		cw.byte(byte(sp.p.SourceID))
		cw.string(sp.p.OriginalID)
		cw.uvarint(uint64(len(sp.p.Attributes)))
		for _, kv := range sp.p.Attributes {
			cw.string(kv.Key)
			cw.string(kv.Value)
		}
		cw.uvarint(uint64(len(sp.tokens)))
		for _, t := range sp.tokens {
			cw.string(t)
		}
	}

	keys := make([]string, 0, 64)
	for _, sh := range x.shards {
		sh.mu.RLock()
		keys = keys[:0]
		for key := range sh.postings {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		cw.uvarint(uint64(len(keys)))
		for _, key := range keys {
			pl := sh.postings[key]
			cw.string(key)
			cw.uvarint(uint64(len(pl.a)))
			for _, id := range pl.a {
				cw.uvarint(uint64(id))
			}
			cw.uvarint(uint64(len(pl.b)))
			for _, id := range pl.b {
				cw.uvarint(uint64(id))
			}
		}
		sh.mu.RUnlock()
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

// decoder is the state of one decode: the cursor over the image, the
// index being filled, and one slab per kind of item the image holds.
type decoder struct {
	cursor
	x *Index

	profiles slab[storedProfile]
	attrs    slab[profile.KeyValue]
	tokens   slab[string]
	postings slab[posting]
	ids      slab[profile.ID]
}

// The fewest bytes one item of each kind can occupy in the image: what a
// claimed count is checked against before a slab is sized from it.
const (
	minProfileBytes = 5 // ID, source, original-ID length, attribute count, key count
	minAttrBytes    = 2 // key length, value length
	minKeyBytes     = 1 // key length
	minPostingBytes = 5 // key length, one key byte, two list lengths, one ID
)

// profile reads one profiles-section record, the first of left that
// remain.
func (d *decoder) profile(idBound uint64, left int) (*storedProfile, error) {
	x := d.x
	id, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if id >= idBound {
		return nil, fmt.Errorf("ID %d beyond bound %d", id, idBound)
	}
	src, err := d.byte()
	if err != nil {
		return nil, err
	}
	if src > 1 || (!x.clean && src != 0) {
		return nil, fmt.Errorf("bad source %d", src)
	}
	orig, err := d.string()
	if err != nil {
		return nil, err
	}
	sp := &d.profiles.take(1, left)[0]
	sp.p = profile.Profile{ID: profile.ID(id), OriginalID: orig, SourceID: int(src)}

	nAttrs, err := d.count(minAttrBytes)
	if err != nil || nAttrs > maxSnapshotItems {
		return nil, fmt.Errorf("attribute count %d: %w", nAttrs, orBad(err, 0))
	}
	if nAttrs > 0 {
		sp.p.Attributes = d.attrs.take(int(nAttrs), d.rest()/minAttrBytes)
		for i := range sp.p.Attributes {
			kv := &sp.p.Attributes[i]
			if kv.Key, err = d.string(); err != nil {
				return nil, err
			}
			if kv.Value, err = d.string(); err != nil {
				return nil, err
			}
		}
	}

	nKeys, err := d.count(minKeyBytes)
	if err != nil || nKeys > maxSnapshotItems {
		return nil, fmt.Errorf("key count %d: %w", nKeys, orBad(err, 0))
	}
	if nKeys > 0 {
		sp.tokens = d.tokens.take(int(nKeys), d.rest()/minKeyBytes)
		for i := range sp.tokens {
			if sp.tokens[i], err = d.string(); err != nil {
				return nil, err
			}
		}
	}
	return sp, nil
}

// posting reads one posting record, the first of left that remain in its
// section, and installs it on its shard.
func (d *decoder) posting(left int) error {
	x := d.x
	key, err := d.string()
	if err != nil {
		return err
	}
	if key == "" {
		return fmt.Errorf("empty posting key")
	}
	pl := &d.postings.take(1, left)[0]
	if pl.a, err = d.idList(0); err != nil {
		return fmt.Errorf("posting %q: %w", key, err)
	}
	if pl.b, err = d.idList(1); err != nil {
		return fmt.Errorf("posting %q: %w", key, err)
	}
	if !x.clean && len(pl.b) > 0 {
		return fmt.Errorf("posting %q: source-B entries in a dirty snapshot", key)
	}
	if pl.size() == 0 {
		return fmt.Errorf("posting %q: empty", key)
	}
	sh := x.shardFor(key)
	if _, dup := sh.postings[key]; dup {
		return fmt.Errorf("posting %q: duplicate key", key)
	}
	sh.postings[key] = pl
	return nil
}

// idList reads one posting side, validating every entry against the
// already-decoded profiles (existence and source side).
func (d *decoder) idList(wantSource int) ([]profile.ID, error) {
	x := d.x
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(x.byID)) {
		return nil, fmt.Errorf("posting side of %d entries exceeds %d profiles", n, len(x.byID))
	}
	ids := d.ids.take(int(n), d.rest())
	for i := range ids {
		raw, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if raw > math.MaxInt32 {
			return nil, fmt.Errorf("posting entry %d out of range", raw)
		}
		id := profile.ID(raw)
		sp, ok := x.byID[id]
		if !ok {
			return nil, fmt.Errorf("posting references unknown profile %d", id)
		}
		if x.clean && sp.p.SourceID != wantSource {
			return nil, fmt.Errorf("profile %d (source %d) on the source-%d side",
				id, sp.p.SourceID, wantSource)
		}
		ids[i] = id
	}
	return ids, nil
}

// slabChunk is how many items a slab allocates at a time.
const slabChunk = 4096

// slab carves the runs of one item kind out of chunk allocations — one
// allocation per few thousand items where the decoder used to make one
// or two per item. NewFromCollection carves its stored profiles and
// token lists the same way.
type slab[T any] struct{ free []T }

// take returns a zeroed run of n items, n > 0, with its capacity clipped
// to n: an append to a restored posting list or profile field copies out
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
	// str stages string payloads so writing them allocates nothing.
	str [4096]byte
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

// string enforces the same length bound the decoder checks, so a
// snapshot that saves successfully always loads. The payload is staged
// through a reusable scratch buffer: a []byte(s) conversion per string
// would allocate roughly the snapshot's size in per-token garbage on
// every save.
func (c *crcWriter) string(s string) {
	if c.err == nil && len(s) > maxSnapshotString {
		c.err = fmt.Errorf("string of %d bytes exceeds snapshot limit", len(s))
		return
	}
	c.uvarint(uint64(len(s)))
	for off := 0; off < len(s) && c.err == nil; off += len(c.str) {
		n := copy(c.str[:], s[off:])
		c.bytes(c.str[:n])
	}
}

// cursor walks a snapshot image in place: b is the input as read, s the
// one immutable copy of it that every decoded string is a substring of.
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
