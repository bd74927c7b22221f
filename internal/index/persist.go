package index

// Durable snapshots: the index serializes to a single versioned,
// length-prefixed binary file and restores to a fully queryable index,
// so sparker-serve restarts (and read-only replicas) skip re-tokenizing
// and re-indexing the whole collection.
//
// File layout (integers are varints, strings are uvarint length + bytes):
//
//	magic   "SPKRIDX1" (8 bytes)
//	uvarint format version (3; any other answers ErrSnapshotVersion)
//	header  clean flag, shard count, save timestamp, nextID,
//	        queries/upserts counters, sequence number, profile count,
//	        posting count
//	LSH     presence byte; when set: signature length, MinHash seed,
//	        banding threshold bits, probe counters
//	profiles section: per profile ID, source, original ID, attributes,
//	        blocking keys (with clusters), optional cached token bag,
//	        and (LSH present) an optional MinHash signature
//	per-shard sections: posting count, then per posting key, cluster,
//	        and the source-A / source-B ID lists in live order
//	trailer CRC-32 (IEEE) of every preceding byte
//
// Nothing follows the trailer. A snapshot is a checkpoint at one sequence
// number; the writes after it live in the WAL segments (wal.go), the only
// on-disk delta store, and bytes past the CRC fail the load.
//
// LSH bucket postings are not serialized: band keys are a pure function
// of (signature, banding layout), so Decode re-derives the buckets from
// the stored signatures — the snapshot stays smaller and a crafted file
// cannot describe buckets inconsistent with the signatures.
//
// Encoding is deterministic (profiles by ID, postings by key within each
// shard, ID lists verbatim): save → load → save reproduces the exact
// bytes apart from the save-timestamp varint and the CRC that covers it.
// Decoding validates every length and cross-reference before allocating
// proportionally, so corrupt input fails with an error rather than a
// panic or an unbounded allocation.

import (
	"bufio"
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

	"sparker/internal/blocking"
	"sparker/internal/obs"
	"sparker/internal/profile"
)

const (
	snapshotMagic = "SPKRIDX1"
	// snapshotVersion is the one format this build writes and reads.
	snapshotVersion = 3

	// maxSnapshotString bounds any single length-prefixed string
	// (attribute values, blocking keys) a snapshot may carry. Enforced
	// symmetrically: encode rejects longer strings, so a successful Save
	// is always loadable. Decode reads strings incrementally, so a
	// corrupt length prefix can only cost allocation proportional to the
	// input actually supplied, never to the claimed length.
	maxSnapshotString = 1 << 30
	// maxSnapshotItems bounds per-profile attribute/key/bag counts, also
	// enforced on both sides.
	maxSnapshotItems = 1 << 26
	// maxSnapshotShards bounds the decoded shard count.
	maxSnapshotShards = 1 << 12
	// maxSnapshotCluster bounds decoded attribute-cluster IDs.
	maxSnapshotCluster = 1 << 30
	// maxSnapshotSigLen bounds the decoded MinHash signature length.
	maxSnapshotSigLen = 1 << 12
	// maxSignatureValue is one past the largest value a MinHash position
	// can hold: lsh's Mersenne prime 2^61-1. Signatures are only stored
	// for non-empty token bags, so every position is a real hash minimum.
	maxSignatureValue = (1 << 61) - 1
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

// Encode streams a snapshot to w without the file handling of Save. The
// writer lock is held for the duration, like Save.
func (x *Index) Encode(w io.Writer) (int64, error) {
	x.writeMu.Lock()
	defer x.writeMu.Unlock()
	return x.encodeLocked(w, time.Now())
}

// Load restores an index from a snapshot file. The tokenizer, clustering,
// entropy and measure of cfg must match the configuration the snapshot
// was saved under (they are code, not data, and are not serialized); the
// shard count is restored from the file and overrides cfg.Shards. A
// missing file surfaces as fs.ErrNotExist and an incompatible format as
// ErrSnapshotVersion, both via errors.Is.
func Load(path string, cfg Config) (*Index, error) {
	start := obs.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	defer f.Close()
	x, err := Decode(f, cfg)
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

// Decode restores an index from a snapshot stream. See Load.
func Decode(r io.Reader, cfg Config) (*Index, error) {
	cr := &crcReader{r: bufio.NewReaderSize(r, 1<<16)}

	var magic [len(snapshotMagic)]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("snapshot magic: %w", err)
	}
	if string(magic[:]) != snapshotMagic {
		return nil, fmt.Errorf("not an index snapshot (bad magic %q)", magic[:])
	}
	version, err := cr.uvarint()
	if err != nil {
		return nil, fmt.Errorf("snapshot version: %w", err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d",
			ErrSnapshotVersion, version, snapshotVersion)
	}

	cleanByte, err := cr.byte()
	if err != nil || cleanByte > 1 {
		return nil, fmt.Errorf("snapshot clean flag: %w", orBad(err, cleanByte))
	}
	clean := cleanByte == 1
	shards, err := cr.uvarint()
	if err != nil || shards < 1 || shards > maxSnapshotShards {
		return nil, fmt.Errorf("snapshot shard count %d: %w", shards, orBad(err, 0))
	}
	savedAtNanos, err := cr.varint()
	if err != nil {
		return nil, fmt.Errorf("snapshot timestamp: %w", err)
	}
	nextID, err := cr.uvarint()
	if err != nil || nextID > math.MaxInt32 {
		return nil, fmt.Errorf("snapshot nextID %d: %w", nextID, orBad(err, 0))
	}
	queries, err := cr.uvarint()
	if err != nil || queries > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot query counter: %w", orBad(err, 0))
	}
	upserts, err := cr.uvarint()
	if err != nil || upserts > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot upsert counter: %w", orBad(err, 0))
	}
	seq, err := cr.uvarint()
	if err != nil || seq > math.MaxInt64 {
		return nil, fmt.Errorf("snapshot sequence number: %w", orBad(err, 0))
	}
	numProfiles, err := cr.uvarint()
	// The index never deletes a profile outright (removals only happen
	// inside a replace), so every assigned ID is live: the ID bound must
	// equal the profile count exactly. This also caps the dense query
	// scratch (sized to nextID) by the profiles actually present — a
	// tiny snapshot cannot claim a huge ID space and OOM the first Query.
	if err != nil || numProfiles != nextID {
		return nil, fmt.Errorf("snapshot profile count %d does not match ID bound %d: %w",
			numProfiles, nextID, orBad(err, 0))
	}
	numBlocks, err := cr.uvarint()
	if err != nil {
		return nil, fmt.Errorf("snapshot posting count: %w", err)
	}

	// LSH section header: the MinHash parameters are data — two indexes
	// only agree on signatures when length, seed and banding threshold
	// match — so, like the shard count, the file's values override cfg's
	// when the snapshot carries signatures. The probe policy, floor and
	// weighting stay query-time configuration.
	var (
		fileSigLen              uint64
		fileSeed                int64
		fileThreshold           float64
		fileProbes, fileLSHOnly uint64
	)
	lshByte, err := cr.byte()
	if err != nil || lshByte > 1 {
		return nil, fmt.Errorf("snapshot LSH flag: %w", orBad(err, lshByte))
	}
	fileLSH := lshByte == 1
	if fileLSH {
		fileSigLen, err = cr.uvarint()
		if err != nil || fileSigLen < 1 || fileSigLen > maxSnapshotSigLen {
			return nil, fmt.Errorf("snapshot signature length %d: %w", fileSigLen, orBad(err, 0))
		}
		if fileSeed, err = cr.varint(); err != nil {
			return nil, fmt.Errorf("snapshot LSH seed: %w", err)
		}
		bits, err := cr.uvarint()
		fileThreshold = math.Float64frombits(bits)
		// NaN fails the comparison chain too: the threshold must be a
		// real similarity in (0, 1].
		if err != nil || !(fileThreshold > 0 && fileThreshold <= 1) {
			return nil, fmt.Errorf("snapshot LSH threshold %v: %w", fileThreshold, orBad(err, 0))
		}
		fileProbes, err = cr.uvarint()
		if err != nil || fileProbes > math.MaxInt64 {
			return nil, fmt.Errorf("snapshot LSH probe counter: %w", orBad(err, 0))
		}
		fileLSHOnly, err = cr.uvarint()
		if err != nil || fileLSHOnly > math.MaxInt64 {
			return nil, fmt.Errorf("snapshot LSH candidate counter: %w", orBad(err, 0))
		}
	}

	cfg.Shards = int(shards)
	if cfg.LSH.Policy != ProbeOff && fileLSH {
		cfg.LSH.SignatureLen = int(fileSigLen)
		cfg.LSH.Seed = fileSeed
		cfg.LSH.Threshold = fileThreshold
	}
	x := New(clean, cfg)

	// Profiles section. Every record consumes at least a few bytes, so a
	// lying count fails on EOF long before allocation grows past the
	// input size.
	for i := uint64(0); i < numProfiles; i++ {
		sp, err := decodeProfile(cr, x, nextID, fileLSH, int(fileSigLen))
		if err != nil {
			return nil, fmt.Errorf("snapshot profile %d/%d: %w", i, numProfiles, err)
		}
		id := sp.p.ID
		if _, dup := x.byID[id]; dup {
			return nil, fmt.Errorf("snapshot profile %d/%d: duplicate ID %d", i, numProfiles, id)
		}
		key := origKey(&sp.p)
		if _, dup := x.byOrig[key]; dup {
			return nil, fmt.Errorf("snapshot profile %d/%d: duplicate identity %s", i, numProfiles, key)
		}
		// Bucket postings are a pure function of (signature, banding):
		// re-derive them instead of trusting serialized lists. A file
		// without signatures (saved with LSH off) gets them
		// computed from the token bags, exactly as a fresh build would.
		if x.lshOn() {
			if sp.sig == nil && !fileLSH {
				sp.sig = x.signatureOf(sp)
			}
			x.addLSHLocked(sp)
		} else {
			sp.sig = nil
		}
		x.byID[id] = sp
		x.byOrig[key] = id
	}

	// Per-shard posting sections. Postings are re-distributed through
	// shardFor, so the section boundaries only structure the file.
	var totalPostings uint64
	for s := uint64(0); s < shards; s++ {
		n, err := cr.uvarint()
		if err != nil {
			return nil, fmt.Errorf("snapshot shard %d: %w", s, err)
		}
		for i := uint64(0); i < n; i++ {
			if err := decodePosting(cr, x); err != nil {
				return nil, fmt.Errorf("snapshot shard %d posting %d: %w", s, i, err)
			}
		}
		totalPostings += n
	}
	if totalPostings != numBlocks {
		return nil, fmt.Errorf("snapshot holds %d postings, header says %d", totalPostings, numBlocks)
	}

	// Trailer: CRC of everything read so far.
	sum := cr.sum
	var trailer [4]byte
	if _, err := io.ReadFull(cr.r, trailer[:]); err != nil {
		return nil, fmt.Errorf("snapshot checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != sum {
		return nil, fmt.Errorf("snapshot checksum mismatch: file %08x, computed %08x", got, sum)
	}

	x.nextID = profile.ID(nextID)
	x.idBound.Store(int64(nextID))
	x.numProfiles.Store(int64(numProfiles))
	x.numBlocks.Store(int64(totalPostings))
	x.queries.Store(int64(queries))
	x.upserts.Store(int64(upserts))
	x.seq.Store(int64(seq))
	if x.lshOn() && fileLSH {
		x.lshProbes.Store(int64(fileProbes))
		x.lshOnly.Store(int64(fileLSHOnly))
	}
	x.restored = true

	// Nothing may follow the trailer. Stray bytes are a hard error and
	// deliberately not ErrSnapshotVersion: a file that once carried a
	// delta tail holds acknowledged writes, and the fresh-build fallback
	// that error invites would silently lose them.
	extra, err := io.Copy(io.Discard, cr.r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading past the checksum: %w", err)
	}
	if extra > 0 {
		return nil, fmt.Errorf("%w: %d bytes", errSnapshotTrailing, extra)
	}

	x.persist = PersistState{
		Restored: true,
		Bytes:    cr.n + int64(len(trailer)),
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

	withLSH := x.lshOn()
	if withLSH {
		cw.byte(1)
		cw.uvarint(uint64(x.cfg.LSH.SignatureLen))
		cw.varint(x.cfg.LSH.Seed)
		cw.uvarint(math.Float64bits(x.cfg.LSH.Threshold))
		cw.uvarint(uint64(x.lshProbes.Load()))
		cw.uvarint(uint64(x.lshOnly.Load()))
	} else {
		cw.byte(0)
	}

	ids := make([]profile.ID, 0, len(x.byID))
	for id := range x.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sp := x.byID[id]
		// Mirror the decoder's count bounds so Save fails loudly instead
		// of writing a file Load would reject at restart.
		if len(sp.p.Attributes) > maxSnapshotItems || len(sp.keys) > maxSnapshotItems ||
			len(sp.bag) > maxSnapshotItems {
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
		cw.uvarint(uint64(len(sp.keys)))
		for _, kt := range sp.keys {
			cw.string(kt.Key)
			cw.varint(int64(kt.Cluster))
		}
		if sp.bag != nil {
			cw.byte(1)
			cw.uvarint(uint64(len(sp.bag)))
			for _, t := range sp.bag {
				cw.string(t)
			}
		} else {
			cw.byte(0)
		}
		if withLSH {
			if sp.sig != nil {
				cw.byte(1)
				for _, v := range sp.sig {
					cw.uvarint(v)
				}
			} else {
				cw.byte(0)
			}
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
			cw.varint(int64(pl.cluster))
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

// decodeProfile reads one profiles-section record. When the file carries
// an LSH section (readSig), each record ends with an optional signature
// of exactly sigLen values; it is consumed even when the decoding config
// has LSH off, and discarded by the caller in that case.
func decodeProfile(cr *crcReader, x *Index, idBound uint64, readSig bool, sigLen int) (*storedProfile, error) {
	id, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	if id >= idBound {
		return nil, fmt.Errorf("ID %d beyond bound %d", id, idBound)
	}
	src, err := cr.byte()
	if err != nil {
		return nil, err
	}
	if src > 1 || (!x.clean && src != 0) {
		return nil, fmt.Errorf("bad source %d", src)
	}
	orig, err := cr.string()
	if err != nil {
		return nil, err
	}
	p := profile.Profile{ID: profile.ID(id), OriginalID: orig, SourceID: int(src)}

	nAttrs, err := cr.uvarint()
	if err != nil || nAttrs > maxSnapshotItems {
		return nil, fmt.Errorf("attribute count %d: %w", nAttrs, orBad(err, 0))
	}
	if nAttrs > 0 {
		p.Attributes = make([]profile.KeyValue, 0, capped(nAttrs))
		for i := uint64(0); i < nAttrs; i++ {
			key, err := cr.string()
			if err != nil {
				return nil, err
			}
			value, err := cr.string()
			if err != nil {
				return nil, err
			}
			p.Attributes = append(p.Attributes, profile.KeyValue{Key: key, Value: value})
		}
	}

	nKeys, err := cr.uvarint()
	if err != nil || nKeys > maxSnapshotItems {
		return nil, fmt.Errorf("key count %d: %w", nKeys, orBad(err, 0))
	}
	sp := &storedProfile{p: p}
	if nKeys > 0 {
		sp.keys = make([]blocking.KeyedToken, 0, capped(nKeys))
		for i := uint64(0); i < nKeys; i++ {
			key, err := cr.string()
			if err != nil {
				return nil, err
			}
			cluster, err := cr.varint()
			if err != nil || cluster < -1 || cluster > maxSnapshotCluster {
				return nil, fmt.Errorf("cluster %d: %w", cluster, orBad(err, 0))
			}
			sp.keys = append(sp.keys, blocking.KeyedToken{Key: key, Cluster: int(cluster)})
		}
	}

	hasBag, err := cr.byte()
	if err != nil || hasBag > 1 {
		return nil, fmt.Errorf("bag flag: %w", orBad(err, hasBag))
	}
	var bag []string
	if hasBag == 1 {
		nBag, err := cr.uvarint()
		if err != nil || nBag > maxSnapshotItems {
			return nil, fmt.Errorf("bag size %d: %w", nBag, orBad(err, 0))
		}
		bag = make([]string, 0, capped(nBag))
		for i := uint64(0); i < nBag; i++ {
			t, err := cr.string()
			if err != nil {
				return nil, err
			}
			bag = append(bag, t)
		}
	}
	if x.cfg.defaultJaccard {
		// The cached-bag scorer needs a bag; snapshots written under a
		// custom measure carry none, so recompute it.
		if bag == nil {
			bag = distinctBag(&sp.p, x.cfg)
		}
		sp.bag = bag
	}

	if readSig {
		hasSig, err := cr.byte()
		if err != nil || hasSig > 1 {
			return nil, fmt.Errorf("signature flag: %w", orBad(err, hasSig))
		}
		if hasSig == 1 {
			// sigLen is header-validated (≤ maxSnapshotSigLen) and every
			// value costs at least one input byte, so a truncated file
			// errors after at most one bounded allocation.
			sig := make([]uint64, 0, sigLen)
			for i := 0; i < sigLen; i++ {
				v, err := cr.uvarint()
				if err != nil {
					return nil, fmt.Errorf("signature value %d/%d: %w", i, sigLen, err)
				}
				if v >= maxSignatureValue {
					return nil, fmt.Errorf("signature value %d out of range", v)
				}
				sig = append(sig, v)
			}
			sp.sig = sig
		}
	}
	return sp, nil
}

// decodePosting reads one posting record and installs it on its shard.
func decodePosting(cr *crcReader, x *Index) error {
	key, err := cr.string()
	if err != nil {
		return err
	}
	if key == "" {
		return fmt.Errorf("empty posting key")
	}
	cluster, err := cr.varint()
	if err != nil || cluster < -1 || cluster > maxSnapshotCluster {
		return fmt.Errorf("cluster %d: %w", cluster, orBad(err, 0))
	}
	pl := &posting{cluster: int(cluster)}
	if pl.a, err = decodeIDList(cr, x, 0); err != nil {
		return fmt.Errorf("posting %q: %w", key, err)
	}
	if pl.b, err = decodeIDList(cr, x, 1); err != nil {
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

// decodeIDList reads one posting side, validating every entry against
// the already-decoded profiles (existence and source side).
func decodeIDList(cr *crcReader, x *Index, wantSource int) ([]profile.ID, error) {
	n, err := cr.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(x.byID)) {
		return nil, fmt.Errorf("posting side of %d entries exceeds %d profiles", n, len(x.byID))
	}
	ids := make([]profile.ID, 0, capped(n))
	for i := uint64(0); i < n; i++ {
		raw, err := cr.uvarint()
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
		ids = append(ids, id)
	}
	return ids, nil
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

// crcReader checksums everything read through it (the trailer is read
// from the underlying reader directly, bypassing the hash).
type crcReader struct {
	r   *bufio.Reader
	sum uint32
	n   int64
	one [1]byte
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
		c.n += int64(n)
	}
	return n, err
}

// ReadByte lets binary.ReadUvarint consume one byte at a time.
func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	c.one[0] = b
	c.sum = crc32.Update(c.sum, crc32.IEEETable, c.one[:])
	c.n++
	return b, nil
}

func (c *crcReader) byte() (byte, error) { return c.ReadByte() }

func (c *crcReader) uvarint() (uint64, error) { return binary.ReadUvarint(c) }

func (c *crcReader) varint() (int64, error) { return binary.ReadVarint(c) }

func (c *crcReader) string() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxSnapshotString {
		return "", fmt.Errorf("string of %d bytes exceeds limit", n)
	}
	// Read in bounded chunks: a lying length prefix on truncated input
	// errors after allocating at most one chunk beyond the actual data.
	const chunk = 64 << 10
	if n <= chunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(c, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	buf := make([]byte, 0, chunk)
	for remaining := n; remaining > 0; {
		step := remaining
		if step > chunk {
			step = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(c, buf[start:]); err != nil {
			return "", err
		}
		remaining -= step
	}
	return string(buf), nil
}
