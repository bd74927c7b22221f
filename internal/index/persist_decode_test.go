package index

// Pins around the in-place snapshot decoder (one buffer, one CRC pass,
// substrings, slabs) and the single key+bag derivation under the write
// path: what they must equal, what they must still reject, and what they
// may allocate.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sparker/internal/blocking"
	"sparker/internal/matching"
	"sparker/internal/profile"
)

// distinctBag is the reference the write path's bag is checked against:
// the profile tokenised on its own by the matcher's ProfileBag, then
// deduplicated in first-occurrence order — how the index derived its
// bags before keys and bag came out of one pass.
func distinctBag(p *profile.Profile, cfg Config) []string {
	bag := matching.ProfileBag(p, cfg.Tokenizer)
	seen := make(map[string]struct{}, len(bag))
	out := bag[:0]
	for _, t := range bag {
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	return out
}

// randomProfiles draws profiles whose values repeat tokens within and
// across attributes and include the degenerate shapes: no attributes,
// empty values, stop-word-only and punctuation-only values.
func randomProfiles(seed int64, n int) []profile.Profile {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"acme", "blender", "Turbo", "x200", "the", "of", "and", "42", "über", "glass", "jar", "speed"}
	attrs := []string{"name", "title", "desc", "price", "brand"}
	out := make([]profile.Profile, n)
	for i := range out {
		p := profile.Profile{OriginalID: fmt.Sprintf("r%d", i), SourceID: i % 2}
		for a := rng.Intn(5); a > 0; a-- {
			var v string
			switch rng.Intn(6) {
			case 0: // empty value
			case 1:
				v = "the of and"
			case 2:
				v = "..?! --"
			default:
				words := make([]string, 1+rng.Intn(7))
				for w := range words {
					words[w] = vocab[rng.Intn(len(vocab))]
				}
				v = strings.Join(words, " ")
			}
			p.Add(attrs[rng.Intn(len(attrs))], v)
		}
		out[i] = p
	}
	return out
}

// TestKeysAndBagMatchReferences: the one-pass derivation yields exactly
// the keys blocking's KeysOf yields and exactly the bag the separate
// tokenisation used to — order, duplicates and nil-ness included (a
// token-less profile stores a nil bag, which is what the snapshot's bag
// flag byte records).
func TestKeysAndBagMatchReferences(t *testing.T) {
	x := New(true, DefaultConfig())
	tokenless := 0
	for _, p := range randomProfiles(20260424, 400) {
		p := p
		keys, bag := x.keysAndBag(&p)
		if want := x.opts.KeysOf(&p); !reflect.DeepEqual(keys, want) {
			t.Fatalf("%+v: keys %v, want %v", p, keys, want)
		}
		want := distinctBag(&p, x.cfg)
		if !reflect.DeepEqual(bag, want) { // DeepEqual tells nil from empty
			t.Fatalf("%+v: bag %#v, want %#v", p, bag, want)
		}
		if want == nil {
			tokenless++
		}
		id, _, err := x.Upsert(p)
		if err != nil {
			t.Fatal(err)
		}
		if sp := x.byID[id]; !reflect.DeepEqual(sp.keys, keys) || !reflect.DeepEqual(sp.bag, bag) {
			t.Fatalf("%+v: stored keys/bag differ from the derivation", p)
		}
	}
	if tokenless == 0 {
		t.Fatal("fixture drew no token-less profile")
	}

	// A custom Measure scores from the profiles themselves: no bag.
	custom := DefaultConfig()
	custom.Measure = matching.JaccardMeasure(custom.Tokenizer)
	p := mkProfile("c", "name", "acme blender")
	if keys, bag := New(false, custom).keysAndBag(&p); len(keys) != 2 || bag != nil {
		t.Fatalf("custom measure: keys %v, bag %#v; want two keys and a nil bag", keys, bag)
	}
}

// TestLoadAllocs pins the slabs: Load of a 2000-profile snapshot makes
// fewer than four allocations per profile (one is the profile's identity
// key in byOrig; strings, attribute/key/bag runs, posting structs and ID
// lists are all carved). The per-item decoder made about 76.
func TestLoadAllocs(t *testing.T) {
	const n = 2000
	cfg := DefaultConfig()
	x := New(true, cfg)
	upsertAll(t, x, synthQueryProfiles(n, 2, 41))
	path := filepath.Join(t.TempDir(), "allocs.snap")
	if _, err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		y, err := Load(path, cfg)
		if err != nil || y.Size() != n {
			t.Fatalf("load: %v (size %d)", err, y.Size())
		}
	})
	if perProfile := allocs / n; perProfile >= 4 {
		t.Fatalf("Load made %.0f allocations, %.1f per profile; want under 4", allocs, perProfile)
	}
}

// craftedSnapshot frames a header plus body the way the encoder would,
// CRC included, so only the decoder's own validation can refuse it.
func craftedSnapshot(numProfiles, numBlocks uint64, body func(cw *crcWriter)) []byte {
	var out bytes.Buffer
	cw := &crcWriter{w: &out}
	craftedHeader(cw, numProfiles, numBlocks)
	cw.byte(0) // no LSH section
	if body != nil {
		body(cw)
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.sum)
	out.Write(trailer[:])
	for out.Len() < 64 {
		out.WriteByte(0)
	}
	return out.Bytes()
}

// craftedHeader writes a dirty one-shard header up to the LSH presence
// byte.
func craftedHeader(cw *crcWriter, numProfiles, numBlocks uint64) {
	cw.bytes([]byte(snapshotMagic))
	cw.uvarint(snapshotVersion)
	cw.byte(0)              // dirty
	cw.uvarint(1)           // shards
	cw.varint(0)            // savedAt
	cw.uvarint(numProfiles) // nextID
	cw.uvarint(0)           // queries
	cw.uvarint(0)           // upserts
	cw.uvarint(0)           // seq
	cw.uvarint(numProfiles)
	cw.uvarint(numBlocks)
}

// lyingCountSnapshots are 64-byte inputs whose counts claim far more
// items than 64 bytes can hold, one per count the decoder sizes a slab or
// a map from.
func lyingCountSnapshots() map[string][]byte {
	const huge = 1 << 30
	profileHead := func(cw *crcWriter) {
		cw.uvarint(0) // ID
		cw.byte(0)    // source
		cw.string("p")
	}
	return map[string][]byte{
		"profiles": craftedSnapshot(huge, 0, nil),
		"postings": craftedSnapshot(0, huge, nil),
		"attributes": craftedSnapshot(1, 0, func(cw *crcWriter) {
			profileHead(cw)
			cw.uvarint(maxSnapshotItems)
		}),
		"keys": craftedSnapshot(1, 0, func(cw *crcWriter) {
			profileHead(cw)
			cw.uvarint(0)
			cw.uvarint(maxSnapshotItems)
		}),
		"bag": craftedSnapshot(1, 0, func(cw *crcWriter) {
			profileHead(cw)
			cw.uvarint(0)
			cw.uvarint(0)
			cw.byte(1)
			cw.uvarint(maxSnapshotItems)
		}),
		"shard section": craftedSnapshot(0, 0, func(cw *crcWriter) {
			cw.uvarint(huge)
		}),
		"id list": craftedSnapshot(1, 1, func(cw *crcWriter) {
			profileHead(cw)
			cw.uvarint(0)
			cw.uvarint(0)
			cw.byte(0)
			cw.uvarint(1) // shard 0: one posting
			cw.string("k")
			cw.varint(-1)
			cw.uvarint(huge)
		}),
	}
}

// TestDecodeHardening pins what the in-place decoder must keep refusing:
// every proper prefix of a valid snapshot (a current one and the two
// legacy LSH images), every single-byte corruption
// (by the CRC or by validation — and without panicking), and counts the
// remaining bytes cannot hold, refused before anything is sized from
// them. The trailing-byte refusal is TestDecodeRejectsTrailingBytes.
func TestDecodeHardening(t *testing.T) {
	cfg := DefaultConfig()
	for _, valid := range [][]byte{encodeToBytes(t, smallTestIndex(t, true)), legacyImage(t, false), legacyImage(t, true)} {
		if _, err := Decode(bytes.NewReader(valid), cfg); err != nil {
			t.Fatalf("valid snapshot rejected: %v", err)
		}
		for n := 0; n < len(valid); n++ {
			if _, err := Decode(bytes.NewReader(valid[:n]), cfg); err == nil {
				t.Fatalf("prefix of %d/%d bytes accepted", n, len(valid))
			}
		}
		for off := range valid {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				b := append([]byte(nil), valid...)
				b[off] ^= mask
				if _, err := Decode(bytes.NewReader(b), cfg); err == nil {
					t.Fatalf("byte %d/%d xor %#x accepted", off, len(valid), mask)
				}
			}
		}
	}

	for name, in := range lyingCountSnapshots() {
		if len(in) != 64 {
			t.Fatalf("%s: crafted input is %d bytes, want 64", name, len(in))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(in), cfg)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: lying count accepted", name)
		}
		// An empty index and its error cost a few tens of KiB; one slab
		// or map sized from the claimed count would be hundreds of MiB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing a 64-byte input allocated %d bytes (err: %v)", name, grew, err)
		}
	}
}

// TestRestoredSlabsDoNotAlias: restored posting lists, profiles and their
// attribute/key/bag runs are neighbours in shared slabs. Writes that
// append to restored postings, shrink them, and overwrite restored
// profiles — with Resolve running beside them — must leave everything
// they did not touch bit-identical: the restored index stays equal, byte
// for byte, to the never-saved original taken through the same writes.
func TestRestoredSlabsDoNotAlias(t *testing.T) {
	cfg := DefaultConfig()
	orig := New(true, cfg)
	base := synthQueryProfiles(300, 2, 13)
	upsertAll(t, orig, base)
	restored, err := Decode(bytes.NewReader(encodeToBytes(t, orig)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	encodesEqual(t, "before writes", orig, restored)

	// Overwrites move profiles between restored postings (remove + append
	// in place); inserts append past every restored list's length.
	writes := synthQueryProfiles(450, 2, 77)
	for i := range writes[:300] {
		writes[i].Add("extra", fmt.Sprintf("tok%d word%d fresh%d", i%12, i%8, i%5))
	}
	const queries = 400
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < queries/4; i++ {
				restored.Resolve(&base[(g*97+i)%len(base)])
			}
		}(g)
	}
	upsertAll(t, restored, writes)
	wg.Wait()

	upsertAll(t, orig, writes)
	for i := 0; i < queries; i++ {
		orig.Query(&base[i%len(base)]) // level the query counter the image carries
	}
	encodesEqual(t, "after writes", orig, restored)
}

// TestParentImageReloadsByteIdentical: the byte format did not move. An
// image written by the encoder this build shares with its parent decodes,
// and re-encodes to the same bytes — clean and dirty, and without bags
// (custom measure). The legacy LSH images, written by an older build,
// re-encode to exactly the image the same collection builds fresh: the
// section is all they lose.
func TestParentImageReloadsByteIdentical(t *testing.T) {
	custom := DefaultConfig()
	custom.Measure = matching.JaccardMeasure(custom.Tokenizer)
	for name, cfg := range map[string]Config{
		"default":        DefaultConfig(),
		"custom measure": custom,
	} {
		for _, clean := range []bool{false, true} {
			x := New(clean, cfg)
			upsertAll(t, x, randomProfiles(5, 120))
			upsertAll(t, x, randomProfiles(6, 40)) // overwrites: churned list order
			image := encodePinned(t, x)
			y, err := Decode(bytes.NewReader(image), cfg)
			if err != nil {
				t.Fatalf("%s clean=%v: %v", name, clean, err)
			}
			if !bytes.Equal(encodePinned(t, y), image) {
				t.Fatalf("%s clean=%v: re-encoded image differs", name, clean)
			}
		}
	}
	for _, clean := range []bool{false, true} {
		fresh := encodePinned(t, legacyFresh(t, clean, DefaultConfig()))
		if !bytes.Equal(encodePinned(t, legacyDecode(t, clean, DefaultConfig())), fresh) {
			t.Fatalf("legacy LSH image clean=%v: re-encoded image differs from the fresh build's", clean)
		}
	}
}

// TestDecodeReportsStreamError: a reader that fails mid-stream surfaces
// its error instead of a misleading truncation.
func TestDecodeReportsStreamError(t *testing.T) {
	boom := errors.New("boom")
	valid := encodeToBytes(t, smallTestIndex(t, false))
	r := io.MultiReader(bytes.NewReader(valid[:len(valid)/2]), errReader{boom})
	if _, err := Decode(r, DefaultConfig()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the stream's own error", err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// clusterOffsets walks a valid image without an LSH section and returns
// the offsets of two cluster varints: the first profile's first key's
// and the first posting's.
func clusterOffsets(t testing.TB, image []byte) (key, posting int) {
	t.Helper()
	c := cursor{b: image, s: string(image), off: len(snapshotMagic)}
	var header [10]uint64 // version, then the nine header fields
	for i := range header {
		header[i], _ = c.uvarint()
	}
	c.byte() // LSH presence byte
	key = -1
	for i := uint64(0); i < header[8]; i++ {
		c.uvarint() // ID
		c.byte()    // source
		c.string()  // original ID
		nAttrs, _ := c.uvarint()
		for j := uint64(0); j < 2*nAttrs; j++ {
			c.string()
		}
		nKeys, _ := c.uvarint()
		for j := uint64(0); j < nKeys; j++ {
			c.string()
			if key < 0 {
				key = c.off
			}
			c.varint()
		}
		if hasBag, _ := c.byte(); hasBag == 1 {
			nBag, _ := c.uvarint()
			for j := uint64(0); j < nBag; j++ {
				c.string()
			}
		}
	}
	for posting = -1; posting < 0 && c.rest() > 4; {
		if n, _ := c.uvarint(); n > 0 {
			c.string()
			posting = c.off
		}
	}
	for _, off := range []int{key, posting} {
		if v, n := binary.Varint(image[max(off, 0):]); off < 0 || n != 1 || v != blocking.NoCluster {
			t.Fatalf("cluster offsets %d, %d: not a NoCluster varint", key, posting)
		}
	}
	return key, posting
}

// looseSchemaImages are two copies of a valid default image, each with
// one cluster varint set to 0 and its CRC recomputed, which is what a
// loose-schema image holds there: the first profile's first key's in
// badKey, the first posting's in badPosting.
func looseSchemaImages(t testing.TB, clean bool) (badKey, badPosting []byte) {
	t.Helper()
	image := encodeToBytes(t, smallTestIndex(t, clean))
	keyOff, postingOff := clusterOffsets(t, image)
	badKey = append([]byte(nil), image...)
	badKey[keyOff] = 0 // zigzag varint 0
	badPosting = image
	badPosting[postingOff] = 0
	return reseal(badKey), reseal(badPosting)
}

// refusesLooseSchema asserts that Decode and Load both fail image with
// the error that names a loose-schema image.
func refusesLooseSchema(t *testing.T, image []byte) {
	t.Helper()
	if _, err := Decode(bytes.NewReader(image), DefaultConfig()); !errors.Is(err, errLooseSchema) {
		t.Fatalf("Decode: err = %v, want a loose-schema refusal", err)
	}
	path := filepath.Join(t.TempDir(), "loose.snap")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, DefaultConfig()); !errors.Is(err, errLooseSchema) {
		t.Fatalf("Load: err = %v, want a loose-schema refusal", err)
	}
}

// TestDecodeRefusesKeyCluster: a stored key under attribute cluster 0 is
// a loose-schema key, which no query of this index derives.
func TestDecodeRefusesKeyCluster(t *testing.T) {
	for _, clean := range []bool{false, true} {
		badKey, _ := looseSchemaImages(t, clean)
		refusesLooseSchema(t, badKey)
	}
}

// TestDecodeRefusesPostingCluster: a posting under attribute cluster 0
// would load as a posting that no query can reach.
func TestDecodeRefusesPostingCluster(t *testing.T) {
	for _, clean := range []bool{false, true} {
		_, badPosting := looseSchemaImages(t, clean)
		refusesLooseSchema(t, badPosting)
	}
}
