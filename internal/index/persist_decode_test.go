package index

// Pins around the in-place snapshot decoder (one buffer, one CRC pass,
// substrings, one attribute slab, then the build) and the one token list
// under the write path: what they must equal, what they must still
// reject, and what they may allocate.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sparker/internal/core"
	"sparker/internal/matching"
	"sparker/internal/profile"
)

// distinctBag is one reference the write path's token list is checked
// against: the profile tokenised on its own by the matcher's ProfileBag,
// then deduplicated in first-occurrence order — how the index derived
// the bag its default Jaccard scores before that bag and the keys became
// one list.
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

// TestKeysAndBagMatchReferences: a profile's one token list is exactly
// the key strings blocking's KeysOf yields and exactly the bag the
// separate tokenisation used to — order, duplicates and nil-ness
// included (a token-less profile stores a nil list). The image holds
// neither the list nor anything of the scoring config: the same writes
// under Dice encode to the same bytes, and a restored index re-derives
// every list.
func TestKeysAndBagMatchReferences(t *testing.T) {
	x := New(true, DefaultConfig())
	tokenless := 0
	for _, p := range randomProfiles(20260424, 400) {
		p := p
		tokens := x.tokensOf(&p)
		var keys []string
		for _, kt := range x.opts.KeysOf(&p) {
			keys = append(keys, kt.Key)
		}
		if !reflect.DeepEqual(tokens, keys) {
			t.Fatalf("%+v: tokens %v, want the keys %v", p, tokens, keys)
		}
		want := distinctBag(&p, x.cfg)
		if !reflect.DeepEqual(tokens, want) { // DeepEqual tells nil from empty
			t.Fatalf("%+v: tokens %#v, want the bag %#v", p, tokens, want)
		}
		if want == nil {
			tokenless++
		}
		id, _, err := x.Upsert(p)
		if err != nil {
			t.Fatal(err)
		}
		if sp := x.byID[id]; !reflect.DeepEqual(sp.tokens, tokens) {
			t.Fatalf("%+v: stored tokens differ from the derivation", p)
		}
	}
	if tokenless == 0 {
		t.Fatal("fixture drew no token-less profile")
	}
	image := encodePinned(t, x)
	restored, err := Decode(bytes.NewReader(image), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, "restored", x, restored)

	dice := DefaultConfig()
	dice.Measure = core.MeasureDice
	y := New(true, dice)
	upsertAll(t, y, randomProfiles(20260424, 400))
	if !bytes.Equal(encodePinned(t, y), image) {
		t.Fatal("the Dice index encodes other bytes than the Jaccard one")
	}
}

// TestLoadAllocs pins the slabs and the struct-keyed identity map: Load
// of a 2000-profile snapshot, a decode plus a build, makes fewer
// allocations than it has profiles (strings are substrings of the image,
// attribute and token runs, stored profiles and posting lists are all
// carved, and an identity is a map key by value). The per-item decoder
// made about 76 per profile.
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
	if perProfile := allocs / n; perProfile >= 1 {
		t.Fatalf("Load made %.0f allocations, %.2f per profile; want under 1", allocs, perProfile)
	}
}

// craftedSnapshot frames a header plus body the way the encoder would,
// CRC included, so only the decoder's own validation can refuse it.
func craftedSnapshot(numProfiles uint64, body func(cw *crcWriter)) []byte {
	var out bytes.Buffer
	cw := &crcWriter{w: &out}
	craftedHeader(cw, numProfiles)
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

// craftedHeader writes a dirty header.
func craftedHeader(cw *crcWriter, numProfiles uint64) {
	cw.bytes([]byte(snapshotMagic))
	cw.uvarint(snapshotVersion)
	cw.byte(0)              // dirty
	cw.varint(0)            // savedAt
	cw.uvarint(numProfiles) // nextID
	cw.uvarint(0)           // queries
	cw.uvarint(0)           // upserts
	cw.uvarint(0)           // seq
	cw.uvarint(numProfiles)
}

// lyingCountSnapshots are inputs whose counts or lengths claim more than
// the input supplies, one per count the decoder sizes a slice or a slab
// from, and one string length. Most are 64 bytes claiming far more than
// 64 bytes can hold. "profiles in 128 KiB" claims a profile count its
// bytes could hold, three bytes a record, but its first record is
// corrupt: a decoder that sized its profiles from that count would
// allocate about 19× the input before reading a record.
func lyingCountSnapshots() map[string][]byte {
	const huge = 1 << 30
	const big = 128 << 10
	fits := craftedSnapshot(big/minRecordBytes-64, func(cw *crcWriter) {
		cw.byte(2) // no task has source 2
	})
	return map[string][]byte{
		"profiles":            craftedSnapshot(huge, nil),
		"profiles in 128 KiB": append(fits, make([]byte, big-len(fits))...),
		"attributes": craftedSnapshot(1, func(cw *crcWriter) {
			cw.bytes(appendString([]byte{0}, "p")) // source, original ID
			cw.uvarint(maxSnapshotItems)
		}),
		"original ID": craftedSnapshot(1, func(cw *crcWriter) {
			cw.byte(0) // source
			cw.uvarint(huge)
		}),
	}
}

// TestDecodeHardening pins what the in-place decoder must keep refusing:
// every proper prefix of a valid snapshot (clean, dirty, and churned by
// overwrites), every single-byte corruption
// (by the CRC or by validation — and without panicking), and counts the
// remaining bytes cannot hold, refused before anything is sized from
// them. The trailing-byte refusal is TestDecodeRejectsTrailingBytes.
func TestDecodeHardening(t *testing.T) {
	cfg := DefaultConfig()
	valids := [][]byte{
		encodeToBytes(t, smallTestIndex(t, true)),
		encodeToBytes(t, smallTestIndex(t, false)),
		encodeToBytes(t, churnedTestIndex(t, true)),
	}
	for _, valid := range valids {
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(in), cfg)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: lying count accepted", name)
		}
		// An empty index and its error cost a few tens of KiB, reading
		// and copying a 128 KiB input a few hundred more; one slab or map
		// sized from a claimed count would be MiBs to hundreds of MiB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing a %d-byte input allocated %d bytes (err: %v)", name, len(in), grew, err)
		}
	}
}

// TestRestoredSlabsDoNotAlias: restored posting lists, profiles and their
// attribute and token runs are neighbours in shared slabs. Writes that
// append to restored postings, shrink them, and overwrite restored
// profiles — with Resolve running beside them — must leave everything
// they did not touch as it was: the restored index stays in the state of
// the never-saved original taken through the same writes.
func TestRestoredSlabsDoNotAlias(t *testing.T) {
	cfg := DefaultConfig()
	orig := New(true, cfg)
	base := synthQueryProfiles(300, 2, 13)
	upsertAll(t, orig, base)
	restored, err := Decode(bytes.NewReader(encodeToBytes(t, orig)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, "before writes", orig, restored)

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
	sameState(t, "after writes", orig, restored)
}

// TestParentImageReloadsByteIdentical: an image decodes and re-encodes
// to the same bytes — clean and dirty, after overwrites that churn the
// list order, and under Dice as under the default Jaccard.
func TestParentImageReloadsByteIdentical(t *testing.T) {
	dice := DefaultConfig()
	dice.Measure = core.MeasureDice
	for name, cfg := range map[string]Config{
		"default": DefaultConfig(),
		"dice":    dice,
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
