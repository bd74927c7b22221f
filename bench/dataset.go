package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"sparker/internal/datagen"
	"sparker/internal/loader"
	"sparker/internal/profile"
)

// Dataset is one seeded SynthAbtBuy collection as the programs under
// test see it: two CSV files on disk, plus the ground truth the harness
// keeps to itself. Everything in-process (the batch pipeline, the
// reference index, the layer probe) works on the collection read back
// from those files, so the harness and the servers index exactly the
// same bytes.
type Dataset struct {
	PathA      string
	PathB      string
	Collection *profile.Collection
	// A and B alias the collection's two sources.
	A, B []profile.Profile
	// GroundTruth pairs are [A-original, B-original].
	GroundTruth [][2]string
	// truthOfB maps a B-side original ID to its true A-side matches.
	truthOfB map[string][]string
}

// WriteDataset generates AbtBuy().Scaled(k) from the seed and writes
// a.csv and b.csv under dir. It does not load them: LoadCollection is
// the part a workload may want to time.
func WriteDataset(dir string, k int, seed int64) (*Dataset, error) {
	cfg := datagen.AbtBuy().Scaled(k)
	cfg.Seed = seed
	gen := datagen.Generate(cfg)
	sep := int(gen.Collection.Separator)
	d := &Dataset{
		PathA:       filepath.Join(dir, "a.csv"),
		PathB:       filepath.Join(dir, "b.csv"),
		GroundTruth: gen.GroundTruth,
		truthOfB:    map[string][]string{},
	}
	for _, gt := range gen.GroundTruth {
		d.truthOfB[gt[1]] = append(d.truthOfB[gt[1]], gt[0])
	}
	if err := writeCSV(d.PathA, gen.Collection.Profiles[:sep]); err != nil {
		return nil, err
	}
	if err := writeCSV(d.PathB, gen.Collection.Profiles[sep:]); err != nil {
		return nil, err
	}
	return d, nil
}

// LoadCollection reads the two CSV files back the way sparker-serve
// -a/-b does.
func (d *Dataset) LoadCollection() error {
	a, err := loader.ReadProfilesCSVFile(d.PathA, "id")
	if err != nil {
		return err
	}
	b, err := loader.ReadProfilesCSVFile(d.PathB, "id")
	if err != nil {
		return err
	}
	d.Collection = profile.NewCleanClean(a, b)
	sep := int(d.Collection.Separator)
	d.A, d.B = d.Collection.Profiles[:sep], d.Collection.Profiles[sep:]
	return nil
}

func writeCSV(path string, ps []profile.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := loader.WriteProfilesCSV(f, ps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileJSON renders a profile in the servers' JSON-lines wire format,
// with extra attributes appended (the overwrite op's "note").
func profileJSON(p *profile.Profile, extra ...profile.KeyValue) []byte {
	rec := map[string]any{"id": p.OriginalID}
	add := func(kv profile.KeyValue) {
		switch old := rec[kv.Key].(type) {
		case nil:
			rec[kv.Key] = kv.Value
		case string:
			rec[kv.Key] = []string{old, kv.Value}
		case []string:
			rec[kv.Key] = append(old, kv.Value)
		}
	}
	for _, kv := range p.Attributes {
		add(kv)
	}
	for _, kv := range extra {
		add(kv)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rec); err != nil {
		panic(fmt.Sprintf("bench: encoding a map of strings: %v", err)) // cannot fail
	}
	return buf.Bytes()
}

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opOverwrite
	// opNull is GET /healthz: a round trip through the same connections
	// with next to nothing behind it.
	opNull
)

func (k opKind) write() bool { return k == opInsert || k == opOverwrite }

// Op is one request of a workload's stream.
type Op struct {
	Kind opKind
	Path string
	Body []byte
	// Key is the original ID of the queried B record or the written A
	// record.
	Key string
}

const (
	queryPath  = "/v1/query?source=1"
	upsertPath = "/v1/upsert?source=0"
	nullPath   = "/healthz?"
)

// queryStream yields every source-B record as a query, in one seeded
// shuffle, wrapping around when more ops are asked for than B holds.
type queryStream struct {
	ops  []Op
	next int
}

func newQueryStream(d *Dataset, rng *rand.Rand) *queryStream {
	s := &queryStream{ops: make([]Op, len(d.B))}
	for i, j := range rng.Perm(len(d.B)) {
		p := &d.B[j]
		s.ops[i] = Op{Kind: opQuery, Path: queryPath, Body: profileJSON(p), Key: p.OriginalID}
	}
	return s
}

func (s *queryStream) one() Op {
	op := s.ops[s.next%len(s.ops)]
	s.next++
	return op
}

func (s *queryStream) take(n int) []Op {
	out := make([]Op, n)
	for i := range out {
		out[i] = s.one()
	}
	return out
}

// mixedStream is the serve-mixed op stream: 60 % B-side queries, 25 %
// inserts of held-out A records, 15 % overwrites of A records present
// at boot (the stored record plus a "note" of three tokens taken from
// another A record).
type mixedStream struct {
	d       *Dataset
	rng     *rand.Rand
	queries *queryStream
	// present and heldOut split A: the leader boots with present.
	present, heldOut []int
	nextInsert       int
	nextOverwrite    int
}

func newMixedStream(d *Dataset, rng *rand.Rand) *mixedStream {
	perm := rng.Perm(len(d.A))
	third := len(d.A) / 3
	return &mixedStream{
		d: d, rng: rng,
		queries: newQueryStream(d, rng),
		present: perm[:third], heldOut: perm[third:],
	}
}

// rewind makes the stream hand out the held-out inserts and the
// overwrite targets from the start again: every round boots the leader
// from the same files, so every round may insert the same records.
func (m *mixedStream) rewind() { m.nextInsert, m.nextOverwrite = 0, 0 }

// bootA returns the A records the leader is booted with.
func (m *mixedStream) bootA() []profile.Profile {
	out := make([]profile.Profile, len(m.present))
	for i, j := range m.present {
		out[i] = m.d.A[j]
	}
	return out
}

func (m *mixedStream) take(n int) ([]Op, error) {
	out := make([]Op, n)
	for i := range out {
		switch r := m.rng.Float64(); {
		case r < 0.60:
			out[i] = m.queries.one()
		case r < 0.85:
			if m.nextInsert == len(m.heldOut) {
				return nil, fmt.Errorf("bench: one round needs more than the %d held-out A records; lower -seconds", len(m.heldOut))
			}
			p := &m.d.A[m.heldOut[m.nextInsert]]
			m.nextInsert++
			out[i] = Op{Kind: opInsert, Path: upsertPath, Body: profileJSON(p), Key: p.OriginalID}
		default:
			p := &m.d.A[m.present[m.nextOverwrite%len(m.present)]]
			m.nextOverwrite++
			out[i] = Op{Kind: opOverwrite, Path: upsertPath, Body: profileJSON(p, m.note()), Key: p.OriginalID}
		}
	}
	return out, nil
}

// note builds the overwrite's extra attribute from another A record's
// first three name tokens, so the write moves real blocking keys.
func (m *mixedStream) note() profile.KeyValue {
	donor := &m.d.A[m.rng.Intn(len(m.d.A))]
	words := strings.Fields(donor.Value("name"))
	if len(words) > 3 {
		words = words[:3]
	}
	return profile.KeyValue{Key: "note", Value: strings.Join(words, " ")}
}
