package loader

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sparker/internal/blocking"
	"sparker/internal/clustering"
	"sparker/internal/profile"
)

func TestReadProfilesCSV(t *testing.T) {
	csv := "id,name,price\n1,acme widget,9.99\n2,zenix gadget,\n"
	ps, err := ReadProfilesCSV(strings.NewReader(csv), "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("profiles: %d", len(ps))
	}
	if ps[0].OriginalID != "1" || ps[0].Value("name") != "acme widget" || ps[0].Value("price") != "9.99" {
		t.Fatalf("first profile: %v", ps[0])
	}
	// Empty cell skipped.
	if ps[1].Value("price") != "" || len(ps[1].Attributes) != 1 {
		t.Fatalf("second profile: %v", ps[1])
	}
}

func TestReadProfilesCSVNoIDColumn(t *testing.T) {
	csv := "name\nwidget\ngadget\n"
	ps, err := ReadProfilesCSV(strings.NewReader(csv), "")
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].OriginalID != "row-0" || ps[1].OriginalID != "row-1" {
		t.Fatalf("ids: %q %q", ps[0].OriginalID, ps[1].OriginalID)
	}
}

func TestReadProfilesCSVMissingIDColumnErrors(t *testing.T) {
	if _, err := ReadProfilesCSV(strings.NewReader("a,b\n1,2\n"), "id"); err == nil {
		t.Fatal("want error for missing id column")
	}
}

func TestReadProfilesCSVRaggedRows(t *testing.T) {
	csv := "id,name,extra\n1,widget\n"
	ps, err := ReadProfilesCSV(strings.NewReader(csv), "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Value("name") != "widget" {
		t.Fatalf("%v", ps)
	}
}

func TestReadProfilesJSONL(t *testing.T) {
	data := `{"id": "x1", "name": "widget", "tags": ["a", "b"]}
{"id": "x2", "name": "gadget"}`
	ps, err := ReadProfilesJSONL(strings.NewReader(data), "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].OriginalID != "x1" {
		t.Fatalf("%v", ps)
	}
	// Array values become repeated attributes.
	count := 0
	for _, kv := range ps[0].Attributes {
		if kv.Key == "tags" {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("tags attributes: %d", count)
	}
}

// TestReadProfilesJSONLNumbersKeepTheirText: a JSON number is stored in
// the digits it was written with, as an id and as an attribute value, so
// it names the same profile as a CSV cell and ids past 2^53 (where
// float64 stops telling neighbours apart) stay distinct.
func TestReadProfilesJSONLNumbersKeepTheirText(t *testing.T) {
	data := `{"id": 1234567, "price": 1000000, "sizes": [10, 2.50]}
{"id": "1234567"}
{"id": 9007199254740992}
{"id": 9007199254740993}`
	ps, err := ReadProfilesJSONL(strings.NewReader(data), "id")
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].OriginalID != "1234567" || ps[0].OriginalID != ps[1].OriginalID {
		t.Fatalf("number and string spellings of one id: %q and %q", ps[0].OriginalID, ps[1].OriginalID)
	}
	if ps[2].OriginalID != "9007199254740992" || ps[3].OriginalID != "9007199254740993" {
		t.Fatalf("ids past 2^53: %q and %q", ps[2].OriginalID, ps[3].OriginalID)
	}
	want := []profile.KeyValue{{Key: "price", Value: "1000000"}, {Key: "sizes", Value: "10"}, {Key: "sizes", Value: "2.50"}}
	if !reflect.DeepEqual(ps[0].Attributes, want) {
		t.Fatalf("attributes %v, want %v", ps[0].Attributes, want)
	}
	csv, err := ReadProfilesCSV(strings.NewReader("id,price\n1234567,1000000\n"), "id")
	if err != nil {
		t.Fatal(err)
	}
	if csv[0].OriginalID != ps[0].OriginalID || csv[0].Attributes[0] != ps[0].Attributes[0] {
		t.Fatalf("CSV row %+v and JSONL record %+v disagree", csv[0], ps[0])
	}
}

// TestReadProfilesJSONLAttributeOrder: one record always decodes to the
// same attribute order (sorted by key), not to the order a Go map yields.
func TestReadProfilesJSONLAttributeOrder(t *testing.T) {
	record := `{"zeta": "z", "id": "r", "alpha": "a", "mid": ["m1", "m2"], "beta": "b", "omega": "o", "gamma": "g", "delta": "d"}`
	var first []profile.KeyValue
	for i := 0; i < 20; i++ {
		ps, err := ReadProfilesJSONL(strings.NewReader(record), "id")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = ps[0].Attributes
			keys := make([]string, len(first))
			for j, kv := range first {
				keys[j] = kv.Key
			}
			if !sort.StringsAreSorted(keys) || len(keys) != 8 {
				t.Fatalf("attribute keys %v: want all eight, sorted", keys)
			}
			continue
		}
		if !reflect.DeepEqual(ps[0].Attributes, first) {
			t.Fatalf("decode %d gave %v, the first gave %v", i, ps[0].Attributes, first)
		}
	}
}

func TestReadProfilesJSONLBadInput(t *testing.T) {
	if _, err := ReadProfilesJSONL(strings.NewReader("{not json"), "id"); err == nil {
		t.Fatal("want error")
	}
}

func TestReadGroundTruthCSV(t *testing.T) {
	data := "idAbt,idBuy\na1,b1\na2,b2\n"
	gt, err := ReadGroundTruthCSV(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"a1", "b1"}, {"a2", "b2"}}
	if !reflect.DeepEqual(gt, want) {
		t.Fatalf("gt=%v", gt)
	}
}

func TestReadGroundTruthCSVNoHeader(t *testing.T) {
	data := "1,17\n2,18\n"
	gt, err := ReadGroundTruthCSV(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(gt) != 2 || gt[0] != [2]string{"1", "17"} {
		t.Fatalf("gt=%v", gt)
	}
}

func TestWriteEntitiesCSV(t *testing.T) {
	a := []profile.Profile{{OriginalID: "a1"}, {OriginalID: "a2"}}
	b := []profile.Profile{{OriginalID: "b1"}}
	c := profile.NewCleanClean(a, b)
	entities := []clustering.Entity{{ID: 0, Profiles: []profile.ID{0, 2}}}
	var buf bytes.Buffer
	if err := WriteEntitiesCSV(&buf, c, entities); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"entity,source,original_id", "e0,0,a1", "e0,1,b1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCandidatePairsExport(t *testing.T) {
	a := []profile.Profile{{OriginalID: "a1"}, {OriginalID: "a2"}}
	b := []profile.Profile{{OriginalID: "b1"}}
	c := profile.NewCleanClean(a, b)
	var buf bytes.Buffer
	pairs := []blocking.Pair{{A: 0, B: 2}, {A: 1, B: 2}}
	if err := WriteCandidatePairsCSV(&buf, c, pairs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"id_a,id_b", "a1,b1", "a2,b1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestReadMatchesCSV(t *testing.T) {
	a := []profile.Profile{{OriginalID: "a1"}, {OriginalID: "a2"}}
	b := []profile.Profile{{OriginalID: "b1"}}
	c := profile.NewCleanClean(a, b)
	data := "id_a,id_b,score\na1,b1,0.87\na2,b1\n"
	matches, err := ReadMatchesCSV(strings.NewReader(data), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("matches: %v", matches)
	}
	if matches[0].A != 0 || matches[0].B != 2 || matches[0].Score != 0.87 {
		t.Fatalf("first match: %+v", matches[0])
	}
	if matches[1].Score != 1.0 {
		t.Fatalf("default score: %+v", matches[1])
	}
}

func TestReadMatchesCSVErrors(t *testing.T) {
	c := profile.NewCleanClean([]profile.Profile{{OriginalID: "a1"}}, []profile.Profile{{OriginalID: "b1"}})
	if _, err := ReadMatchesCSV(strings.NewReader("h1,h2\nunknown,b1\n"), c); err == nil {
		t.Fatal("want error for unknown profile")
	}
	if _, err := ReadMatchesCSV(strings.NewReader("h1,h2,s\na1,b1,notanumber\n"), c); err == nil {
		t.Fatal("want error for bad score")
	}
	if _, err := ReadMatchesCSV(strings.NewReader(""), c); err == nil {
		t.Fatal("want error for missing header")
	}
}

func TestMatchesRoundTripThroughExternalTool(t *testing.T) {
	// Export candidates, "match" them externally (echo with scores), and
	// import the result — the external-matcher hand-off of the paper.
	a := []profile.Profile{{OriginalID: "a1"}}
	b := []profile.Profile{{OriginalID: "b1"}}
	c := profile.NewCleanClean(a, b)
	var buf bytes.Buffer
	if err := WriteCandidatePairsCSV(&buf, c, []blocking.Pair{{A: 0, B: 1}}); err != nil {
		t.Fatal(err)
	}
	// Simulate the external matcher by appending a score column.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	scored := lines[0] + ",score\n" + lines[1] + ",0.9\n"
	matches, err := ReadMatchesCSV(strings.NewReader(scored), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Score != 0.9 {
		t.Fatalf("round trip: %v", matches)
	}
}

func TestWriteProfilesCSVRoundTrip(t *testing.T) {
	var p1, p2 profile.Profile
	p1.OriginalID = "x"
	p1.Add("name", "widget")
	p1.Add("price", "9.99")
	p2.OriginalID = "y"
	p2.Add("name", "gadget")

	var buf bytes.Buffer
	if err := WriteProfilesCSV(&buf, []profile.Profile{p1, p2}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfilesCSV(&buf, "id")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Value("name") != "widget" || back[0].Value("price") != "9.99" {
		t.Fatalf("round trip: %v", back)
	}
	if back[1].Value("price") != "" {
		t.Fatalf("missing value resurfaced: %v", back[1])
	}
}
