// Package loader reads entity profiles and ground truths from CSV and
// JSON-lines files (the Entity Profiles Loading stage of Figure 3) and
// writes resolved entities back out.
package loader

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"sparker/internal/blocking"
	"sparker/internal/clustering"
	"sparker/internal/matching"
	"sparker/internal/profile"
)

// ReadProfilesCSV parses one source dataset from CSV. The first row is the
// header; idColumn names the column holding the record identifier (pass ""
// to use row numbers). Every other column becomes an attribute; empty
// cells are skipped.
func ReadProfilesCSV(r io.Reader, idColumn string) ([]profile.Profile, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("loader: reading CSV header: %w", err)
	}
	idIdx := -1
	for i, h := range header {
		if idColumn != "" && strings.EqualFold(strings.TrimSpace(h), idColumn) {
			idIdx = i
		}
	}
	if idColumn != "" && idIdx < 0 {
		return nil, fmt.Errorf("loader: id column %q not found in header %v", idColumn, header)
	}
	var out []profile.Profile
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("loader: reading CSV row %d: %w", row+2, err)
		}
		p := profile.Profile{}
		if idIdx >= 0 && idIdx < len(rec) {
			p.OriginalID = strings.TrimSpace(rec[idIdx])
		} else {
			p.OriginalID = fmt.Sprintf("row-%d", row)
		}
		for i, cell := range rec {
			if i == idIdx || i >= len(header) {
				continue
			}
			p.Add(strings.TrimSpace(header[i]), cell)
		}
		out = append(out, p)
		row++
	}
	return out, nil
}

// ReadProfilesCSVFile is ReadProfilesCSV over a file path.
func ReadProfilesCSVFile(path, idColumn string) ([]profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	defer f.Close()
	return ReadProfilesCSV(f, idColumn)
}

// jsonProfile is the JSON-lines wire format: {"id": "...", "attr": "v"} or
// {"id": "...", "attr": ["v1", "v2"]}.
type jsonProfile map[string]any

// JSONText is the text a profile stores for one decoded JSON-lines value,
// an id or an attribute value alike. The decoders of this format read
// numbers with UseNumber, so a number keeps the digits it was written
// with: {"id": 1234567} names the same profile as the CSV cell 1234567
// (a float64 round trip printed 1.234567e+06), ids beyond 2^53 stay
// distinct, and 1000000 is tokenised as written. The shard coordinator
// routes a record by exactly this text of its id.
func JSONText(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprint(v)
}

// ReadProfilesJSONL parses one source dataset from JSON-lines. idField
// names the identifier key (default "id"). Attributes are added in
// sorted key order, so one body always decodes to the same profile (and
// the same snapshot and op-log bytes), whatever order a map yields.
func ReadProfilesJSONL(r io.Reader, idField string) ([]profile.Profile, error) {
	if idField == "" {
		idField = "id"
	}
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var out []profile.Profile
	var keys []string
	row := 0
	for dec.More() {
		var jp jsonProfile
		if err := dec.Decode(&jp); err != nil {
			return nil, fmt.Errorf("loader: JSONL record %d: %w", row+1, err)
		}
		p := profile.Profile{OriginalID: fmt.Sprintf("row-%d", row)}
		if v, ok := jp[idField]; ok {
			p.OriginalID = JSONText(v)
		}
		keys = keys[:0]
		for k := range jp {
			if k != idField {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch vv := jp[k].(type) {
			case []any:
				for _, item := range vv {
					p.Add(k, JSONText(item))
				}
			default:
				p.Add(k, JSONText(vv))
			}
		}
		out = append(out, p)
		row++
	}
	return out, nil
}

// ReadGroundTruthCSV parses a two-column CSV of (idA, idB) true matches;
// a header row is skipped when its cells do not reappear as data.
func ReadGroundTruthCSV(r io.Reader) ([][2]string, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var out [][2]string
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("loader: reading ground truth: %w", err)
		}
		if len(rec) < 2 {
			continue
		}
		if first {
			first = false
			// Heuristic header detection: typical headers name the columns.
			lower := strings.ToLower(rec[0] + " " + rec[1])
			if strings.Contains(lower, "id") && !strings.ContainsAny(rec[0], "0123456789") {
				continue
			}
		}
		out = append(out, [2]string{strings.TrimSpace(rec[0]), strings.TrimSpace(rec[1])})
	}
	return out, nil
}

// ReadGroundTruthCSVFile is ReadGroundTruthCSV over a file path.
func ReadGroundTruthCSVFile(path string) ([][2]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	defer f.Close()
	return ReadGroundTruthCSV(f)
}

// WriteEntitiesCSV writes resolved entities as (entityID, source,
// originalID) rows.
func WriteEntitiesCSV(w io.Writer, c *profile.Collection, entities []clustering.Entity) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"entity", "source", "original_id"}); err != nil {
		return fmt.Errorf("loader: writing entities: %w", err)
	}
	for _, e := range entities {
		for _, id := range e.Profiles {
			p := c.Get(id)
			if err := cw.Write([]string{
				fmt.Sprintf("e%d", e.ID),
				fmt.Sprintf("%d", p.SourceID),
				p.OriginalID,
			}); err != nil {
				return fmt.Errorf("loader: writing entities: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCandidatePairsCSV exports the blocker's candidate pairs as
// (originalA, originalB) rows. The paper notes that "any existing tool
// can be used" for entity matching; this is the hand-off format for
// matching the candidates with an external matcher.
func WriteCandidatePairsCSV(w io.Writer, c *profile.Collection, pairs []blocking.Pair) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"id_a", "id_b"}); err != nil {
		return fmt.Errorf("loader: writing candidate pairs: %w", err)
	}
	for _, p := range pairs {
		if err := cw.Write([]string{c.Get(p.A).OriginalID, c.Get(p.B).OriginalID}); err != nil {
			return fmt.Errorf("loader: writing candidate pairs: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadMatchesCSV imports externally matched pairs with scores as
// (originalA, originalB, score) rows, resolving them against the
// collection. A header row is expected.
func ReadMatchesCSV(r io.Reader, c *profile.Collection) ([]matching.Match, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	lookup := map[string]profile.ID{}
	for i := range c.Profiles {
		p := &c.Profiles[i]
		lookup[fmt.Sprintf("%d|%s", p.SourceID, p.OriginalID)] = p.ID
	}
	resolve := func(id string) (profile.ID, bool) {
		if v, ok := lookup["0|"+id]; ok {
			return v, true
		}
		v, ok := lookup["1|"+id]
		return v, ok
	}
	if _, err := cr.Read(); err != nil { // header
		return nil, fmt.Errorf("loader: reading matches header: %w", err)
	}
	var out []matching.Match
	row := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("loader: reading matches row %d: %w", row+1, err)
		}
		if len(rec) < 2 {
			continue
		}
		a, okA := resolve(strings.TrimSpace(rec[0]))
		b, okB := resolve(strings.TrimSpace(rec[1]))
		if !okA || !okB {
			return nil, fmt.Errorf("loader: matches row %d references unknown profile", row+1)
		}
		score := 1.0
		if len(rec) >= 3 {
			if _, err := fmt.Sscanf(strings.TrimSpace(rec[2]), "%g", &score); err != nil {
				return nil, fmt.Errorf("loader: matches row %d has bad score %q", row+1, rec[2])
			}
		}
		out = append(out, matching.Match{A: a, B: b, Score: score})
		row++
	}
	return out, nil
}

// WriteProfilesCSV writes profiles with the union of attribute names as
// columns (used to export generated datasets for external tools).
func WriteProfilesCSV(w io.Writer, profiles []profile.Profile) error {
	var cols []string
	seen := map[string]bool{}
	for i := range profiles {
		for _, kv := range profiles[i].Attributes {
			if !seen[kv.Key] {
				seen[kv.Key] = true
				cols = append(cols, kv.Key)
			}
		}
	}
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write(append([]string{"id"}, cols...)); err != nil {
		return fmt.Errorf("loader: writing profiles: %w", err)
	}
	for i := range profiles {
		p := &profiles[i]
		row := make([]string, 1+len(cols))
		row[0] = p.OriginalID
		for j, col := range cols {
			row[j+1] = p.Value(col)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("loader: writing profiles: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
