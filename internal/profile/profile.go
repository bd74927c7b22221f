// Package profile defines the entity-profile data model used across the
// whole SparkER stack: a profile is a bag of attribute/value pairs with an
// internal dense ID, and a collection groups the profiles of one ER task
// (either a single "dirty" dataset with internal duplicates or a
// "clean-clean" pair of duplicate-free sources).
package profile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// KeyValue is one attribute of a profile.
type KeyValue struct {
	Key   string
	Value string
}

// ID is the dense internal identifier of a profile. In clean-clean tasks
// profiles of the first source occupy [0, separator) and profiles of the
// second source occupy [separator, n), mirroring SparkER's ID layout.
type ID = int32

// Profile is one record to resolve.
type Profile struct {
	ID         ID
	OriginalID string     // identifier in the source dataset
	SourceID   int        // 0 for the first (or only) source, 1 for the second
	Attributes []KeyValue // possibly repeated keys, source order preserved
}

// Value returns the first value of the named attribute, or "".
func (p *Profile) Value(key string) string {
	for _, kv := range p.Attributes {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// Add appends an attribute, dropping empty values.
func (p *Profile) Add(key, value string) {
	value = strings.TrimSpace(value)
	if value == "" {
		return
	}
	p.Attributes = append(p.Attributes, KeyValue{Key: key, Value: value})
}

// AttributeNames returns the distinct attribute keys in first-seen order.
func (p *Profile) AttributeNames() []string {
	seen := make(map[string]bool, len(p.Attributes))
	var out []string
	for _, kv := range p.Attributes {
		if !seen[kv.Key] {
			seen[kv.Key] = true
			out = append(out, kv.Key)
		}
	}
	return out
}

// String renders the profile for debug output.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d(%s src%d){", p.ID, p.OriginalID, p.SourceID)
	for i, kv := range p.Attributes {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%q", kv.Key, kv.Value)
	}
	b.WriteString("}")
	return b.String()
}

// DirtySeparator marks a collection as a single dataset with internal
// duplicates (dirty ER).
const DirtySeparator ID = -1

// Collection is the input of one ER task.
type Collection struct {
	Profiles []Profile
	// Separator is the number of profiles belonging to the first source in
	// a clean-clean task, or DirtySeparator for dirty ER.
	Separator ID
}

// IsClean reports whether this is a clean-clean (two duplicate-free
// sources) task.
func (c *Collection) IsClean() bool { return c.Separator >= 0 }

// Size returns the number of profiles.
func (c *Collection) Size() int { return len(c.Profiles) }

// SourceOf returns the source index (0 or 1) of a profile ID.
func (c *Collection) SourceOf(id ID) int {
	if c.IsClean() && id >= c.Separator {
		return 1
	}
	return 0
}

// SameSource reports whether two profile IDs belong to the same source; in
// clean-clean ER such pairs are never candidate matches.
func (c *Collection) SameSource(a, b ID) bool {
	if !c.IsClean() {
		return false
	}
	return (a >= c.Separator) == (b >= c.Separator)
}

// Get returns the profile with the given internal ID.
func (c *Collection) Get(id ID) *Profile { return &c.Profiles[id] }

// MaxComparisons is the number of comparisons exhaustive ER would perform:
// |A|*|B| for clean-clean, n*(n-1)/2 for dirty.
func (c *Collection) MaxComparisons() int64 {
	n := int64(len(c.Profiles))
	if c.IsClean() {
		a := int64(c.Separator)
		return a * (n - a)
	}
	return n * (n - 1) / 2
}

// AttributeNames returns every distinct qualified attribute name in the
// collection, sorted. Names are qualified as "source:key" for clean-clean
// tasks so that same-named attributes of different sources stay distinct
// for loose-schema partitioning.
func (c *Collection) AttributeNames() []string {
	seen := map[string]bool{}
	for i := range c.Profiles {
		p := &c.Profiles[i]
		for _, kv := range p.Attributes {
			seen[QualifiedAttribute(p.SourceID, kv.Key)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// QualifiedAttribute builds the source-qualified attribute name used by
// loose-schema processing. A plain concatenation, not Sprintf: the
// blocker looks one up per token, and a short concatenation used only
// as a map key stays off the heap.
func QualifiedAttribute(sourceID int, key string) string {
	return strconv.Itoa(sourceID) + ":" + key
}

// NewCleanClean merges two duplicate-free sources into one collection,
// assigning dense IDs with source A first.
func NewCleanClean(a, b []Profile) *Collection {
	out := &Collection{
		Profiles:  make([]Profile, 0, len(a)+len(b)),
		Separator: ID(len(a)),
	}
	for i, p := range a {
		p.ID = ID(i)
		p.SourceID = 0
		out.Profiles = append(out.Profiles, p)
	}
	for i, p := range b {
		p.ID = ID(len(a) + i)
		p.SourceID = 1
		out.Profiles = append(out.Profiles, p)
	}
	return out
}

// NewDirty wraps a single dataset with internal duplicates.
func NewDirty(ps []Profile) *Collection {
	out := &Collection{Profiles: make([]Profile, 0, len(ps)), Separator: DirtySeparator}
	for i, p := range ps {
		p.ID = ID(i)
		p.SourceID = 0
		out.Profiles = append(out.Profiles, p)
	}
	return out
}

// Validate checks internal consistency (dense IDs, separator bounds).
func (c *Collection) Validate() error {
	if c.IsClean() && int(c.Separator) > len(c.Profiles) {
		return fmt.Errorf("profile: separator %d beyond collection size %d", c.Separator, len(c.Profiles))
	}
	for i := range c.Profiles {
		if c.Profiles[i].ID != ID(i) {
			return fmt.Errorf("profile: non-dense ID %d at index %d", c.Profiles[i].ID, i)
		}
		src := c.SourceOf(ID(i))
		if c.Profiles[i].SourceID != src {
			return fmt.Errorf("profile: profile %d has source %d, separator implies %d", i, c.Profiles[i].SourceID, src)
		}
	}
	return nil
}
