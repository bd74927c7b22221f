package tokenize

import (
	"reflect"
	"testing"
	"testing/quick"
	"unicode"
)

func TestNormalizeLowersAndStripsPunctuation(t *testing.T) {
	got := Normalize("Blast: loosely schema-blocking!")
	want := "blast  loosely schema blocking "
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestTokensDropStopWords(t *testing.T) {
	got := Tokens("how to improve the meta-blocking")
	want := []string{"how", "improve", "meta", "blocking"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestTokensMinLength(t *testing.T) {
	o := Options{MinLength: 3}
	got := o.Tokens("go is a fun language")
	want := []string{"fun", "language"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestTokensDropNumbers(t *testing.T) {
	o := Options{DropNumbers: true}
	got := o.Tokens("model 2016 qx500")
	want := []string{"model", "qx500"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestTokensCustomStopWords(t *testing.T) {
	o := Options{StopWords: map[string]bool{"blast": true}}
	got := o.Tokens("the blast paper")
	want := []string{"the", "paper"} // default list disabled
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestUnicodeHandling(t *testing.T) {
	got := Tokens("Modèna Ünïversity")
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestQuickTokensAreNormalized(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokens(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					return false
				}
				// Lower-cased output is a fixed point of ToLower. (Some
				// uppercase letters, e.g. mathematical alphanumerics, have
				// no lowercase mapping and pass through unchanged.)
				if unicode.ToLower(r) != r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTokenizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Tokens(s)
		var rejoined string
		for i, tok := range once {
			if i > 0 {
				rejoined += " "
			}
			rejoined += tok
		}
		twice := Tokens(rejoined)
		return reflect.DeepEqual(once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendTokensMatchesTokens pins the scratch-based AppendTokens to
// Tokens: blocking keys flow through the former while similarity,
// loose-schema and evaluation still use the latter, so the two
// normalise/split/filter pipelines must never drift. Covers case-mapping
// edge cases (İ, ı, ß, final sigma), CJK, combining marks, numerics and
// stop words, under both default and strict options, plus a quick sweep
// over arbitrary strings.
func TestAppendTokensMatchesTokens(t *testing.T) {
	opts := []Options{
		{},
		{MinLength: 3, DropNumbers: true, StopWords: map[string]bool{"acme": true}},
	}
	fixed := []string{
		"", "   ", "Acme Blender-3000, the BEST!", "İstanbul ısıtma STRASSE ß",
		"ΣΊΣΥΦΟΣ τελος", "日本語 トークン", "á combining", "42 007 x9",
		"the of and", "tab\tand\nnewline", "emoji 🚀 split",
	}
	sc := &Scratch{}
	for _, o := range opts {
		for _, s := range fixed {
			want := o.Tokens(s)
			got := o.AppendTokens(nil, s, sc)
			if !reflect.DeepEqual(append([]string{}, want...), append([]string{}, got...)) {
				t.Fatalf("opts %+v input %q: AppendTokens %q != Tokens %q", o, s, got, want)
			}
		}
	}
	f := func(s string) bool {
		want := Default.Tokens(s)
		got := Default.AppendTokens(nil, s, sc)
		return reflect.DeepEqual(append([]string{}, want...), append([]string{}, got...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzAppendTokens: AppendTokens ≡ Tokens on arbitrary bytes, invalid
// UTF-8 included, under the default, a custom (with words longer than
// any default stop word) and an empty stop-word set, MinLength 1 to 3,
// with and without DropNumbers. AppendTokens normalises ASCII through a
// byte table and skips checks Tokens always makes, so the two paths must
// be pinned to each other byte for byte.
func FuzzAppendTokens(f *testing.F) {
	for _, s := range []string{
		"Modèna Ünïversity",
		"", "   ", "Acme Blender-3000, the BEST!", "İstanbul ısıtma STRASSE ß",
		"ΣΊΣΥΦΟΣ τελος", "日本語 トークン", "á combining", "42 007 x9",
		"the of and", "tab\tand\nnewline", "emoji 🚀 split",
		"\xff\xfeab\xc3 ok\x80", "KELVIN K ﬁ ligature", "THE With wITh blenders",
	} {
		f.Add(s)
	}
	var opts []Options
	for _, stop := range []map[string]bool{nil, {"acme": true, "blender": true, "über": true, "the": true}, {}} {
		for minLen := 1; minLen <= 3; minLen++ {
			for _, drop := range []bool{false, true} {
				opts = append(opts, Options{MinLength: minLen, StopWords: stop, DropNumbers: drop})
			}
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc := &Scratch{}
		for _, o := range opts {
			want := o.Tokens(s)
			got := o.AppendTokens(nil, s, sc)
			if !reflect.DeepEqual(append([]string{}, want...), append([]string{}, got...)) {
				t.Fatalf("opts %+v input %q: AppendTokens %q != Tokens %q", o, s, got, want)
			}
		}
	})
}
