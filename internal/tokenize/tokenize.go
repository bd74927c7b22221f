// Package tokenize turns attribute values into the tokens used as
// schema-agnostic blocking keys and as the vocabulary for LSH attribute
// partitioning, entropy extraction, and similarity scoring. A Corpus
// holds a whole collection tokenised once, for the batch stages to share.
package tokenize

import (
	"maps"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Options configures tokenization.
type Options struct {
	// MinLength drops tokens shorter than this many runes (default 1).
	MinLength int
	// StopWords are dropped after normalisation. Nil uses DefaultStopWords;
	// use an empty map to disable stop-word removal.
	StopWords map[string]bool
	// KeepNumbers keeps purely numeric tokens (default true behaviour is
	// controlled by DropNumbers: zero value keeps them).
	DropNumbers bool
}

// DefaultStopWords is a small English stop-word list; blocking keys built
// from these would put half the collection in one block, which Block
// Purging would then discard anyway.
var DefaultStopWords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true, "in": true,
	"is": true, "it": true, "its": true, "of": true, "on": true, "or": true,
	"that": true, "the": true, "to": true, "was": true, "were": true,
	"will": true, "with": true,
}

// Default is the zero-configuration tokenizer used across the pipeline.
var Default = Options{MinLength: 1}

// Normalize lower-cases s and maps every non-alphanumeric rune to a space.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			b.WriteRune(' ')
		}
	}
	return b.String()
}

// Tokens splits s into normalised tokens according to the options.
func (o Options) Tokens(s string) []string {
	stop, minLen := o.stopWords(), o.minLength()
	fields := strings.Fields(Normalize(s))
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		if utf8.RuneCountInString(f) < minLen || stop[f] {
			continue
		}
		if o.DropNumbers && isNumeric(f) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// stopWords is the effective stop-word set: nil means DefaultStopWords.
func (o Options) stopWords() map[string]bool {
	if o.StopWords == nil {
		return DefaultStopWords
	}
	return o.StopWords
}

// minLength is the effective minimum token length: at least 1.
func (o Options) minLength() int { return max(o.MinLength, 1) }

// Equal reports whether o and p tokenise every string alike: the same
// effective minimum length, number rule and stop words.
func (o Options) Equal(p Options) bool {
	return o.minLength() == p.minLength() && o.DropNumbers == p.DropNumbers &&
		maps.Equal(o.stopWords(), p.stopWords())
}

// Scratch is a reusable tokenizer workspace for AppendTokens: the
// normalisation buffer and the token intern table live across calls, so
// steady-state tokenization of a hot loop (the corpus build's workers,
// the online index's queries) allocates only when a token is seen for
// the first time. A Scratch must not be shared between goroutines; pool
// one per worker.
type Scratch struct {
	buf    []byte
	intern map[string]string
}

// maxInterned bounds the intern table; past it the table is dropped and
// rebuilt, so a pathological unbounded vocabulary cannot pin memory.
const maxInterned = 1 << 16

func (sc *Scratch) internToken(b []byte) string {
	if tok, ok := sc.intern[string(b)]; ok { // zero-alloc lookup
		return tok
	}
	if sc.intern == nil || len(sc.intern) >= maxInterned {
		sc.intern = make(map[string]string, 256)
	}
	tok := string(b)
	sc.intern[tok] = tok
	return tok
}

// AppendTokens appends the normalised tokens of s to dst and returns the
// extended slice — the same tokens Tokens returns, derived through the
// scratch's reusable buffers instead of fresh normalise/split/output
// allocations per value. A nil scratch is allowed (one is created), but
// defeats the purpose.
func (o Options) AppendTokens(dst []string, s string, sc *Scratch) []string {
	if sc == nil {
		sc = &Scratch{}
	}
	o.eachToken(s, sc, func(f []byte) { dst = append(dst, sc.internToken(f)) })
	return dst
}

// eachToken calls yield with every token of s, in order, as a view into
// the scratch's normalisation buffer that is valid only until yield
// returns: AppendTokens interns the views, a Corpus maps them to IDs.
func (o Options) eachToken(s string, sc *Scratch, yield func(tok []byte)) {
	stop, minLen := o.stopWords(), o.minLength()
	buf := sc.buf[:0]
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
		} else {
			buf = append(buf, ' ')
		}
	}
	sc.buf = buf
	for i := 0; i < len(buf); {
		if buf[i] == ' ' {
			i++
			continue
		}
		j := i
		for j < len(buf) && buf[j] != ' ' {
			j++
		}
		f := buf[i:j]
		i = j
		if utf8.RuneCount(f) < minLen || stop[string(f)] {
			continue
		}
		if o.DropNumbers && isNumericBytes(f) {
			continue
		}
		yield(f)
	}
}

func isNumericBytes(b []byte) bool {
	for i := 0; i < len(b); {
		r, size := utf8.DecodeRune(b[i:])
		if !unicode.IsDigit(r) {
			return false
		}
		i += size
	}
	return len(b) > 0
}

// Tokens tokenizes with the default options.
func Tokens(s string) []string { return Default.Tokens(s) }

// TokenSet returns the distinct tokens of s (default options), preserving
// first-seen order.
func TokenSet(s string) []string { return UniqueTokens(Tokens(s)) }

// UniqueTokens deduplicates a token slice, preserving first-seen order.
func UniqueTokens(tokens []string) []string {
	seen := make(map[string]bool, len(tokens))
	out := tokens[:0:0]
	for _, t := range tokens {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func isNumeric(s string) bool {
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return len(s) > 0
}

// NGrams returns the character n-grams of s after normalisation (spaces
// removed), used by similarity measures that are robust to token-order
// changes. Returns nil when the string is shorter than n runes.
func NGrams(s string, n int) []string {
	if n < 1 {
		return nil
	}
	compact := strings.ReplaceAll(Normalize(s), " ", "")
	runes := []rune(compact)
	if len(runes) < n {
		return nil
	}
	out := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		out = append(out, string(runes[i:i+n]))
	}
	return out
}
