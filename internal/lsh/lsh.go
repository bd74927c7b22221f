// Package lsh implements MinHash signatures and banding locality-sensitive
// hashing over token sets. The loose-schema generator uses it to find
// pairs of attributes whose value vocabularies overlap, without comparing
// every attribute pair exactly.
package lsh

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"sparker/internal/kernel"
)

// MinHasher computes fixed-length MinHash signatures. A signature position
// i holds the minimum of h_i(token) over the token set, where h_i is a
// universal hash a_i*x + b_i over a Mersenne prime; the probability that
// two sets agree at a position equals their Jaccard similarity.
type MinHasher struct {
	a, b []uint64
}

const mersennePrime = (1 << 61) - 1

// NewMinHasher creates a hasher with the given signature length, seeded
// deterministically.
func NewMinHasher(signatureLen int, seed int64) *MinHasher {
	rng := rand.New(rand.NewSource(seed))
	h := &MinHasher{
		a: make([]uint64, signatureLen),
		b: make([]uint64, signatureLen),
	}
	for i := 0; i < signatureLen; i++ {
		h.a[i] = uint64(rng.Int63n(mersennePrime-1)) + 1 // a != 0
		h.b[i] = uint64(rng.Int63n(mersennePrime))
	}
	return h
}

// SignatureLen returns the length of signatures produced by the hasher.
func (h *MinHasher) SignatureLen() int { return len(h.a) }

// The FNV-1a constants: tokenHash and rowsHash hash inline, with values
// identical to hash/fnv's New64a, instead of materialising a hash.Hash64
// that would heap-allocate once per token.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// tokenHash maps a token into [0, mersennePrime).
func tokenHash(token string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(token); i++ {
		h ^= uint64(token[i])
		h *= fnvPrime64
	}
	return h % mersennePrime
}

// Signature computes the MinHash signature of a token set. Empty sets get
// an all-max signature that matches nothing. Duplicate tokens do not
// change the result: a minimum is idempotent under repetition.
func (h *MinHasher) Signature(tokens []string) []uint64 {
	sig := emptySignature(make([]uint64, len(h.a)))
	h.foldRows(sig, tokens, 0, len(sig))
	return sig
}

// Signatures computes the signature of every token set, each equal to
// Signature's. The work is split by signature row, one contiguous range
// of rows per GOMAXPROCS worker (kernel.ForRanges), not by set: there are
// few sets (one per attribute) and they differ widely in size, while the
// rows cost the same. Rows are independent minima, so the split does not
// change a bit.
func (h *MinHasher) Signatures(sets [][]string) [][]uint64 {
	return h.signatures(sets, kernel.Ranges(len(h.a)))
}

// signatures is Signatures over the given number of row ranges.
func (h *MinHasher) signatures(sets [][]string, ranges int) [][]uint64 {
	n := len(h.a)
	flat := emptySignature(make([]uint64, len(sets)*n))
	sigs := make([][]uint64, len(sets))
	for i := range sigs {
		sigs[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	kernel.ForRanges(n, ranges, func(_, lo, hi int) {
		for i, tokens := range sets {
			h.foldRows(sigs[i], tokens, lo, hi)
		}
	})
	return sigs
}

// emptySignature fills sig with the all-max value of the empty set.
func emptySignature(sig []uint64) []uint64 {
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	return sig
}

// foldRows folds tokens into rows [lo, hi) of sig: row i keeps the
// minimum of h_i over the tokens.
func (h *MinHasher) foldRows(sig []uint64, tokens []string, lo, hi int) {
	a, b, sig := h.a[lo:hi], h.b[lo:hi], sig[lo:hi]
	for _, tok := range tokens {
		x := tokenHash(tok)
		for i := range sig {
			// (a*x + b) mod p with 128-bit-safe arithmetic: since a, x < 2^61
			// the product fits in uint128 only; use modular multiplication.
			v := mulmod(a[i], x) + b[i]
			if v >= mersennePrime {
				v -= mersennePrime
			}
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
}

// mulmod computes a*b mod 2^61-1 using a 128-bit product and the Mersenne
// identity 2^61 ≡ 1 (mod p), so 2^64 ≡ 8 (mod p).
func mulmod(a, b uint64) uint64 {
	const p = mersennePrime
	hi, lo := bits.Mul64(a, b)
	// a, b < 2^61 keeps hi < 2^58, so hi*8 cannot overflow.
	r := (lo & p) + (lo >> 61) + hi*8
	r = (r & p) + (r >> 61)
	if r >= p {
		r -= p
	}
	return r
}

// EstimateJaccard estimates the Jaccard similarity of the sets behind two
// signatures as the fraction of agreeing positions.
func EstimateJaccard(a, b []uint64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}

// ExactJaccard computes |A∩B| / |A∪B| over token slices (duplicates
// ignored), the quantity MinHash estimates.
func ExactJaccard(a, b []string) float64 {
	as := make(map[string]bool, len(a))
	for _, t := range a {
		as[t] = true
	}
	bs := make(map[string]bool, len(b))
	for _, t := range b {
		bs[t] = true
	}
	inter := 0
	for t := range as {
		if bs[t] {
			inter++
		}
	}
	union := len(as) + len(bs) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// CandidatePair is an unordered pair of item ordinals produced by banding.
type CandidatePair struct{ I, J int }

// BandingParams chooses a banding layout for a target similarity
// threshold: more bands catch lower similarities. Given a signature length
// n and threshold t, it picks rows per band r minimising |t - (1/b)^(1/r)|.
func BandingParams(signatureLen int, threshold float64) (bands, rows int) {
	best := 1
	bestDiff := 2.0
	for r := 1; r <= signatureLen; r++ {
		if signatureLen%r != 0 {
			continue
		}
		b := signatureLen / r
		// Approximate S-curve inflection (1/b)^(1/r).
		est := math.Pow(1/float64(b), 1/float64(r))
		diff := math.Abs(est - threshold)
		if diff < bestDiff {
			bestDiff = diff
			best = r
		}
	}
	return signatureLen / best, best
}

// rowsHash is the FNV-1a hash of one band's rows (little-endian byte
// order per value), identical to hashing the same bytes through
// hash/fnv.New64a.
func rowsHash(sig []uint64, band, rows int) uint64 {
	h := uint64(fnvOffset64)
	for r := 0; r < rows; r++ {
		v := sig[band*rows+r]
		for k := 0; k < 8; k++ {
			h ^= uint64(byte(v >> (8 * k)))
			h *= fnvPrime64
		}
	}
	return h
}

// Candidates runs banding LSH over the signatures: items whose signature
// agrees on every row of at least one band become a candidate pair. Pairs
// are deduplicated and returned in deterministic order.
func Candidates(signatures [][]uint64, bands, rows int) []CandidatePair {
	if bands < 1 || rows < 1 {
		return nil
	}
	type bandKey struct {
		band int
		hash uint64
	}
	buckets := make(map[bandKey][]int)
	for item, sig := range signatures {
		for b := 0; b < bands && (b+1)*rows <= len(sig); b++ {
			key := bandKey{band: b, hash: rowsHash(sig, b, rows)}
			buckets[key] = append(buckets[key], item)
		}
	}
	seen := make(map[CandidatePair]bool)
	var out []CandidatePair
	for _, items := range buckets {
		for x := 0; x < len(items); x++ {
			for y := x + 1; y < len(items); y++ {
				p := CandidatePair{I: items[x], J: items[y]}
				if p.I > p.J {
					p.I, p.J = p.J, p.I
				}
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].I != out[j].I {
			return out[i].I < out[j].I
		}
		return out[i].J < out[j].J
	})
	return out
}
