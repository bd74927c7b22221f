package lsh

import (
	"math"
	"strings"
	"testing"
)

// FuzzSignature drives the MinHash/banding primitives the loose-schema
// attribute clustering is built on. The contract under fuzzing:
// signatures are deterministic, the same when split by row, bounded by
// the Mersenne prime and insensitive to token duplication; Jaccard
// estimates stay in [0,1] and are symmetric; and BandingParams always
// returns a layout that tiles the signature exactly.
func FuzzSignature(f *testing.F) {
	f.Add("alpha beta gamma", "alpha beta delta", uint8(16), int64(1), 0.5)
	f.Add("", "alpha", uint8(1), int64(42), 0.9)
	f.Add("x y z", "x y z", uint8(128), int64(-7), 0.1)
	f.Add("tok", "tok tok tok", uint8(64), int64(0), math.NaN())

	f.Fuzz(func(t *testing.T, sa, sb string, rawLen uint8, seed int64, threshold float64) {
		sigLen := int(rawLen)%128 + 1
		h := NewMinHasher(sigLen, seed)
		if h.SignatureLen() != sigLen {
			t.Fatalf("signature length %d, want %d", h.SignatureLen(), sigLen)
		}
		ta, tb := strings.Fields(sa), strings.Fields(sb)

		siga := h.Signature(ta)
		if got := h.Signature(ta); !equalSig(siga, got) {
			t.Fatalf("signature not deterministic")
		}
		// Duplicating the token set cannot change a minimum.
		if got := h.Signature(append(append([]string(nil), ta...), ta...)); !equalSig(siga, got) {
			t.Fatalf("signature changed under token duplication")
		}
		for i, v := range siga {
			if len(ta) > 0 && v >= mersennePrime {
				t.Fatalf("position %d: value %d outside the hash range", i, v)
			}
			if len(ta) == 0 && v != ^uint64(0) {
				t.Fatalf("empty set signature position %d not all-max", i)
			}
		}

		sigb := h.Signature(tb)
		// Split by row, the two signatures are the same.
		if split := h.signatures([][]string{ta, tb}, 3); !equalSig(split[0], siga) || !equalSig(split[1], sigb) {
			t.Fatalf("row-split signatures differ from Signature's")
		}
		est := EstimateJaccard(siga, sigb)
		if est < 0 || est > 1 || math.IsNaN(est) {
			t.Fatalf("estimate %v outside [0,1]", est)
		}
		if back := EstimateJaccard(sigb, siga); back != est {
			t.Fatalf("estimate not symmetric: %v vs %v", est, back)
		}
		if len(ta) > 0 && equalStrings(ta, tb) && est != 1 {
			t.Fatalf("identical sets estimate %v, want 1", est)
		}

		bands, rows := BandingParams(sigLen, threshold)
		if bands < 1 || rows < 1 || bands*rows != sigLen {
			t.Fatalf("BandingParams(%d, %v) = (%d, %d): does not tile the signature",
				sigLen, threshold, bands, rows)
		}
	})
}

func equalSig(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
