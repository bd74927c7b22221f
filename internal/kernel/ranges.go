package kernel

import (
	"runtime"
	"sync"
)

// Ranges is the number of ranges ForRanges cuts n items into when every
// GOMAXPROCS worker takes one: min(GOMAXPROCS, n), and at least 1.
func Ranges(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// ForRanges cuts [0, n) into k contiguous, ascending ranges (no more
// than n, so none is empty) and runs fn(r, lo, hi) on range r, all
// concurrently: the calling goroutine takes the last range, and
// ForRanges returns when every range has. Per-range outputs concatenated
// in r order therefore come out in the sequential iteration order, which
// is what lets the batch passes that fan out this way stay bit-identical
// for every worker count.
func ForRanges(n, k int, fn func(r, lo, hi int)) {
	k = min(k, n)
	if k <= 0 {
		return
	}
	var wg sync.WaitGroup
	for r := range k - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(r, r*n/k, (r+1)*n/k)
		}()
	}
	fn(k-1, (k-1)*n/k, n)
	wg.Wait()
}
