package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// The sandbox's speed drifts: the same sequential Resolve pass took
// 0.9 s and 1.3 s minutes apart with no steal time to show for it. A
// pass is pure in-process computation, so batch-resolve times every
// pass against a calibration loop run right before it and reports the
// pass as it would have taken on a machine that runs the loop in
// nominalCalibration. The loop does the kind of work the pipeline's
// costliest stage does (split two strings into tokens, build a set,
// intersect) on fixed synthetic data and uses none of the repo's code,
// so no change to the repo moves it.

// nominalCalibration is the loop's time on this sandbox when quiet, so
// that scaled times read like quiet ones.
const nominalCalibration = 100 * time.Millisecond

var calibration struct {
	once  sync.Once
	docs  []string
	pairs [][2]int32
}

// calibrate runs the loop once and returns the factor that scales a
// duration measured now to the nominal machine.
func calibrate() float64 {
	c := &calibration
	c.once.Do(func() {
		rng := rand.New(rand.NewSource(1))
		vocab := make([]string, 20000)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("tok%dx%d", i, rng.Intn(1000))
		}
		c.docs = make([]string, 8000)
		for i := range c.docs {
			words := make([]string, 14)
			for j := range words {
				words[j] = vocab[rng.Intn(len(vocab))]
			}
			c.docs[i] = strings.Join(words, " ")
		}
		c.pairs = make([][2]int32, 50000)
		for i := range c.pairs {
			c.pairs[i] = [2]int32{int32(rng.Intn(len(c.docs))), int32(rng.Intn(len(c.docs)))}
		}
	})
	t0 := time.Now()
	shared := 0
	for _, p := range c.pairs {
		set := map[string]struct{}{}
		for _, tok := range strings.Fields(c.docs[p[0]]) {
			set[tok] = struct{}{}
		}
		for _, tok := range strings.Fields(c.docs[p[1]]) {
			if _, ok := set[tok]; ok {
				shared++
			}
		}
	}
	if shared < 0 {
		panic("unreachable: keeps the loop's result alive")
	}
	return float64(nominalCalibration) / float64(time.Since(t0))
}

// The serving workloads cannot use that loop: it allocates, and in a
// harness holding a round's answers a collection it sets off outlasts
// it. Nor do their cores slow together: the servers' core has stretches
// of seconds in which a kill -9 restart (a burst of parsing, decoding
// and index building in a new process) takes 140 ms and not 105 ms,
// while the generator's core and a loop of dependent multiplications
// on either run as before. What slows with the restart, on the same
// core at the same time, is reading memory. memoryProbe is that: four
// passes over a 32 MiB buffer, one byte of every cache line, with no
// allocation and none of the repo's code.

// nominalProbe is memoryProbe's time on this sandbox when quiet.
const nominalProbe = 10 * time.Millisecond

var probeBuf struct {
	once  sync.Once
	bytes []byte
}

// memoryProbe runs the probe once on the calling thread and returns how
// long it took.
func memoryProbe() time.Duration {
	p := &probeBuf
	p.once.Do(func() {
		p.bytes = make([]byte, 32<<20)
		for i := range p.bytes {
			p.bytes[i] = byte(i)
		}
	})
	t0 := time.Now()
	sum := 0
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < len(p.bytes); i += 64 {
			sum += int(p.bytes[i])
		}
	}
	if sum < 0 {
		panic("unreachable: keeps the loop's result alive")
	}
	return time.Since(t0)
}
