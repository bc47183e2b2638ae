package main

import (
	"hash/fnv"
	"math"
	"time"
)

// splitmix is the benchmark's own seeded generator (SplitMix64). Every input
// — session seeds, arrival times, session choices, seek positions and the
// verification sample — comes from one of these keyed by -seed. It is kept
// apart from internal/rng so that a change to the library's generator never
// changes what the benchmark asks the server for.
type splitmix struct{ s uint64 }

// inputStream returns the generator for one named input of the run with
// the given seed; distinct names give independent streams.
func inputStream(seed uint64, name string) *splitmix {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &splitmix{s: seed ^ h.Sum64()}
}

func (g *splitmix) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (g *splitmix) float64() float64 { return float64(g.next()>>11) / (1 << 53) }

// intn returns a value in [0, n); the modulo bias is below 2^-40 for the
// sizes used here.
func (g *splitmix) intn(n int) int { return int(g.next() % uint64(n)) }

// seed returns a nonzero session seed (0 would ask the server to pick one).
func (g *splitmix) seed() uint64 {
	for {
		if s := g.next(); s != 0 {
			return s
		}
	}
}

// sessionSeeds returns n session seeds for the fleet of the run's seed.
func sessionSeeds(seed uint64, n int) []uint64 {
	g := inputStream(seed, "sessions")
	out := make([]uint64, n)
	for i := range out {
		out[i] = g.seed()
	}
	return out
}

// arrival is one open-loop request: when it is due, relative to the start
// of the phase, and which session it reads.
type arrival struct {
	due     time.Duration
	session int
}

// poissonSchedule draws the open-loop arrivals of one phase: a Poisson
// process at rate requests per second over window, each arrival reading a
// uniformly chosen session of the fleet. The same seed gives the same
// schedule.
func poissonSchedule(seed uint64, rate float64, window time.Duration, sessions int) []arrival {
	g := inputStream(seed, "arrivals")
	var out []arrival
	var t float64 // seconds
	for {
		t += -math.Log(1-g.float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		out = append(out, arrival{due: due, session: g.intn(sessions)})
	}
}

// frameHash is FNV-1a taken over the 64-bit words of the frames' IEEE-754
// bit patterns (one xor-multiply per frame rather than per byte, so hashing
// a 4096-frame response costs a few microseconds). Equal hashes stand for
// bit-identical frames.
func frameHash(frames []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range frames {
		h = (h ^ math.Float64bits(v)) * prime64
	}
	return h
}
