package fft

import (
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"
)

// tables holds the precomputed bit-reversal permutation and per-stage twiddle
// factors for one transform size. Entries are immutable after construction and
// shared process-wide through tablesFor, mirroring the Hosking plan cache: the
// tables for a size are built once and every subsequent Forward/Inverse of
// that size reuses them, which removes all per-call trigonometry from the
// transform hot path.
//
// The twiddle tables are filled by the exact w = 1; w *= wl recurrence the
// reference transform evaluates on the fly, so the tabled transforms are
// bit-identical to ForwardReference/InverseReference — a property the golden
// traces in internal/conformance depend on.
type tables struct {
	n   int
	rev []int32 // bit-reversal permutation, rev[i] = reversed index of i
	// fwd and inv hold the stage twiddles for all stages concatenated: the
	// stage with half-length h occupies [h-1 : 2h-1] (1+2+4+...+h/2 == h-1).
	fwd []complex128
	inv []complex128
	// fwdStages and invStages are the per-stage twiddle runs, precomputed as
	// capped subslices of fwd/inv: stages[s] is the run for half-length 2^s.
	// The tiled stage loops re-read a stage's run once per tile, so handing
	// them out as ready slices keeps the inner loops free of index math.
	fwdStages [][]complex128
	invStages [][]complex128

	// rot supports the packed real transforms of size 2n: rot[k] is
	// (i/2)·e^{+2πik/(2n)} for k = 0..n/2, built lazily because only the
	// real-input paths need it.
	rotOnce sync.Once
	rot     []complex128

	lastUse atomic.Uint64 // cache clock tick of the most recent lookup
}

func newTables(n int) *tables {
	t := &tables{n: n}
	t.rev = make([]int32, n)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		t.rev[i] = int32(j)
	}
	t.fwd = stageTwiddles(n, false)
	t.inv = stageTwiddles(n, true)
	t.fwdStages = stageSlices(t.fwd, n)
	t.invStages = stageSlices(t.inv, n)
	return t
}

// stageSlices cuts the concatenated twiddle layout into per-stage runs:
// out[s] covers the stage with half-length 2^s.
func stageSlices(tw []complex128, n int) [][]complex128 {
	if n < 2 {
		return nil
	}
	out := make([][]complex128, log2(n))
	for half, s := 1, 0; half < n; half, s = half<<1, s+1 {
		out[s] = tw[half-1 : 2*half-1 : 2*half-1]
	}
	return out
}

// stageTwiddles fills the concatenated per-stage twiddle layout using the
// same recurrence as the reference transform (w starts at 1 and is repeatedly
// multiplied by wl), so every table entry is bitwise equal to the value the
// on-the-fly code would have computed.
func stageTwiddles(n int, inverse bool) []complex128 {
	if n < 2 {
		return nil
	}
	tw := make([]complex128, n-1)
	for length := 2; length <= n; length <<= 1 {
		angle := 2 * math.Pi / float64(length)
		if !inverse {
			angle = -angle
		}
		wl := cmplx.Rect(1, angle)
		half := length >> 1
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			tw[half-1+k] = w
			w *= wl
		}
	}
	return tw
}

// rotation returns the lazily built real-transform rotation table.
func (t *tables) rotation() []complex128 {
	t.rotOnce.Do(func() {
		rot := make([]complex128, t.n/2+1)
		m := 2 * t.n
		for k := range rot {
			rot[k] = complex(0, 0.5) * cmplx.Rect(1, 2*math.Pi*float64(k)/float64(m))
		}
		t.rot = rot
	})
	return t.rot
}

// stageTile is the cache-blocking width of the stage loops, in complex128
// elements: stages whose butterfly blocks fit inside a tile run tile by tile,
// so all of them together cost one pass over memory instead of one pass per
// stage. 2^14 elements is 256 KiB of data plus at most 256 KiB of twiddle
// runs — well inside the 2 MiB L2 this was tuned on, with room left for the
// caller's other streams (spectrum weights, output frames).
const stageTile = 1 << 14

// apply runs the iterative radix-2 transform over x using the given
// per-stage twiddle runs (t.fwdStages or t.invStages). The length-2 stage is
// specialized: its only twiddle is exactly 1, so u+v/u-v is bitwise equal to
// the generic butterfly. Later stages multiply by table entries that are
// bitwise equal to the reference recurrence values, and cache tiling only
// reorders butterflies that touch disjoint elements, keeping the whole
// transform bit-identical to the reference.
func (t *tables) apply(x []complex128, stages [][]complex128) {
	n := t.n
	for i, r := range t.rev {
		if j := int(r); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	if n < 2 {
		return
	}
	tile := n
	if tile > stageTile {
		tile = stageTile
	}
	for lo := 0; lo < n; lo += tile {
		xt := x[lo : lo+tile]
		for i := 0; i < tile; i += 2 {
			u, v := xt[i], xt[i+1]
			xt[i], xt[i+1] = u+v, u-v
		}
		stageRange(xt, stages, 2, tile)
	}
	stageRange(x[:n], stages, tile, n)
}

// stageRange runs the radix-2 butterfly stages with half-lengths in
// [from, to) over x, reading per-stage twiddle runs from stages (indexed by
// log2 of the half-length). Butterfly arithmetic matches apply exactly; the
// fused real-transform kernels use it for their middle stages.
func stageRange(x []complex128, stages [][]complex128, from, to int) {
	n := len(x)
	for half, s := from, log2(from); half < to; half, s = half<<1, s+1 {
		stage := stages[s]
		length := half << 1
		for start := 0; start < n; start += length {
			a := x[start : start+half : start+half]
			b := x[start+half : start+length : start+length]
			for k, w := range stage {
				u := a[k]
				v := b[k] * w
				a[k] = u + v
				b[k] = u - v
			}
		}
	}
}

// tableCacheCap bounds the number of distinct transform sizes whose tables
// stay resident; beyond it the least recently used entry is evicted. Tables
// cost ~36 bytes per sample, so the cap keeps the cache from pinning large
// one-off sizes forever while leaving every size a long-running process
// actually cycles through permanently warm.
const tableCacheCap = 32

var tableCache = struct {
	sync.RWMutex
	m     map[int]*tables
	clock atomic.Uint64
}{m: make(map[int]*tables)}

// tablesFor returns the process-wide tables for size n, building them on
// first use. Steady-state lookups take a read lock and perform no
// allocations.
func tablesFor(n int) *tables {
	tick := tableCache.clock.Add(1)
	tableCache.RLock()
	t := tableCache.m[n]
	tableCache.RUnlock()
	if t != nil {
		t.lastUse.Store(tick)
		return t
	}
	tableCache.Lock()
	defer tableCache.Unlock()
	if t = tableCache.m[n]; t != nil {
		t.lastUse.Store(tick)
		return t
	}
	t = newTables(n)
	t.lastUse.Store(tick)
	if len(tableCache.m) >= tableCacheCap {
		var oldest int
		oldestTick := uint64(math.MaxUint64)
		for size, e := range tableCache.m {
			if u := e.lastUse.Load(); u < oldestTick {
				oldestTick, oldest = u, size
			}
		}
		delete(tableCache.m, oldest)
	}
	tableCache.m[n] = t
	return t
}

// ForwardReference computes the forward DFT with the original on-the-fly
// twiddle recurrence. It is bit-identical to the tabled Forward, which must
// stay so, and caches nothing: it serves one-off transforms whose tables no
// later call would read (daviesharte.NewPlan's eigenvalue transform), the
// ablation baseline of the twiddle cache benchmarks and the independent
// oracle Forward is tested against.
func ForwardReference(x []complex128) error { return referenceTransform(x, false) }

// InverseReference is the reference counterpart of Inverse; see
// ForwardReference.
func InverseReference(x []complex128) error {
	if err := referenceTransform(x, true); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
	return nil
}
