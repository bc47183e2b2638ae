package hosking

// Lanes is how many generators FillLockstep advances per pass over the
// frozen row. Their windows sit interleaved in one arena, a row of Lanes
// samples per step, so a pass reads each row coefficient once for every
// lane: two 4-wide vector accumulators on amd64 with AVX2, two passes of
// four scalar accumulators elsewhere.
const Lanes = 8

// laneSeg is the most steps one arena pass runs before the window rows
// shift down: the server's step chunks and the step-fleet's 256-frame
// steps run as one pass.
const laneSeg = 256

// laneArena is one lockstep group's work space, lent by the truncation for
// the length of one FillLockstep group. h holds the lanes' windows
// interleaved: h[r][l] is lane l's sample at row r of the pass, rows
// 0..p-1 the window on entry and rows p..p+laneSeg-1 the new samples. z
// stages one lane's normal draws for a pass.
type laneArena struct {
	h [][Lanes]float64
	z [laneSeg / 2]complex128
}

// lanes advances the arena h by n steps over the reversed row: for j =
// 0..n-1, row p+j, which holds every lane's scaled innovation on entry,
// becomes the conditional mean over rows j..j+p-1 plus that innovation.
// used is how many leading lanes carry generators; the others are zero.
// The AVX2 kernel where the processor has it, else the Go loop, which is
// also the kernel's bit oracle: both sum each lane in Next's order, so
// every sample is bit-identical to Next's.
func lanes(h [][Lanes]float64, row []float64, n, used int) {
	if n == 0 || lanesVec(h, row, n) {
		return
	}
	lanesGo(h, row, n, used > 4)
}

// lanesGo is lanes' Go loop: lanes 0-3, then lanes 4-7 when wide. Each pass
// over the row carries four accumulators, one lane each, summed from
// i = p-1 down to 0, two rows per iteration, with every product rounded
// before its add, exactly as Next sums. Four lanes per pass keep the adds
// overlapped without running out of registers, which eight scalar
// accumulators do.
func lanesGo(h [][Lanes]float64, row []float64, n int, wide bool) {
	p := len(row)
	for j := range n {
		win, y := h[j:j+p], &h[j+p]
		var m0, m1, m2, m3 float64
		i := p - 1
		for ; i >= 1; i -= 2 {
			r, s := row[i], row[i-1]
			x, z := &win[i], &win[i-1]
			m0 += float64(r * x[0])
			m1 += float64(r * x[1])
			m2 += float64(r * x[2])
			m3 += float64(r * x[3])
			m0 += float64(s * z[0])
			m1 += float64(s * z[1])
			m2 += float64(s * z[2])
			m3 += float64(s * z[3])
		}
		if i == 0 {
			r, x := row[0], &win[0]
			m0 += float64(r * x[0])
			m1 += float64(r * x[1])
			m2 += float64(r * x[2])
			m3 += float64(r * x[3])
		}
		y[0], y[1], y[2], y[3] = m0+y[0], m1+y[1], m2+y[2], m3+y[3]
		if !wide {
			continue
		}
		var m4, m5, m6, m7 float64
		i = p - 1
		for ; i >= 1; i -= 2 {
			r, s := row[i], row[i-1]
			x, z := &win[i], &win[i-1]
			m4 += float64(r * x[4])
			m5 += float64(r * x[5])
			m6 += float64(r * x[6])
			m7 += float64(r * x[7])
			m4 += float64(s * z[4])
			m5 += float64(s * z[5])
			m6 += float64(s * z[6])
			m7 += float64(s * z[7])
		}
		if i == 0 {
			r, x := row[0], &win[0]
			m4 += float64(r * x[4])
			m5 += float64(r * x[5])
			m6 += float64(r * x[6])
			m7 += float64(r * x[7])
		}
		y[4], y[5], y[6], y[7] = m4+y[4], m5+y[5], m6+y[6], m7+y[7]
	}
}
