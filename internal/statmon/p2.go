package statmon

import "sort"

// p2 is the Jain–Chlamtac P² streaming quantile estimator: five markers
// tracking the running p-quantile with O(1) state and O(1) work per
// observation, no allocation after construction. It is deliberately tiny —
// the monitor keeps one per watched quantile, 96 B each — so it stores only
// what it cannot recompute. The quantile p lives in the monitor's shared
// settings and is passed in. The outer markers sit at fixed positions
// (marker 0 at 1, marker 4 at cnt, desired and actual alike), and the
// desired-position increments are p/2, p and (1+p)/2, evaluated by the
// same expressions on every push; so n and np keep only markers 1..3.
type p2 struct {
	cnt float64    // observations seen: an integer, and marker 4's position
	q   [5]float64 // marker heights; the first five observations until cnt reaches 5
	n   [3]float64 // positions of markers 1..3 (1-based counts, integral values)
	np  [3]float64 // desired positions of markers 1..3
}

func (s *p2) push(x, p float64) {
	if s.cnt < 5 {
		s.q[int(s.cnt)] = x
		s.cnt++
		if s.cnt == 5 {
			// Sort the five seeds in place (insertion sort: fixed size,
			// no allocation); they become the markers.
			for i := 1; i < 5; i++ {
				v := s.q[i]
				j := i - 1
				for j >= 0 && s.q[j] > v {
					s.q[j+1] = s.q[j]
					j--
				}
				s.q[j+1] = v
			}
			s.n = [3]float64{2, 3, 4}
			s.np = [3]float64{1 + 2*p, 1 + 4*p, 3 + 2*p}
		}
		return
	}
	s.cnt++ // marker 4 moves with every observation
	// Locate the cell k with q[k] <= x < q[k+1], extending the extremes,
	// and move the markers above it.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	for i := k; i < 3; i++ {
		s.n[i]++
	}
	s.np[0] += p / 2
	s.np[1] += p
	s.np[2] += (1 + p) / 2
	// Adjust the three interior markers toward their desired positions;
	// interior marker i+1 has position s.n[i], neighbours lo and hi.
	for i := 0; i < 3; i++ {
		lo, hi := 1.0, s.cnt
		if i > 0 {
			lo = s.n[i-1]
		}
		if i < 2 {
			hi = s.n[i+1]
		}
		n := s.n[i]
		d := s.np[i] - n
		if (d >= 1 && hi-n > 1) || (d <= -1 && lo-n < -1) {
			sg := 1.0
			if d < 0 {
				sg = -1.0
			}
			ql, q, qh := s.q[i], s.q[i+1], s.q[i+2]
			// Parabolic prediction; linear toward the neighbour on the
			// side of the move when it would leave (ql, qh).
			qp := q + sg/(hi-lo)*((n-lo+sg)*(qh-q)/(hi-n)+(hi-n-sg)*(q-ql)/(n-lo))
			if ql < qp && qp < qh {
				s.q[i+1] = qp
			} else if sg > 0 {
				s.q[i+1] = q + sg*(qh-q)/(hi-n)
			} else {
				s.q[i+1] = q + sg*(ql-q)/(lo-n)
			}
			s.n[i] += sg
		}
	}
}

// quantile returns the current estimate of the p-quantile. Before five
// observations it falls back to the order statistic of what has been seen
// (allocating a tiny sorted copy — this runs only from Snapshot, never on
// the frame path).
func (s *p2) quantile(p float64) float64 {
	if s.cnt >= 5 {
		return s.q[2]
	}
	if s.cnt == 0 {
		return 0
	}
	cnt := int(s.cnt)
	buf := append([]float64(nil), s.q[:cnt]...)
	sort.Float64s(buf)
	idx := int(p * float64(cnt))
	if idx >= cnt {
		idx = cnt - 1
	}
	return buf[idx]
}
