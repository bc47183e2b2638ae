package main

import (
	"errors"
	"sync"
	"syscall"
	"time"
)

// worker is one client goroutine's share of a measurement window: its
// latency sample and its per-second work slices. Nothing in it is shared
// until the loop that owns it returns.
type worker struct {
	lat       []time.Duration
	late      []time.Duration // open loop: send time minus due time
	spin      time.Duration   // open loop: time spent spinning on the clock before sends
	slices    *slicer
	attempted int
	failed    int
}

// timed runs one request whose latency counts from origin (its send time
// in a closed loop, its due time in an open loop) and credits work to the
// slices its run overlaps.
func (w *worker) timed(origin time.Time, work float64, do func() error) error {
	sent := time.Now()
	err := do()
	end := time.Now()
	w.attempted++
	if err != nil {
		w.failed++
		w.lat = append(w.lat, failedLatency)
		return err
	}
	w.lat = append(w.lat, end.Sub(origin))
	w.slices.add(sent, end, work)
	return nil
}

// window is the merged result of one loop's workers.
type window struct {
	workers []*worker
	slices  *slicer
	lat     []time.Duration
	late    []time.Duration
	spin    time.Duration
	elapsed time.Duration
}

func (wd *window) attempted() (n int) {
	for _, w := range wd.workers {
		n += w.attempted
	}
	return n
}

func (wd *window) failed() (n int) {
	for _, w := range wd.workers {
		n += w.failed
	}
	return n
}

// runLoop starts n workers on body and waits for them. body(g, w) is
// called repeatedly until the window's deadline passes; an error stops that
// worker (the failure is already counted by timed).
func runLoop(n int, length time.Duration, body func(g int, w *worker) error) *window {
	begin := time.Now()
	deadline := begin.Add(length)
	wd := &window{slices: newSlicer(begin, length)}
	for g := 0; g < n; g++ {
		wd.workers = append(wd.workers, &worker{slices: newSlicer(begin, length)})
	}
	var wg sync.WaitGroup
	for g, w := range wd.workers {
		wg.Add(1)
		go func(g int, w *worker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := body(g, w); err != nil {
					return
				}
			}
		}(g, w)
	}
	wg.Wait()
	wd.elapsed = time.Since(begin)
	for _, w := range wd.workers {
		wd.slices.merge(w.slices)
		wd.lat = append(wd.lat, w.lat...)
		wd.late = append(wd.late, w.late...)
		wd.spin += w.spin
	}
	return wd
}

// errSchedule ends an open-loop worker once the schedule is exhausted.
var errSchedule = errors.New("schedule exhausted")

// openLoop sends the scheduled arrivals over n workers that take them in
// due order from one shared queue; a worker that is free before an
// arrival is due waits for it. Each latency counts from the due time, so a
// stall also charges the requests queued behind it, and the wait between
// due and send time is recorded as the generator's lateness.
func openLoop(n int, sched []arrival, do func(g int, a arrival) error) *window {
	var mu sync.Mutex
	next := 0
	begin := time.Now()
	// The schedule, not the clock, ends an open loop; the deadline a minute
	// after the last arrival only bounds a server that stops answering.
	length := time.Minute
	if len(sched) > 0 {
		length += sched[len(sched)-1].due
	}
	return runLoop(n, length, func(g int, w *worker) error {
		mu.Lock()
		i := next
		next++
		mu.Unlock()
		if i >= len(sched) {
			return errSchedule
		}
		a := sched[i]
		due := begin.Add(a.due)
		w.spin += waitUntil(due)
		w.late = append(w.late, time.Since(due))
		return w.timed(due, 0, func() error { return do(g, a) })
	})
}

// waitSlack is how much of a wait waitUntil spins instead of sleeping: a
// little more than the kernel's default 50 µs timer slack.
const waitSlack = 80 * time.Microsecond

// waitUntil blocks until t to within a few microseconds and returns how
// long it spun. time.Sleep cannot do that for the sub-millisecond gaps of an
// open loop: when a processor has nothing else to run, the Go runtime waits
// in its network poller in whole milliseconds, so a 100 µs sleep lasts about
// 1 ms. A nanosleep system call sleeps to within the kernel's timer slack;
// the rest is a spin on the clock, which takes a CPU from the server it
// shares the host with (reported as loadgen.spin_cpu_pct).
func waitUntil(t time.Time) time.Duration {
	if d := time.Until(t) - waitSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	from := time.Now()
	now := from
	for now.Before(t) {
		now = time.Now()
	}
	return now.Sub(from)
}
