package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none). xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(idx, len(s)-1))]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac is num/den, or 0 when den is not positive (nothing was counted).
func frac(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// repeatMedian runs f n times and returns the median wall time in ms.
func repeatMedian(n int, f func()) float64 {
	ts := make([]float64, n)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = ms(time.Since(t0))
	}
	return median(ts)
}

// setupTimer times one workload set-up. The set-up runs once when the
// timer is made, to pay the process's one-time costs (heap growth, first
// use of each code path, which inflated the first few of twenty
// serve-mixed set-ups by half), and is then timed in windows of several
// set-ups, after a collection each.
//
// The host's noise comes in bursts: a neighbour's load slowed every
// set-up for a second or more at a time, by up to 80% in CPU time. A run
// therefore times half its windows before the workload measures and half
// after, tens of seconds apart, and reports the median over all of them.
type setupTimer struct {
	f         func() error
	cpu, wall []float64 // seconds per set-up, one entry per window
}

func newSetupTimer(f func() error) (*setupTimer, error) {
	return &setupTimer{f: f}, f()
}

// measure times windows windows of per set-ups each.
func (st *setupTimer) measure(windows, per int) error {
	for range windows {
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		for range per {
			if err := st.f(); err != nil {
				return err
			}
		}
		st.cpu = append(st.cpu, (cpuTime()-c0).Seconds()/float64(per))
		st.wall = append(st.wall, time.Since(t0).Seconds()/float64(per))
	}
	return nil
}

// medians returns the median CPU and wall seconds per set-up over the
// windows measured.
func (st *setupTimer) medians() (cpuS, wallS float64) {
	return median(st.cpu), median(st.wall)
}

// cpuTime is the CPU time the process has used, user and system, over
// all its threads. Time the hypervisor steals from the guest is not
// counted, so per-operation CPU time stays steady on a shared host where
// wall time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler reads the process's resident set every rssEvery while a
// workload measures. The peak, and even a high percentile, depends on
// where the collector's cycles and the open loop's bursts happen to fall
// (the 95th percentile spread by 35% over five seeds on serve-mixed); the
// median of the samples does not (2.5%).
type rssSampler struct {
	stop chan struct{}
	done chan rssSamples
}

type rssSamples struct {
	mb  []float64
	err error
}

const rssEvery = 10 * time.Millisecond

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan rssSamples, 1)}
	go func() {
		var out rssSamples
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				out.err = err
			} else {
				out.mb = append(out.mb, mb)
			}
			select {
			case <-r.stop:
				r.done <- out
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// median stops the sampler and returns the median of its samples in MiB.
func (r *rssSampler) median() (float64, error) {
	close(r.stop)
	out := <-r.done
	if out.err != nil {
		return 0, out.err
	}
	return median(out.mb), nil
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, fmt.Errorf("resident set: malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// sameScores reports the first vertex where got and want differ by more
// than a relative 1e-9 (scores are sums of path-count ratios, so exact
// equality across summation orders is not expected).
func sameScores(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d scores, want %d", len(got), len(want))
	}
	for v := range want {
		if d := math.Abs(got[v] - want[v]); d > 1e-9*math.Max(1, math.Abs(want[v])) {
			return fmt.Errorf("vertex %d: score %.12g, want %.12g", v, got[v], want[v])
		}
	}
	return nil
}
