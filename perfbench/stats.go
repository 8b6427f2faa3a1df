package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
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

// tailLadder is the set of percentiles a tail latency is chosen from.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile applies the benchmark's tail rule: the highest
// percentile of tailLadder that still has at least ten samples beyond
// it, by the nearest-rank definition (the p-th percentile is the
// ceil(p/100·n)-th smallest sample). ok is false when even the median
// has fewer than ten samples beyond it.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		// The epsilon keeps float error in p/100 (99.9 is inexact) from
		// pushing an exact rank up by one.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 {
			rank = 1
		}
		if n-rank < 10 {
			break
		}
		pct, value, ok = p, s[rank-1], true
	}
	return pct, value, ok
}

// splitmix is the SplitMix64 finaliser: it derives independent,
// reproducible sub-seeds from the workload seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the seed of one input from the workload seed, the
// input variant and a per-input key.
func subSeed(seed int64, variant int, key int64) int64 {
	h := splitmix(uint64(seed))
	h = splitmix(h ^ uint64(variant))
	h = splitmix(h ^ uint64(key))
	return int64(h >> 1)
}

// paperVariant reports whether input variant k under seed is the one the
// paper's tables were produced from.
func paperVariant(seed int64, k int) bool { return seed == DefaultSeed && k == 0 }

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 21

// timeSetup runs build setupReps times, each on a freshly collected
// heap, and returns the last result with the median duration in
// seconds. release, when not nil, disposes of each earlier result
// outside the timed region.
func timeSetup[T any](build func() (T, error), release func(T) error) (T, float64, error) {
	var (
		out   T
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if i > 0 && release != nil {
			if err := release(out); err != nil {
				return out, 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return out, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		out = v
	}
	return out, median(times), nil
}

// Go runtime counters read around a pass.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// rtSnap is one reading of rtNames.
type rtSnap struct {
	allocBytes, gcCPU, totalCPU, liveBytes float64
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSnap{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2), liveBytes: val(3)}
}

// allocBytes reads the cumulative heap allocation counter alone; the
// per-call form used inside the traced analog run.
func allocBytes(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// retainedMB forces a collection and returns the live heap in MB. The
// caller keeps the pass's objects reachable across the call.
func retainedMB() float64 {
	runtime.GC()
	return readRuntime().liveBytes / (1 << 20)
}

// runtimeDelta turns two readings into go.alloc_mb and go.gc_cpu_pct.
func runtimeDelta(before, after rtSnap) (allocMB, gcPct float64) {
	allocMB = (after.allocBytes - before.allocBytes) / (1 << 20)
	if total := after.totalCPU - before.totalCPU; total > 0 {
		gcPct = 100 * (after.gcCPU - before.gcCPU) / total
	}
	return allocMB, gcPct
}

// measureCycles measures whole cycles over a run's input variants: a
// cycle calls pass(v) once for every variant v in turn, and after(v)
// after each pass, outside the measured time (heap readings, oracle
// checks). It runs at least one cycle and stops once another cycle of
// the same length would overrun budget, so the mix of inputs behind a
// metric never depends on how fast the program is. It returns the
// duration of every pass in order.
func measureCycles(budget time.Duration, variants int, pass func(v int) error, after func(v int) error) ([]time.Duration, error) {
	var (
		passes   []time.Duration
		measured time.Duration
	)
	for {
		var cycle time.Duration
		for v := 0; v < variants; v++ {
			start := time.Now()
			if err := pass(v); err != nil {
				return nil, err
			}
			d := time.Since(start)
			passes = append(passes, d)
			cycle += d
			if after != nil {
				if err := after(v); err != nil {
					return nil, err
				}
			}
		}
		measured += cycle
		if measured+cycle > budget {
			return passes, nil
		}
	}
}

// roundClock paces a traced run's rounds: there is at least one, and
// no further round once another as long as the last would overrun the
// budget.
type roundClock struct {
	start, last time.Time
	budget      time.Duration
}

func newRoundClock(budget time.Duration) *roundClock {
	now := time.Now()
	return &roundClock{start: now, last: now, budget: budget}
}

// next reports whether round may start.
func (c *roundClock) next(round int) bool {
	now := time.Now()
	last := now.Sub(c.last)
	c.last = now
	return round == 0 || now.Sub(c.start)+last <= c.budget
}

// sumSeconds is the total of ds in seconds.
func sumSeconds(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

// cycleSeconds is the length of a typical cycle: the sum, over the
// variants, of each variant's median pass time. passes is in the order
// measureCycles returns. Interference from other processes only ever
// slows a pass, so a median per variant keeps a burst of it out of the
// figure.
func cycleSeconds(passes []time.Duration, variants int) float64 {
	var total float64
	for v := 0; v < variants; v++ {
		var xs []float64
		for i := v; i < len(passes); i += variants {
			xs = append(xs, passes[i].Seconds())
		}
		total += median(xs)
	}
	return total
}

// medianMs is the median of ds in milliseconds.
func medianMs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return median(xs)
}

// mean is the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
