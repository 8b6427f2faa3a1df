package main

import (
	"time"
)

// span is one recorded call into a layer: its name, its start and end in
// nanoseconds since the lane's origin, and the index of the enclosing
// span on the same lane (-1 at the top).
type span struct {
	name       string
	start, end int64
	parent     int
}

// lane records the spans of one goroutine. Spans on a lane nest
// strictly: a span begun inside another ends before it.
type lane struct {
	origin time.Time
	spans  []span
	open   []int
}

func newLane() *lane { return &lane{origin: time.Now()} }

func (l *lane) now() int64 { return int64(time.Since(l.origin)) }

// begin opens a span and returns its index for end.
func (l *lane) begin(name string) int {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, start: l.now(), parent: parent})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (l *lane) end(id int) {
	l.spans[id].end = l.now()
	l.open = l.open[:len(l.open)-1]
}

// closeTo ends every span opened above depth, for a call that panicked
// out of its span.
func (l *lane) closeTo(depth int) {
	for len(l.open) > depth {
		l.end(l.open[len(l.open)-1])
	}
}

// do runs fn inside a span.
func (l *lane) do(name string, fn func()) {
	id := l.begin(name)
	fn()
	l.end(id)
}

// selfTimes sums, per span name, each span's duration minus the
// durations of its direct children: the time the layer spent in its
// own code rather than in the layers it called.
func selfTimes(spans []span) map[string]time.Duration {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.name] += time.Duration(self[i])
	}
	return out
}

// covered is the total duration of the top-level spans: the part of
// the lane's wall time attributed to a named layer.
func covered(spans []span) time.Duration {
	var d int64
	for _, s := range spans {
		if s.parent < 0 {
			d += s.end - s.start
		}
	}
	return time.Duration(d)
}

// layerTotals accumulates self times over traced passes.
type layerTotals map[string]time.Duration

func (t layerTotals) add(spans []span) {
	for name, d := range selfTimes(spans) {
		t[name] += d
	}
}

// perPass returns the named layer's mean self time per pass in seconds.
func (t layerTotals) perPass(name string, passes int) float64 {
	if passes == 0 {
		return 0
	}
	return t[name].Seconds() / float64(passes)
}

// overheadPct is (slow − base)/base in percent, over the medians of
// each side's pass times.
func overheadPct(slow, base []float64) float64 {
	b := median(base)
	if b == 0 {
		return 0
	}
	return 100 * (median(slow) - b) / b
}
