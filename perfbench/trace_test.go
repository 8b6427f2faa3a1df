package main

import (
	"testing"
	"time"
)

// TestSelfTimes checks self time on a hand-built span tree:
//
//	a [0,100]
//	  b [10,40]
//	    c [20,30]
//	  d [50,70]
//	a [200,210]
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "a", start: 0, end: 100, parent: -1},
		{name: "b", start: 10, end: 40, parent: 0},
		{name: "c", start: 20, end: 30, parent: 1},
		{name: "d", start: 50, end: 70, parent: 0},
		{name: "a", start: 200, end: 210, parent: -1},
	}
	want := map[string]time.Duration{"a": 60, "b": 20, "c": 10, "d": 20}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, got[name], d)
		}
	}
	if c := covered(spans); c != 110 {
		t.Errorf("covered = %d, want 110", c)
	}
	// Self times partition the covered time.
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != covered(spans) {
		t.Errorf("self times sum to %d, covered is %d", sum, covered(spans))
	}
}

func TestLaneNesting(t *testing.T) {
	l := newLane()
	l.do("outer", func() {
		l.do("inner", func() {})
		l.begin("abandoned")
		l.begin("deeper")
		l.closeTo(1) // as after a panic out of "abandoned"
	})
	if len(l.open) != 0 {
		t.Fatalf("%d spans left open", len(l.open))
	}
	wantParent := map[string]int{"outer": -1, "inner": 0, "abandoned": 0, "deeper": 2}
	for _, s := range l.spans {
		if s.parent != wantParent[s.name] {
			t.Errorf("span %s has parent %d, want %d", s.name, s.parent, wantParent[s.name])
		}
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
	if got := covered(l.spans); got != time.Duration(l.spans[0].end-l.spans[0].start) {
		t.Errorf("covered = %v, want the outer span's duration", got)
	}
}

func TestOverheadPct(t *testing.T) {
	if got := overheadPct([]float64{1.1, 1.2, 1.3}, []float64{1, 1, 1}); got < 19.99 || got > 20.01 {
		t.Errorf("overheadPct = %g, want 20", got)
	}
	if got := overheadPct([]float64{1}, nil); got != 0 {
		t.Errorf("overheadPct with no base = %g, want 0", got)
	}
}
