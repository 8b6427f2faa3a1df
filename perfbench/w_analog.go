package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/analog"
	"repro/internal/circuits"
	"repro/internal/mna"
	"repro/internal/obs"
)

// analog-ed: analog.BuildMatrix + SelectTestSet on the band-pass of
// Example 1, the Chebyshev filter of Table 3 and the state-variable
// board of Table 8. Non-paper variants move every element of the fault
// universe by a seeded factor within its 5% tolerance. A unit is one
// variant's pass (three matrices and test sets); a work item is one
// element × parameter cell.

// analogVariants is how many input variants an analog-ed run cycles
// through: three, so that a run repeats each about four times.
const analogVariants = 3

type analogCase struct {
	name     string
	paper    bool
	circuit  *mna.Circuit
	elements []string
	params   []analog.Parameter
}

func (a analogCase) cells() int64 { return int64(len(a.elements) * len(a.params)) }

// analogVariant builds variant k's three circuits, each reporting its
// MNA solve counters to col.
func analogVariant(seed int64, k int, col *obs.Collector) []analogCase {
	tol := analog.DefaultEDOptions().ElemTol
	specs := []struct {
		name   string
		build  func() *mna.Circuit
		elems  []string
		params []analog.Parameter
	}{
		{"bandpass", circuits.BandPass2, circuits.BandPassElements, circuits.BandPassParams()},
		{"chebyshev", circuits.Chebyshev5, circuits.ChebyshevElements, circuits.ChebyshevParams()},
		{"statevar", func() *mna.Circuit { return circuits.StateVariable(true) }, circuits.StateVarElements, circuits.StateVarParams()},
	}
	var out []analogCase
	for i, s := range specs {
		c := s.build()
		paper := paperVariant(seed, k)
		if !paper {
			r := rand.New(rand.NewSource(subSeed(seed, k, int64(i+1))))
			for _, e := range s.elems {
				c.SetValue(e, c.Value(e)*(1+tol*(2*r.Float64()-1)))
			}
		}
		c.Instrument(col)
		out = append(out, analogCase{name: s.name, paper: paper, circuit: c, elements: s.elems, params: s.params})
	}
	return out
}

// analogResult is one circuit's matrix and test set.
type analogResult struct {
	matrix *analog.Matrix
	set    *analog.TestSet
}

// key renders the matrix bit-exactly and the chosen set.
func (r analogResult) key() string {
	s := fmt.Sprint(r.set.ParamIdx)
	for _, row := range r.matrix.ED {
		for _, v := range row {
			s += fmt.Sprintf(" %x", math.Float64bits(v))
		}
	}
	return s
}

// analogPass builds the ED matrix and test set of every circuit of a
// variant.
func analogPass(cases []analogCase) ([]analogResult, error) {
	var outs []analogResult
	for _, ac := range cases {
		m, err := analog.BuildMatrix(ac.circuit, ac.elements, ac.params, analog.DefaultEDOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ac.name, err)
		}
		outs = append(outs, analogResult{matrix: m, set: m.SelectTestSet()})
	}
	return outs, nil
}

// checkAnalog is the oracle for one variant: every cell is a positive
// deviation within the search cap or unobservable; the test set covers
// every element some parameter observes; injecting each element's best
// deviation moves its parameter out of the tolerance box; and the paper
// variant reproduces Eq1, Table 3 and Table 8.
func checkAnalog(cases []analogCase, outs []analogResult, rep *report) {
	opt := analog.DefaultEDOptions()
	for i, ac := range cases {
		m, ts := outs[i].matrix, outs[i].set
		for ei, e := range m.Elements {
			best := math.Inf(1)
			for j := range m.Params {
				ed := m.ED[ei][j]
				if !(ed > 0) || (ed > opt.MaxDev && !math.IsInf(ed, 1)) {
					rep.mismatch("%s: ED(%s, %s) = %g is not a deviation", ac.name, e, m.Params[j].Name(), ed)
				}
				best = math.Min(best, ed)
			}
			if math.IsInf(best, 1) {
				continue
			}
			if math.IsInf(ts.ElementED[e], 1) {
				rep.mismatch("%s: the test set leaves observable element %s uncovered", ac.name, e)
			}
			// WorstCaseED's contract: a deviation of ±best takes the
			// parameter out of the tolerance box. Brent stops within 1e-6
			// of the crossing, so the check looks a hair either side of
			// it. Past the crossing the box may be re-entered: CutoffFreq
			// takes whichever −3 dB crossing Brent finds, and a
			// rippled response has several. That is noted, not failed.
			j := m.BestParamFor(e)
			at, past := 0.0, 0.0
			for _, sign := range []float64{1, -1} {
				for _, f := range []float64{1 - 1e-4, 1, 1 + 1e-4, 1.001} {
					d := sign * best * f
					if d <= -0.95 {
						continue
					}
					dev, err := analog.ParamDeviation(ac.circuit, e, m.Params[j], d)
					if err != nil {
						rep.mismatch("%s: injecting %s: %v", ac.name, e, err)
						continue
					}
					if f == 1.001 {
						past = math.Max(past, math.Abs(dev))
					} else {
						at = math.Max(at, math.Abs(dev))
					}
				}
			}
			if at < opt.Tol {
				rep.mismatch("%s: %s deviated by its ED %s moves %s by only %.4f", ac.name, e, pct(best), m.Params[j].Name(), at)
			} else if past < opt.Tol {
				rep.note("%s: %s deviated by 1.001 × its ED %s moves %s by only %.4f: the box is re-entered past the crossing",
					ac.name, e, pct(best), m.Params[j].Name(), past)
			}
		}
		if ac.paper {
			checkAnalogGolden(ac.name, m, ts, rep)
		}
	}
}

func runAnalog(e *env) (*report, error) {
	col := obs.NewCollector()
	variants, setupS, err := timeSetup(func() ([][]analogCase, error) {
		out := make([][]analogCase, analogVariants)
		for k := range out {
			out[k] = analogVariant(e.seed, k, col)
		}
		return out, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	var (
		heaps []float64
		outs  []analogResult
		seen  = map[int][]string{}
	)
	passes, err := measureCycles(e.budget, len(variants), func(v int) error {
		var err error
		outs, err = analogPass(variants[v])
		return err
	}, func(v int) error {
		heaps = append(heaps, retainedMB())
		runtime.KeepAlive(outs)
		var keys []string
		for i, o := range outs {
			rep.attempted += variants[v][i].cells()
			keys = append(keys, o.key())
		}
		if prev, ok := seen[v]; ok {
			for i := range keys {
				if keys[i] != prev[i] {
					rep.mismatch("variant %d %s: matrix differs between passes", v, variants[v][i].name)
				}
			}
			return nil
		}
		seen[v] = keys
		checkAnalog(variants[v], outs, rep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	runtime.KeepAlive(variants)
	cycles := len(passes) / len(variants)
	fmt.Fprintf(e.log, "analog-ed: %d cycles over %d variants in %.2fs measured\n", cycles, len(variants), sumSeconds(passes))
	rep.metrics["setup_s"] = setupS
	rep.metrics["work_per_s"] = float64(rep.attempted) / float64(cycles) / cycleSeconds(passes, len(variants))
	rep.metrics["unit_p50_ms"] = medianMs(passes)
	rep.metrics["retained_heap_mb"] = mean(heaps)
	rep.named("ed_cells_per_s", "1/s", rep.metrics["work_per_s"])
	return rep, nil
}

// tracedParam is the benchmark's own analog.Parameter: it wraps the
// circuit's parameter and puts an mna.measure span, and a heap
// allocation reading, around every Measure.
type tracedParam struct {
	analog.Parameter
	l      *lane
	allocs *float64
	sample []metrics.Sample
}

func (p tracedParam) Measure(c *mna.Circuit) (float64, error) {
	id := p.l.begin("mna.measure")
	before := allocBytes(p.sample)
	v, err := p.Parameter.Measure(c)
	*p.allocs += allocBytes(p.sample) - before
	p.l.end(id)
	return v, err
}

// tracedAnalogPass replays BuildMatrix from outside: an analog.ed span
// around each analog.WorstCaseED cell, with the parameters wrapped in
// tracedParam.
func tracedAnalogPass(cases []analogCase, l *lane, allocs *float64) ([]analogResult, error) {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	opt := analog.DefaultEDOptions()
	var outs []analogResult
	for _, ac := range cases {
		m := &analog.Matrix{Elements: ac.elements, Params: ac.params, ED: make([][]float64, len(ac.elements))}
		for i, e := range ac.elements {
			m.ED[i] = make([]float64, len(ac.params))
			for j, p := range ac.params {
				var (
					ed  float64
					err error
				)
				tp := tracedParam{Parameter: p, l: l, allocs: allocs, sample: sample}
				l.do("analog.ed", func() { ed, err = analog.WorstCaseED(ac.circuit, e, tp, ac.elements, opt) })
				if err != nil {
					return nil, fmt.Errorf("%s: ED(%s, %s): %w", ac.name, e, p.Name(), err)
				}
				m.ED[i][j] = ed
			}
		}
		outs = append(outs, analogResult{matrix: m, set: m.SelectTestSet()})
	}
	return outs, nil
}

// mnaSolves sums the MNA solve counters of the benchmark's collector
// and of obs.Default, which counts the solves of circuits built inside
// a parameter's Measure (the state-variable board's unclamped twin).
func mnaSolves(col *obs.Collector) int64 {
	var n int64
	for _, c := range []*obs.Collector{col, obs.Default} {
		n += c.Counter("mna.solves.dc").Load() + c.Counter("mna.solves.ac").Load()
	}
	return n
}

func traceAnalog(e *env) (*report, error) {
	col := obs.NewCollector()
	cases := analogVariant(e.seed, 0, col)
	rep := &report{metrics: map[string]float64{}}
	var (
		plain, traced, attributed []float64
		allocMB, gcPct            []float64
		totals                    = layerTotals{}
		solves                    int64
		measureAllocs             float64
		cells                     int64
	)
	for _, ac := range cases {
		cells += ac.cells()
	}
	clock := newRoundClock(e.budget)
	for round := 0; clock.next(round); round++ {
		before := readRuntime()
		start := time.Now()
		want, err := analogPass(cases)
		if err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(start).Seconds())
		a, g := runtimeDelta(before, readRuntime())
		allocMB, gcPct = append(allocMB, a), append(gcPct, g)

		l := newLane()
		s0 := mnaSolves(col)
		start = time.Now()
		got, err := tracedAnalogPass(cases, l, &measureAllocs)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		if round == 0 {
			solves = mnaSolves(col) - s0
			checkAnalog(cases, want, rep)
		}
		traced = append(traced, wall.Seconds())
		attributed = append(attributed, 100*covered(l.spans).Seconds()/wall.Seconds())
		totals.add(l.spans)
		for i := range want {
			if want[i].key() != got[i].key() {
				rep.mismatch("%s: traced ED matrix differs from BuildMatrix's", cases[i].name)
			}
		}
		rep.attempted += 2 * cells
	}
	n := len(traced)
	measure := totals.perPass("mna.measure", n)
	rep.metrics = map[string]float64{
		"analog.ed_s":               totals.perPass("analog.ed", n),
		"analog.ed_cells":           float64(cells),
		"mna.measure_s":             measure,
		"mna.solves":                float64(solves),
		"mna.ns_per_solve":          measure * 1e9 / float64(solves),
		"mna.alloc_bytes_per_solve": measureAllocs / float64(n) / float64(solves),
		"go.alloc_mb":               median(allocMB),
		"go.gc_cpu_pct":             median(gcPct),
		"trace.overhead_pct":        overheadPct(traced, plain),
		"trace.attributed_pct":      median(attributed),
		"fail_ratio":                float64(rep.failed) / float64(rep.attempted),
	}
	fmt.Fprintf(e.log, "analog-ed trace: %d rounds; pass %.2fs plain, %.2fs traced\n", n, median(plain), median(traced))
	return rep, nil
}
