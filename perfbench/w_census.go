package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/waveform"
)

// mixed-census: Table 5. Each digital block sits behind the Chebyshev
// filter and the 15-comparator flash; core.NewPropagator builds its
// OBDDs with D last and Mixed.CensusPropagation probes every comparator
// with D and D̄. A unit is one variant's pass (the five censuses, each a
// build and its probes); a work item is one propagation.

type censusCase struct {
	digitalCase
	mx *core.Mixed
}

// censusVariants is how many input variants a census run cycles
// through: two, so that a run repeats each about three times.
const censusVariants = 2

// buildCensus builds the first n census variants.
func buildCensus(seed int64, n int) ([][]censusCase, error) {
	digital, err := buildDigital(seed, n)
	if err != nil {
		return nil, err
	}
	out := make([][]censusCase, len(digital))
	for k, cases := range digital {
		for _, dc := range cases {
			mx, err := core.NewMixed(circuits.Chebyshev5(), circuits.ChebyshevOutput, comparatorBlock(), dc.circuit, dc.binding)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", dc.name, err)
			}
			out[k] = append(out[k], censusCase{digitalCase: dc, mx: mx})
		}
	}
	return out, nil
}

// censusKey renders a census for comparison.
func censusKey(c *core.PropagationCensus) string {
	return fmt.Sprintf("low=%v high=%v", c.BlockedLow, c.BlockedHigh)
}

func propagations(mx *core.Mixed) int64 { return 2 * int64(mx.Conv.NumComparators()) }

// censusPass runs Mixed.CensusPropagation on every circuit of a variant.
// keep, when not nil, receives the propagators so the caller can
// measure the heap they retain.
func censusPass(cases []censusCase, keep *[]*core.Propagator) ([]*core.PropagationCensus, error) {
	var outs []*core.PropagationCensus
	for _, cc := range cases {
		p, err := core.NewPropagator(cc.mx)
		if err != nil {
			return nil, err
		}
		census, err := cc.mx.CensusPropagation(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cc.name, err)
		}
		if keep != nil {
			*keep = append(*keep, p)
		}
		outs = append(outs, census)
	}
	return outs, nil
}

// censusPattern is the digital input pattern the comparator background
// of target k produces, with the target comparator reading d and the
// free inputs taken from free.
func censusPattern(nl *netlist, mx *core.Mixed, k int, d bool, free func(name string) bool) []bool {
	pat := make([]bool, len(nl.inputs))
	for name, i := range nl.inIdx {
		switch j := mx.BoundComparator(name); {
		case j == 0:
			pat[i] = free(name)
		case j < k:
			pat[i] = true
		case j == k:
			pat[i] = d
		}
	}
	return pat
}

// censusWitness reports whether the free-input assignment makes some
// primary output differ between the good (D = 1) and faulty (D = 0)
// readings of comparator k.
func censusWitness(nl *netlist, mx *core.Mixed, k int, free func(string) bool) bool {
	return !equalBools(nl.simulate(censusPattern(nl, mx, k, true, free), nil),
		nl.simulate(censusPattern(nl, mx, k, false, free), nil))
}

// censusProbes is how many random free-input assignments the oracle
// tries per comparator.
const censusProbes = 128

// checkCensus is the oracle for one variant: random scalar simulation
// of each comparator's background must not find a propagating
// assignment for a comparator the census calls blocked, and the paper
// variant must reproduce Table 5.
func checkCensus(seed int64, v int, cases []censusCase, outs []*core.PropagationCensus, rep *report) {
	rng := rand.New(rand.NewSource(subSeed(seed, v, 5)))
	for i, cc := range cases {
		nl, err := newNetlist(cc.circuit)
		if err != nil {
			rep.mismatch("%s: %v", cc.name, err)
			continue
		}
		blocked := map[int]bool{}
		for _, k := range outs[i].BlockedLow {
			blocked[k] = true
		}
		for _, k := range outs[i].BlockedHigh {
			blocked[k] = true
		}
		for k := 1; k <= cc.mx.Conv.NumComparators(); k++ {
			if !blocked[k] {
				continue
			}
			for r := 0; r < censusProbes; r++ {
				bits := map[string]bool{}
				for _, n := range cc.mx.FreeInputs() {
					bits[n] = rng.Intn(2) == 1
				}
				if censusWitness(nl, cc.mx, k, func(n string) bool { return bits[n] }) {
					rep.mismatch("%s: comparator %d reported blocked, but an assignment propagates it", cc.name, k)
					break
				}
			}
		}
		if cc.paper {
			checkTable5(cc.name, outs[i], rep)
		}
	}
}

func runCensus(e *env) (*report, error) {
	variants, setupS, err := timeSetup(func() ([][]censusCase, error) { return buildCensus(e.seed, censusVariants) }, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	var (
		heaps []float64
		keep  []*core.Propagator
		outs  []*core.PropagationCensus
		seen  = map[int][]string{}
	)
	passes, err := measureCycles(e.budget, len(variants), func(v int) error {
		var err error
		outs, err = censusPass(variants[v], &keep)
		return err
	}, func(v int) error {
		heaps = append(heaps, retainedMB())
		runtime.KeepAlive(keep)
		keep = nil
		var keys []string
		for i, c := range outs {
			rep.attempted += propagations(variants[v][i].mx)
			keys = append(keys, censusKey(c))
		}
		if prev, ok := seen[v]; ok {
			for i := range keys {
				if keys[i] != prev[i] {
					rep.mismatch("variant %d %s: census differs between passes", v, variants[v][i].name)
				}
			}
			return nil
		}
		seen[v] = keys
		checkCensus(e.seed, v, variants[v], outs, rep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	cycles := len(passes) / len(variants)
	fmt.Fprintf(e.log, "mixed-census: %d cycles over %d variants in %.2fs measured\n", cycles, len(variants), sumSeconds(passes))
	rep.metrics["setup_s"] = setupS
	rep.metrics["work_per_s"] = float64(rep.attempted) / float64(cycles) / cycleSeconds(passes, len(variants))
	rep.metrics["unit_p50_ms"] = medianMs(passes)
	rep.metrics["retained_heap_mb"] = mean(heaps)
	rep.named("propagations_per_s", "1/s", rep.metrics["work_per_s"])
	return rep, nil
}

// tracedCensusPass replays CensusPropagation from outside: a bdd.build
// span around core.NewPropagator and a core.propagate span around each
// Propagator.Propagate call. Every propagation's vector is re-checked
// with the scalar evaluator.
func tracedCensusPass(cases []censusCase, nls []*netlist, l *lane, rep *report) ([]*core.PropagationCensus, int, int, error) {
	var (
		outs        []*core.PropagationCensus
		nodes, peak int
	)
	for ci, cc := range cases {
		var (
			p   *core.Propagator
			err error
		)
		l.do("bdd.build", func() { p, err = core.NewPropagator(cc.mx) })
		if err != nil {
			return nil, 0, 0, err
		}
		nl, n := nls[ci], cc.mx.Conv.NumComparators()
		census := &core.PropagationCensus{AllowedEither: map[int]bool{}}
		for k := 1; k <= n; k++ {
			for _, v := range []waveform.Composite{waveform.D, waveform.DBar} {
				var (
					res core.PropResult
					ok  bool
				)
				l.do("core.propagate", func() { res, ok, err = p.Propagate(core.ComparatorPattern(n, k, v)) })
				if err != nil {
					return nil, 0, 0, fmt.Errorf("%s: %w", cc.name, err)
				}
				switch {
				case !ok && v == waveform.D:
					census.BlockedLow = append(census.BlockedLow, k)
				case !ok:
					census.BlockedHigh = append(census.BlockedHigh, k)
				default:
					census.AllowedEither[k] = true
					if !censusWitness(nl, cc.mx, k, func(name string) bool { return res.Vector[name] }) {
						rep.mismatch("%s: comparator %d %v: the propagation vector does not observe D", cc.name, k, v)
					}
				}
			}
		}
		m := p.Generator().Manager()
		nodes += m.Size()
		peak = max(peak, m.PeakSize())
		outs = append(outs, census)
	}
	return outs, nodes, peak, nil
}

func traceCensus(e *env) (*report, error) {
	variants, err := buildCensus(e.seed, 1)
	if err != nil {
		return nil, err
	}
	cases := variants[0]
	nls := make([]*netlist, len(cases))
	for i, cc := range cases {
		if nls[i], err = newNetlist(cc.circuit); err != nil {
			return nil, err
		}
	}
	rep := &report{metrics: map[string]float64{}}
	var (
		plain, traced, attributed []float64
		allocMB, gcPct            []float64
		totals                    = layerTotals{}
		nodes, peak               int
		props                     int64
	)
	clock := newRoundClock(e.budget)
	for round := 0; clock.next(round); round++ {
		before := readRuntime()
		start := time.Now()
		want, err := censusPass(cases, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(start).Seconds())
		a, g := runtimeDelta(before, readRuntime())
		allocMB, gcPct = append(allocMB, a), append(gcPct, g)

		l := newLane()
		start = time.Now()
		got, n, pk, err := tracedCensusPass(cases, nls, l, rep)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		traced = append(traced, wall.Seconds())
		attributed = append(attributed, 100*covered(l.spans).Seconds()/wall.Seconds())
		totals.add(l.spans)
		if round == 0 {
			nodes, peak = n, pk
			checkCensus(e.seed, 0, cases, want, rep)
		}
		props = 0
		for i := range want {
			if censusKey(want[i]) != censusKey(got[i]) {
				rep.mismatch("%s: traced census %s differs from CensusPropagation's %s",
					cases[i].name, censusKey(got[i]), censusKey(want[i]))
			}
			props += propagations(cases[i].mx)
		}
		rep.attempted += 2 * props
	}
	n := len(traced)
	rep.metrics = map[string]float64{
		"bdd.build_s":          totals.perPass("bdd.build", n),
		"bdd.nodes_alloc":      float64(nodes),
		"bdd.peak_nodes":       float64(peak),
		"core.propagate_s":     totals.perPass("core.propagate", n),
		"core.propagations":    float64(props),
		"go.alloc_mb":          median(allocMB),
		"go.gc_cpu_pct":        median(gcPct),
		"trace.overhead_pct":   overheadPct(traced, plain),
		"trace.attributed_pct": median(attributed),
		"fail_ratio":           float64(rep.failed) / float64(rep.attempted),
	}
	fmt.Fprintf(e.log, "mixed-census trace: %d rounds; pass %.2fs plain, %.2fs traced\n", n, median(plain), median(traced))
	return rep, nil
}
