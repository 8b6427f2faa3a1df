package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/adc"
	"repro/internal/atpg"
	"repro/internal/bdd"
	"repro/internal/experiments"
	"repro/internal/faults"
)

// atpg-iscas: the Table 4 pair (free, then Fc-constrained Generator.Run)
// on the five ISCAS stand-ins. A unit is one variant's pass (ten
// Generators, each built and run); a work item is one collapsed fault
// classified.

// atpgOutput is what one Generator run produced, in comparable form.
type atpgOutput struct {
	vectors    []faults.Vector
	untestable []faults.Fault
	aborted    int // aborted or timed out
	detected   int
}

// key renders the outputs the traced and untraced runs must agree on.
func (o atpgOutput) key() string {
	var b strings.Builder
	for _, v := range o.vectors {
		b.WriteString(v.String())
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "| det=%d ab=%d untestable=", o.detected, o.aborted)
	for _, f := range sortedFaults(o.untestable) {
		fmt.Fprintf(&b, "%d/%d/%t ", f.Signal, f.Consumer, f.Value)
	}
	return b.String()
}

func sortedFaults(fs []faults.Fault) []faults.Fault {
	s := append([]faults.Fault(nil), fs...)
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.Signal != b.Signal {
			return a.Signal < b.Signal
		}
		if a.Consumer != b.Consumer {
			return a.Consumer < b.Consumer
		}
		return !a.Value && b.Value
	})
	return s
}

// comparatorBlock is the 15-comparator flash converter of Example 3.
func comparatorBlock() *adc.Flash {
	return adc.NewFlash(experiments.ComparatorCount, 0, float64(experiments.ComparatorCount+1))
}

// newGenerator builds the generator of one Table 4 run: the circuit's
// OBDDs and, for the constrained run, Fc over the bound inputs.
func newGenerator(dc digitalCase, constrained bool, opts ...atpg.Option) (*atpg.Generator, error) {
	g, err := atpg.New(dc.circuit, opts...)
	if err != nil {
		return nil, err
	}
	if constrained {
		g.SetConstraint(comparatorBlock().ConstraintBDD(g.Manager(), dc.binding))
	}
	return g, nil
}

// atpgPass runs the ten Table 4 runs of one variant through
// Generator.Run. keep, when not nil, receives the generators so the
// caller can measure the heap they retain.
func atpgPass(cases []digitalCase, keep *[]*atpg.Generator, opts ...atpg.Option) ([]atpgOutput, error) {
	var outs []atpgOutput
	for _, dc := range cases {
		for _, cons := range []bool{false, true} {
			g, err := newGenerator(dc, cons, opts...)
			if err != nil {
				return nil, err
			}
			res := g.Run(dc.faults)
			if keep != nil {
				*keep = append(*keep, g)
			}
			outs = append(outs, atpgOutput{
				vectors:    res.Vectors,
				untestable: res.Untestable,
				aborted:    len(res.Aborted) + len(res.TimedOut),
				detected:   res.Detected,
			})
		}
	}
	return outs, nil
}

// atpgCounts are the work counters of one traced pass.
type atpgCounts struct {
	targeted, simulated, dropped, vectors, nodes, peak int
}

// tracedATPGPass replays Generator.Run's loop from outside, in Run's
// order, with a span around each call into a layer: atpg.New and the
// constraint build (bdd.build), Generator.TestFunction
// (atpg.test_function), Manager.SatOneConstrained (atpg.satone) and
// Simulator.Detect on the pending faults (faults.detect). Faults whose
// test function is empty under Fc get Run's unconstrained re-check, so
// the BDD work matches Run's.
func tracedATPGPass(cases []digitalCase, l *lane, cnt *atpgCounts) ([]atpgOutput, error) {
	var outs []atpgOutput
	for _, dc := range cases {
		for _, cons := range []bool{false, true} {
			var (
				g   *atpg.Generator
				err error
			)
			l.do("bdd.build", func() { g, err = newGenerator(dc, cons) })
			if err != nil {
				return nil, err
			}
			out := tracedRun(g, dc, l, cnt)
			cnt.nodes += g.Manager().Size()
			cnt.peak = max(cnt.peak, g.Manager().PeakSize())
			cnt.vectors += len(out.vectors)
			outs = append(outs, out)
		}
	}
	return outs, nil
}

func tracedRun(g *atpg.Generator, dc digitalCase, l *lane, cnt *atpgCounts) atpgOutput {
	c, fs, m := dc.circuit, dc.faults, g.Manager()
	names := c.InputNames()
	sim := faults.NewSimulator(c)
	// state: 0 pending, 1 detected, 2 untestable, 3 aborted
	state := make([]byte, len(fs))
	var out atpgOutput
	for i := range fs {
		if state[i] != 0 {
			continue
		}
		cnt.targeted++
		var (
			assign bdd.Assignment
			ok     bool
		)
		depth := len(l.open)
		err := bdd.Guard(func() error {
			var s bdd.Ref
			l.do("atpg.test_function", func() { s = g.TestFunction(fs[i]) })
			l.do("atpg.satone", func() { assign, ok = m.SatOneConstrained(s, names) })
			return nil
		})
		if err != nil {
			l.closeTo(depth)
			state[i] = 3
			out.aborted++
			continue
		}
		if !ok {
			if g.Constraint() != bdd.True {
				fc := g.Constraint()
				g.SetConstraint(bdd.True)
				depth := len(l.open)
				if err := bdd.Guard(func() error {
					l.do("atpg.test_function", func() { g.TestFunction(fs[i]) })
					return nil
				}); err != nil {
					l.closeTo(depth) // Run reports such a fault "unknown"; still untestable
				}
				g.SetConstraint(fc)
			}
			state[i] = 2
			out.untestable = append(out.untestable, fs[i])
			continue
		}
		v := faults.VectorFromAssignment(c, assign)
		out.vectors = append(out.vectors, v)
		var idx []int
		for j, st := range state {
			if st == 0 {
				idx = append(idx, j)
			}
		}
		rem := make([]faults.Fault, len(idx))
		for j, fi := range idx {
			rem[j] = fs[fi]
		}
		var det []int
		l.do("faults.detect", func() { det = sim.Detect([]faults.Vector{v}, rem) })
		cnt.simulated += len(rem)
		for j, d := range det {
			if d >= 0 {
				state[idx[j]] = 1
				out.detected++
				cnt.dropped++
			}
		}
	}
	return out
}

// checkATPG is the oracle for one variant's ten runs: the scalar
// evaluator must find that the vector set detects exactly the faults
// the run counted as detected, every constrained vector must drive the
// comparator inputs with a thermometer code, and the paper variant must
// reproduce Table 4.
func checkATPG(cases []digitalCase, outs []atpgOutput, rep *report) {
	for ci, dc := range cases {
		nl, err := newNetlist(dc.circuit)
		if err != nil {
			rep.mismatch("%s: %v", dc.name, err)
			continue
		}
		fs := make([]stuck, len(dc.faults))
		for i, f := range dc.faults {
			fs[i] = stuck{sig: int(f.Signal), consumer: int(f.Consumer), value: f.Value}
		}
		for ri, cfg := range []string{"free", "constrained"} {
			o := outs[2*ci+ri]
			pats := make([][]bool, len(o.vectors))
			for i, v := range o.vectors {
				pats[i] = v
			}
			det := nl.detected(pats, fs)
			untestable := map[stuck]bool{}
			for _, f := range o.untestable {
				untestable[stuck{sig: int(f.Signal), consumer: int(f.Consumer), value: f.Value}] = true
			}
			n := 0
			for i, d := range det {
				if d {
					n++
					if untestable[fs[i]] {
						rep.mismatch("%s %s: fault %v reported untestable but a vector detects it", dc.name, cfg, fs[i])
					}
				}
			}
			if n != o.detected {
				rep.mismatch("%s %s: vectors detect %d faults, run reports %d", dc.name, cfg, n, o.detected)
			}
			if n+len(o.untestable)+o.aborted != len(fs) {
				rep.mismatch("%s %s: %d detected + %d untestable + %d aborted != %d faults",
					dc.name, cfg, n, len(o.untestable), o.aborted, len(fs))
			}
			if ri == 1 {
				for _, p := range pats {
					bits, err := nl.boundBits(p, dc.binding)
					if err != nil || !thermometer(bits) {
						rep.mismatch("%s constrained: vector %s violates Fc", dc.name, faults.Vector(p))
					}
				}
			}
		}
		if dc.paper {
			checkTable4(dc, outs[2*ci], outs[2*ci+1], rep)
		}
	}
}

func runISCAS(e *env) (*report, error) {
	variants, setupS, err := timeSetup(func() ([][]digitalCase, error) {
		return buildDigital(e.seed, digitalVariants)
	}, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	var (
		heaps   []float64
		keep    []*atpg.Generator
		outs    []atpgOutput
		seen    = map[int][]atpgOutput{}
		vectors int
	)
	passes, err := measureCycles(e.budget, len(variants), func(v int) error {
		var err error
		outs, err = atpgPass(variants[v], &keep)
		return err
	}, func(v int) error {
		heaps = append(heaps, retainedMB())
		runtime.KeepAlive(keep)
		keep = nil
		for i, o := range outs {
			rep.attempted += int64(len(variants[v][i/2].faults))
			rep.failed += int64(o.aborted)
			vectors += len(o.vectors)
		}
		checkRepeat(v, outs, seen, rep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for v, o := range seen {
		checkATPG(variants[v], o, rep)
	}
	cycles := len(passes) / len(variants)
	fmt.Fprintf(e.log, "atpg-iscas: %d cycles over %d variants in %.2fs measured\n", cycles, len(variants), sumSeconds(passes))
	rep.metrics["setup_s"] = setupS
	rep.metrics["work_per_s"] = float64(rep.attempted) / float64(cycles) / cycleSeconds(passes, len(variants))
	rep.metrics["unit_p50_ms"] = medianMs(passes)
	rep.metrics["retained_heap_mb"] = mean(heaps)
	rep.named("faults_per_s", "1/s", rep.metrics["work_per_s"])
	rep.named("test_vectors", "count", float64(vectors/cycles))
	return rep, nil
}

// checkRepeat records the first outputs of each variant and requires
// every later pass over the same variant to reproduce them exactly.
func checkRepeat(v int, outs []atpgOutput, seen map[int][]atpgOutput, rep *report) {
	prev, ok := seen[v]
	if !ok {
		seen[v] = outs
		return
	}
	for i := range outs {
		if outs[i].key() != prev[i].key() {
			rep.mismatch("variant %d run %d: outputs differ between passes", v, i)
		}
	}
}

func traceISCAS(e *env) (*report, error) {
	cases, err := digitalVariant(e.seed, 0)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	var (
		plain, nilCol, traced []float64
		allocMB, gcPct        []float64
		attributed            []float64
		totals                = layerTotals{}
		first                 atpgCounts
	)
	clock := newRoundClock(e.budget)
	for round := 0; clock.next(round); round++ {
		before := readRuntime()
		start := time.Now()
		want, err := atpgPass(cases, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, time.Since(start).Seconds())
		a, g := runtimeDelta(before, readRuntime())
		allocMB, gcPct = append(allocMB, a), append(gcPct, g)

		start = time.Now()
		if _, err := atpgPass(cases, nil, atpg.WithCollector(nil)); err != nil {
			return nil, err
		}
		nilCol = append(nilCol, time.Since(start).Seconds())

		var cnt atpgCounts
		l := newLane()
		start = time.Now()
		got, err := tracedATPGPass(cases, l, &cnt)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		traced = append(traced, wall.Seconds())
		attributed = append(attributed, 100*covered(l.spans).Seconds()/wall.Seconds())
		totals.add(l.spans)
		if round == 0 {
			first = cnt
		}
		for i := range want {
			if want[i].key() != got[i].key() {
				rep.mismatch("%s run %d: traced outputs differ from Generator.Run's", cases[i/2].name, i%2)
			}
			rep.attempted += int64(len(cases[i/2].faults))
			rep.failed += int64(want[i].aborted)
		}
		if round == 0 {
			checkATPG(cases, want, rep)
		}
	}
	n := len(traced)
	detect := totals.perPass("faults.detect", n)
	rep.metrics = map[string]float64{
		"bdd.build_s":             totals.perPass("bdd.build", n),
		"bdd.nodes_alloc":         float64(first.nodes),
		"bdd.peak_nodes":          float64(first.peak),
		"atpg.test_function_s":    totals.perPass("atpg.test_function", n),
		"atpg.satone_s":           totals.perPass("atpg.satone", n),
		"atpg.faults_targeted":    float64(first.targeted),
		"atpg.test_vectors":       float64(first.vectors),
		"faults.detect_s":         detect,
		"faults.faults_simulated": float64(first.simulated),
		"faults.ns_per_fault":     detect * 1e9 / float64(first.simulated),
		"faults.useful_ratio":     float64(first.dropped) / float64(first.simulated),
		"go.alloc_mb":             median(allocMB),
		"go.gc_cpu_pct":           median(gcPct),
		"obs.overhead_pct":        overheadPct(plain, nilCol),
		"trace.overhead_pct":      overheadPct(traced, plain),
		"trace.attributed_pct":    median(attributed),
		"fail_ratio":              float64(rep.failed) / float64(rep.attempted),
	}
	fmt.Fprintf(e.log, "atpg-iscas trace: %d rounds; pass %.2fs plain, %.2fs nil collector, %.2fs traced\n",
		n, median(plain), median(nilCol), median(traced))
	return rep, nil
}
