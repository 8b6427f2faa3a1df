package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/service"
)

// daemon-jobs: an in-process service.Daemon (one job at a time, fresh
// state directory) on a loopback listener. Two closed-loop clients each
// submit a job over HTTP, poll it to a terminal state, fetch its result
// and submit the next. Jobs cycle through a pool of distinct seeded
// inline netlists (c432 and c499 sized) and two built-in chebyshev jobs
// that carry Fc; every job asks for two shard workers. A unit is one job
// from submit to fetched result; a work item is one job done with a
// correct result.

const (
	jobPool      = 32 // distinct job specs per run; a pass runs each once
	jobClients   = 2  // closed-loop clients
	jobWorkers   = 2  // shard workers per job
	pollInterval = 5 * time.Millisecond
)

// jobSpecs builds the run's spec pool: netlists from the c432 and c499
// profiles under seeded generator seeds, with a chebyshev job at every
// eighth slot.
func jobSpecs(seed int64) ([]service.JobSpec, error) {
	var specs []service.JobSpec
	digital := []string{"c432", "c499"}
	for i := 0; i < jobPool; i++ {
		if i%8 == 7 {
			specs = append(specs, service.JobSpec{Circuit: "chebyshev", Digital: digital[i/8%2], Workers: jobWorkers})
			continue
		}
		p := iscas.Profiles[digital[i%2]]
		p.Seed = subSeed(seed, i, p.Seed)
		c, err := iscas.Generate(p)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		if err := c.WriteBench(&b); err != nil {
			return nil, err
		}
		specs = append(specs, service.JobSpec{Bench: b.String(), Workers: jobWorkers})
	}
	return specs, nil
}

// daemonRig is a running daemon and its HTTP address.
type daemonRig struct {
	d      *service.Daemon
	dir    string
	base   string
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(state string) (*daemonRig, error) {
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(state, "daemon-")
	if err != nil {
		return nil, err
	}
	d, err := service.New(service.Config{Dir: dir, MaxConcurrent: 1, DefaultWorkers: jobWorkers, Collector: obs.NewCollector()})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rig := &daemonRig{d: d, dir: dir, base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { rig.done <- d.Serve(ctx, ln) }()
	return rig, nil
}

// stop drains the daemon, waits for Serve to return and removes its
// state directory.
func (r *daemonRig) stop() error {
	r.cancel()
	err := <-r.done
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	return err
}

func (r *daemonRig) journalBytes() float64 {
	st, err := os.Stat(filepath.Join(r.dir, "jobs.json"))
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// jobRecord is what a client observed for one job.
type jobRecord struct {
	spec               int // index into the spec pool
	ok                 bool
	state              service.JobState
	result             []byte
	latency, submit    time.Duration
	queueWait, runTime time.Duration
	failure            string
}

// client is one closed-loop caller of the daemon's HTTP API.
type client struct {
	base string
	hc   *http.Client
	l    *lane // nil when untraced
}

func (c *client) span(name string, fn func() error) error {
	if c.l == nil {
		return fn()
	}
	id := c.l.begin(name)
	err := fn()
	c.l.end(id)
	return err
}

func (c *client) call(method, path string, body []byte, out any) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, data, err
		}
	}
	return resp.StatusCode, data, nil
}

// job runs one spec through submit, poll and result.
func (c *client) job(idx int, spec []byte) jobRecord {
	rec := jobRecord{spec: idx}
	start := time.Now()
	err := c.span("service.job", func() error {
		var j service.Job
		var status int
		err := c.span("service.submit", func() error {
			t := time.Now()
			var err error
			status, _, err = c.call(http.MethodPost, "/api/v1/jobs", spec, &j)
			rec.submit = time.Since(t)
			return err
		})
		if err != nil {
			return err
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("submit answered %d", status)
		}
		for !j.State.Terminal() {
			time.Sleep(pollInterval)
			if err := c.span("service.poll", func() error {
				status, _, err := c.call(http.MethodGet, "/api/v1/jobs/"+j.ID, nil, &j)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("poll answered %d", status)
				}
				return err
			}); err != nil {
				return err
			}
		}
		rec.state = j.State
		rec.queueWait = time.Duration(j.StartedNs - j.SubmittedNs)
		rec.runTime = time.Duration(j.FinishedNs - j.StartedNs)
		if j.State != service.StateDone {
			return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
		}
		return c.span("service.result", func() error {
			status, data, err := c.call(http.MethodGet, "/api/v1/jobs/"+j.ID+"/result", nil, nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("result answered %d", status)
			}
			rec.result = bytes.TrimSpace(data)
			return err
		})
	})
	rec.latency = time.Since(start)
	rec.ok = err == nil
	if err != nil {
		rec.failure = err.Error()
	}
	return rec
}

// jobPass runs every spec of the pool once through the clients, each
// client taking the next unclaimed spec when its previous job ends. It
// returns the records in completion order.
func jobPass(clients []*client, specs [][]byte) []jobRecord {
	var (
		mu      sync.Mutex
		claimed int
		recs    []jobRecord
		wg      sync.WaitGroup
	)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				mu.Lock()
				if claimed == len(specs) {
					mu.Unlock()
					return
				}
				idx := claimed
				claimed++
				mu.Unlock()
				rec := c.job(idx, specs[idx])
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// specCircuit rebuilds a job spec's circuit in-process, with the
// set-up that installs its Fc (nil for an unconstrained netlist).
func specCircuit(spec service.JobSpec) (*logic.Circuit, func(*atpg.Generator) error, error) {
	if spec.Bench != "" {
		c, err := logic.ParseBench("inline", strings.NewReader(spec.Bench))
		return c, nil, err
	}
	c, err := iscas.Benchmark(spec.Digital)
	if err != nil {
		return nil, nil, err
	}
	binding := experiments.BoundInputs(c, spec.Digital)
	return c, func(g *atpg.Generator) error {
		g.SetConstraint(comparatorBlock().ConstraintBDD(g.Manager(), binding))
		return nil
	}, nil
}

// referenceResult classifies a spec in-process with the serial
// Generator.Run; the daemon's sharded run must reproduce it.
func referenceResult(spec service.JobSpec) ([]byte, error) {
	c, setup, err := specCircuit(spec)
	if err != nil {
		return nil, err
	}
	g, err := atpg.New(c, atpg.WithCollector(nil))
	if err != nil {
		return nil, err
	}
	if setup != nil {
		if err := setup(g); err != nil {
			return nil, err
		}
	}
	return g.Run(faults.Collapse(c)).Classify(c).MarshalCanonical()
}

// checkJobs compares every job's result with its spec's reference.
func checkJobs(specs []service.JobSpec, recs []jobRecord, refs map[int][]byte, rep *report) error {
	for _, r := range recs {
		if !r.ok {
			continue
		}
		ref, ok := refs[r.spec]
		if !ok {
			var err error
			if ref, err = referenceResult(specs[r.spec]); err != nil {
				return fmt.Errorf("reference for spec %d: %w", r.spec, err)
			}
			refs[r.spec] = ref
		}
		if !bytes.Equal(ref, r.result) {
			rep.mismatch("job on spec %d: result %s, in-process classification %s", r.spec, r.result, ref)
		}
	}
	return nil
}

// daemonInputs is the set-up of a daemon run: the spec pool in both
// forms and the running daemon.
type daemonInputs struct {
	specs []service.JobSpec
	wire  [][]byte
	rig   *daemonRig
}

func setupDaemon(e *env) (daemonInputs, float64, error) {
	return timeSetup(func() (daemonInputs, error) {
		specs, err := jobSpecs(e.seed)
		if err != nil {
			return daemonInputs{}, err
		}
		in := daemonInputs{specs: specs}
		for _, s := range specs {
			b, err := json.Marshal(s)
			if err != nil {
				return daemonInputs{}, err
			}
			in.wire = append(in.wire, b)
		}
		if in.rig, err = startDaemon(e.state); err != nil {
			return daemonInputs{}, err
		}
		return in, nil
	}, func(in daemonInputs) error { return in.rig.stop() })
}

func newClients(base string, traced bool) []*client {
	hc := &http.Client{Timeout: time.Minute}
	var cs []*client
	for i := 0; i < jobClients; i++ {
		c := &client{base: base, hc: hc}
		if traced {
			c.l = newLane()
		}
		cs = append(cs, c)
	}
	return cs
}

func tallyJobs(recs []jobRecord, rep *report, log io.Writer) {
	for _, r := range recs {
		rep.attempted++
		if !r.ok {
			rep.failed++
			fmt.Fprintf(log, "perfbench: job on spec %d failed: %s\n", r.spec, r.failure)
		}
	}
}

func runDaemon(e *env) (rep *report, err error) {
	in, setupS, err := setupDaemon(e)
	if err != nil {
		return nil, err
	}
	defer func() {
		if stopErr := in.rig.stop(); err == nil && stopErr != nil {
			err = stopErr
		}
	}()
	rep = &report{metrics: map[string]float64{}}
	clients := newClients(in.rig.base, false)
	var (
		all   []jobRecord
		heap0 float64
	)
	passes, err := measureCycles(e.budget, 1, func(int) error {
		all = append(all, jobPass(clients, in.wire)...)
		return nil
	}, func(int) error {
		if heap0 == 0 {
			heap0 = retainedMB()
			runtime.KeepAlive(in.rig)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tallyJobs(all, rep, e.log)
	before := len(rep.mismatches)
	if err := checkJobs(in.specs, all, map[int][]byte{}, rep); err != nil {
		return nil, err
	}
	var lat []float64
	for _, r := range all {
		if r.ok {
			lat = append(lat, float64(r.latency)/float64(time.Millisecond))
		}
	}
	good := int64(len(lat) - (len(rep.mismatches) - before))
	fmt.Fprintf(e.log, "daemon-jobs: %d passes, %d jobs in %.2fs measured\n", len(passes), len(all), sumSeconds(passes))
	rep.metrics["setup_s"] = setupS
	rep.metrics["work_per_s"] = float64(good) / float64(len(passes)) / cycleSeconds(passes, 1)
	rep.metrics["unit_p50_ms"] = median(lat)
	rep.metrics["retained_heap_mb"] = heap0
	rep.named("jobs_per_s", "1/s", rep.metrics["work_per_s"])
	rep.named("job_p50_ms", "ms", rep.metrics["unit_p50_ms"])
	if pct, tail, ok := tailPercentile(lat); ok {
		rep.named(fmt.Sprintf("job_tail_ms (p%g of %d jobs)", pct, len(lat)), "ms", tail)
	}
	return rep, nil
}

// inProcessTimes measures, per distinct spec, the serial Generator.Run
// time and the RunParallel time at the jobs' worker count.
func inProcessTimes(specs []service.JobSpec) (serial, parallel map[int]time.Duration, err error) {
	serial, parallel = map[int]time.Duration{}, map[int]time.Duration{}
	for i, s := range specs {
		c, setup, err := specCircuit(s)
		if err != nil {
			return nil, nil, err
		}
		fs := faults.Collapse(c)
		start := time.Now()
		g, err := atpg.New(c, atpg.WithCollector(obs.NewCollector()))
		if err != nil {
			return nil, nil, err
		}
		if setup != nil {
			if err := setup(g); err != nil {
				return nil, nil, err
			}
		}
		g.Run(fs)
		serial[i] = time.Since(start)
		opts := []atpg.RunOption{atpg.WithWorkers(jobWorkers), atpg.WithShardOptions(atpg.WithCollector(obs.NewCollector()))}
		if setup != nil {
			opts = append(opts, atpg.WithShardSetup(setup))
		}
		start = time.Now()
		if _, err := atpg.RunParallel(c, fs, opts...); err != nil {
			return nil, nil, err
		}
		parallel[i] = time.Since(start)
	}
	return serial, parallel, nil
}

func traceDaemon(e *env) (rep *report, err error) {
	specs, err := jobSpecs(e.seed)
	if err != nil {
		return nil, err
	}
	var wire [][]byte
	for _, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		wire = append(wire, b)
	}
	rig, err := startDaemon(e.state)
	if err != nil {
		return nil, err
	}
	defer func() {
		if stopErr := rig.stop(); err == nil && stopErr != nil {
			err = stopErr
		}
	}()
	rep = &report{metrics: map[string]float64{}}
	var (
		plain, traced, attributed []float64
		allocMB, gcPct            []float64
		plainLat                  []float64
		submit, wait, runT        []float64
		recs                      []jobRecord
		journal                   float64
		refs                      = map[int][]byte{}
	)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	clock := newRoundClock(e.budget)
	for round := 0; clock.next(round); round++ {
		before := readRuntime()
		start := time.Now()
		batch := jobPass(newClients(rig.base, false), wire)
		plain = append(plain, time.Since(start).Seconds())
		a, g := runtimeDelta(before, readRuntime())
		allocMB, gcPct = append(allocMB, a), append(gcPct, g)
		for _, r := range batch {
			plainLat = append(plainLat, ms(r.latency))
		}
		recs = append(recs, batch...)

		clients := newClients(rig.base, true)
		start = time.Now()
		batch = jobPass(clients, wire)
		wall := time.Since(start)
		traced = append(traced, wall.Seconds())
		var cov time.Duration
		for _, c := range clients {
			cov += covered(c.l.spans)
		}
		attributed = append(attributed, 100*cov.Seconds()/(wall.Seconds()*float64(len(clients))))
		for _, r := range batch {
			submit = append(submit, ms(r.submit))
			if r.ok {
				wait, runT = append(wait, ms(r.queueWait)), append(runT, ms(r.runTime))
			}
		}
		recs = append(recs, batch...)
		if round == 0 {
			journal = rig.journalBytes()
		}
	}
	tallyJobs(recs, rep, e.log)
	if err := checkJobs(specs, recs, refs, rep); err != nil {
		return nil, err
	}
	serial, parallel, err := inProcessTimes(specs)
	if err != nil {
		return nil, err
	}
	var speedup, overhead []float64
	for i := range specs {
		speedup = append(speedup, serial[i].Seconds()/parallel[i].Seconds())
	}
	for _, r := range recs {
		if r.ok && r.runTime > 0 {
			overhead = append(overhead, ms(r.runTime-parallel[r.spec]))
		}
	}
	tailPct, tail, _ := tailPercentile(plainLat)
	rep.metrics = map[string]float64{
		"atpg.shard_speedup":    median(speedup),
		"service.submit_ms":     median(submit),
		"service.queue_wait_ms": median(wait),
		"service.run_ms":        median(runT),
		"service.overhead_ms":   median(overhead),
		"service.journal_bytes": journal,
		"service.job_tail_ms":   tail,
		"service.job_tail_pct":  tailPct,
		"go.alloc_mb":           median(allocMB),
		"go.gc_cpu_pct":         median(gcPct),
		"trace.overhead_pct":    overheadPct(traced, plain),
		"trace.attributed_pct":  median(attributed),
		"fail_ratio":            float64(rep.failed) / float64(rep.attempted),
	}
	fmt.Fprintf(e.log, "daemon-jobs trace: %d rounds; batch %.2fs plain, %.2fs traced; job tail p%g over %d jobs\n",
		len(traced), median(plain), median(traced), tailPct, len(plainLat))
	return rep, nil
}
