// Package lint is the project-invariant static analysis suite: a small
// loader built on go/parser and go/types, a Check interface, a shared
// intra-procedural dataflow layer (dataflow.go), and the
// project-specific checks that machine-verify the cross-cutting
// conventions the earlier PRs introduced by hand:
//
//   - ctxflow: a function that already has a context.Context must not
//     call a non-Ctx variant of a function when a *Ctx sibling exists
//     (StepResponse vs StepResponseCtx, TestAnalogElement vs
//     TestAnalogElementCtx, ...). Dropping the context silently severs
//     cancellation, deadlines and chaos injection from everything
//     downstream of the call.
//   - spanend: every obs.Collector.StartSpan result must be ended on
//     all paths — idiomatically `defer c.StartSpan(...).End()`. A span
//     leaked on an early return corrupts the duration histograms and
//     the Chrome trace.
//   - mnaerr: mna builder calls record construction errors in
//     Circuit.Err instead of panicking; a function that builds a
//     circuit must consult Err() before solving with it or returning
//     it, so construction errors surface at the build site rather than
//     deep inside an analysis.
//   - chaossite: chaos injection site names must be compile-time string
//     constants drawn from the registry in internal/guard/chaos
//     (the Site... constants); the registry itself must not contain
//     duplicates, and no registered site may be left without an
//     injection point.
//   - nopanic: no naked panic(...) in internal/ outside the
//     internal/guard isolation layer — the panics→errors policy.
//     Allowed without a directive: must*/Must* helpers, re-panics of a
//     recover()ed value, and typed control-flow panics
//     (panic(&SomethingError{...})) that a recover in the same package
//     converts back to an error.
//
// A second generation of checks machine-verifies the determinism and
// concurrency contracts the runtime work (sharded parallel ATPG, the
// obs collector merge, the job daemon's durable queue) established —
// properties the tests only spot-check:
//
//   - maporder: no slice appends, output emission (fmt prints,
//     json.Encoder.Encode, writer Write/WriteString) or BDD folds
//     (`f = m.Compose(f, …)` on a *bdd.Manager) in map iteration order;
//     the sanctioned idiom collects keys and sorts before use.
//   - rngsource: no global math/rand top-level functions and no
//     time-seeded sources in internal/ code; randomness comes from an
//     injected run-local rand.New(rand.NewSource(seed)).
//   - atomicwrite: durable state is written via guard.WriteFileAtomic
//     (or the equivalent os.CreateTemp + os.Rename), never direct
//     os.WriteFile / os.Create / write-mode os.OpenFile.
//   - goleak: no fire-and-forget goroutines in internal/ code — every
//     `go` statement shows a WaitGroup, a join channel, or a
//     context.Context binding, so it can be collected at shutdown.
//   - lockheld: no channel operations, file/network/subprocess I/O, or
//     http.ResponseWriter writes while a sync.Mutex/RWMutex is held;
//     snapshot under the lock, do the slow thing after Unlock.
//
// These five are built on the dataflow layer's shared primitives —
// callee resolution, base-object aliasing, sorted-after-position
// escape analysis, shallow region scans that skip nested function
// literals — which generalize the reachability walking check_spanend
// originally did ad hoc. All analysis is intra-procedural by design;
// the //lint:allow directive is the reviewed escape hatch for shapes
// the checks cannot see through.
//
// A finding at a particular line can be waived with an inline
// directive on the same line or the line above:
//
//	//lint:allow <check> <reason>
//
// The reason is mandatory: a suppression is a reviewed decision, and
// the decision's justification belongs next to it. Malformed
// directives (unknown check, missing reason) are themselves findings.
//
// The loader shells out to `go list -export` for package metadata and
// export data, then parses and type-checks the target packages with
// the standard library alone — no external module dependencies, per
// the repository's zero-dependency rule. Loading and analysis are both
// parallel, bounded by GOMAXPROCS, with output byte-identical to a
// serial run (the suite practices the determinism it preaches).
//
// cmd/msalint runs the suite from the command line (-checks selects a
// subset, -list prints the registry) and is a blocking CI job next to
// go vet; see that command's -h for exit codes.
package lint
