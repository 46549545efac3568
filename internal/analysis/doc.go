// Package analysis is a self-contained, stdlib-only static-analysis
// framework enforcing the project invariants that no compiler checks.
// The whole reproduction rests on a discrete-event simulation of time:
// service code runs identically under the Sim environment (virtual
// time, modelled transfers) and the Local environment (real time, real
// bytes), but only if it observes contracts that are invisible to the
// type system. This package makes them machine-checkable; the
// cmd/bsfs-vet driver runs them over the tree on every commit.
//
// The six analyzers and the invariants they guard:
//
//   - walltime: all time flows through cluster.Env. A time.Now or
//     time.Sleep in service code reads the host's wall clock, which is
//     frozen relative to virtual time — results silently stop meaning
//     anything (an experiment's "10 minutes" elapse in microseconds of
//     wall time). Only internal/cluster's real-time Local backend and
//     cmd/ mains may touch the time package; sim-visible code uses
//     Env.Now / Env.Sleep.
//
//   - nakedgo: all concurrency is spawned through Env.Go, Env.Daemon,
//     or WaitGroup.Go. A bare `go` statement creates a goroutine the
//     sim scheduler cannot see: the engine may declare sim.ErrDeadlock
//     while the untracked goroutine still has work, or run virtual
//     time past events the goroutine would have produced. Only
//     internal/sim and internal/cluster (the scheduler itself and its
//     environment adapters) may use the statement.
//
//   - sentinelcmp: errors are matched with errors.Is, never == or !=.
//     The typed error contract (core.ErrNoSuchVersion,
//     cluster.ErrCanceled, ...) wraps
//     sentinels with operation context as errors cross layers; a ==
//     comparison breaks the moment any layer adds fmt.Errorf("%w").
//     The rule flags comparisons and switch cases against any exported
//     package-level error value (including io.EOF), and matching an
//     error by its message: err.Error() under ==, != or
//     strings.Contains/HasPrefix/HasSuffix.
//
//   - ctxflow: cancellation is an end-to-end property. A function that
//     receives a *cluster.Ctx must forward it: passing
//     cluster.Background() to a Ctx-accepting callee, or calling an
//     option-style API (variadic ...Option with a WithCtx option
//     available) without WithCtx, silently detaches the callee from
//     the caller's cancellation scope — a canceled write keeps
//     running, wedging tickets the frontier waits on. Additionally
//     cluster.Background() itself is banned in internal/ non-test
//     code: library code always has a Ctx (or an options default) to
//     thread instead.
//
//   - lockedblock: no blocking environment call while holding a
//     sync.Mutex / sync.RWMutex. Under Sim, Env.RTT, Unicast, Scatter,
//     Gather, Pipeline, Sleep, DiskRead/DiskWrite, Signal.Wait,
//     WaitGroup.Wait and Ctx.Wait park the goroutine until virtual
//     time advances; any other goroutine that needs the held mutex to
//     produce the wake-up event deadlocks the simulation — and worse:
//     a goroutine parked on a real mutex still counts as runnable to
//     the engine, so Engine.Run waits for quiescence that never comes
//     instead of reporting sim.ErrDeadlock. The check is best-effort:
//     it tracks Lock/Unlock pairs (including deferred unlocks) through
//     straight-line code and flags blocking calls made in the held
//     region, plus a package-local fixpoint that marks same-package
//     callees which transitively reach a blocking call. A callee that
//     unlocks a mutex before its first blocking call is treated as
//     lock-aware (the "release across the commit, reacquire after"
//     shape) and is not marked.
//
//   - deadexport: nothing is exported without a caller. An exported
//     function, method, type or struct field of a library package
//     (every one lives under internal/) that no non-test file outside
//     its package references is surface no command, example,
//     experiment or benchmark runs: unexport it, move it into a test,
//     or delete it with the path it selects. The rule sees the whole
//     program at once: each package is type-checked on its own, so a
//     reference is matched to its declaration by package path,
//     receiver or struct type, and name. cmd/bsfs-perf, a module of its
//     own, is loaded as a second root and counts as a caller. Exempt
//     are a method that implements an interface the program uses (an
//     interface its packages or their direct imports declare, or one
//     the errors package asserts), a type that an exported member's
//     signature or field type mentions, a field with a struct tag, and
//     the fields of a struct handed to an encoding/* function — those
//     two are read by reflection. Variables and constants are out of
//     scope: an exported sentinel error is part of its package's
//     errors.Is contract.
//
// # Suppressing a finding
//
// Every rule supports inline suppression for the rare case where the
// violation is intended:
//
//	t0 := time.Now() //bsfs-vet:allow walltime -- measuring real elapsed wall time
//
// The comment names one or more comma-separated rules and should carry
// a reason after " -- ". It silences those rules on its own line and
// the line directly below (so it can sit above a long statement); a
// deadexport suppression is the last line of the declaration's doc
// comment. Path-level policy lives in the analyzers themselves: each Analyzer
// lists import-path prefixes where its rule does not apply (for
// example walltime is off inside repro/internal/cluster, whose Local
// backend is the real-time implementation), and most rules skip
// _test.go files, which run under the Local environment where real
// time is the environment.
//
// # Architecture
//
// The module has zero dependencies and builds offline, so the driver
// cannot use golang.org/x/tools. Loader.LoadRepository enumerates
// packages with `go list -json`, parses them with go/parser, and
// type-checks with go/types using the stdlib source importer
// (go/importer "source"), which compiles dependencies — including the
// standard library — from source on demand. Analyzers receive a fully
// type-checked Package (deadexport: every package at once) and return
// Findings; Check applies path policy, test-file policy, and inline
// suppressions, and cmd/bsfs-vet exits non-zero if anything survives.
// The golden corpus under testdata/src/<rule>/ pins each analyzer's
// behavior with `// want` regexp annotations, and the zero-baseline
// test asserts the repository itself is finding-free.
package analysis
