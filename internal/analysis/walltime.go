package analysis

import (
	"go/ast"
)

// module is the import-path root every policy prefix hangs off.
const module = "repro"

// wallClockFuncs are the time-package functions that read or advance
// the host's wall clock. Pure value helpers (time.Duration arithmetic,
// time.ParseDuration, the Duration/Month/Weekday constants) are fine
// anywhere: they do not observe time passing.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

// wallTime returns the analyzer enforcing that all time flows through
// cluster.Env: virtual under Sim, real under Local. Wall-clock reads
// in service code silently desynchronize from virtual time and corrupt
// every X*/A* experiment.
func wallTime() *Analyzer {
	a := &Analyzer{
		Name:      "walltime",
		Doc:       "time.Now/Sleep/After/timers outside the real-time backend; use Env.Now/Env.Sleep",
		skipTests: true,
		allowedPaths: []string{
			module + "/internal/cluster", // the Local real-time backend
			module + "/cmd",              // mains run outside any Env
		},
	}
	a.run = func(p *Package) []Finding {
		var out []Finding
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := funcObj(p.info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
					return true
				}
				if wallClockFuncs[fn.Name()] {
					p.findingf(&out, a.Name, call.Pos(),
						"wall-clock time.%s in sim-visible code; use the Env's virtual time (Env.Now/Env.Sleep)", fn.Name())
				}
				return true
			})
		}
		return out
	}
	return a
}
