package analysis

import (
	"go/ast"
)

// nakedGo returns the analyzer banning bare `go` statements outside
// the scheduler itself. A goroutine spawned with `go` is invisible to
// the sim engine: the engine can declare sim.ErrDeadlock while the
// untracked goroutine still has pending work, or advance virtual time
// past events it would have produced. Concurrency routes through
// Env.Go, Env.Daemon, or WaitGroup.Go.
func nakedGo() *Analyzer {
	a := &Analyzer{
		Name:      "nakedgo",
		Doc:       "bare go statement; spawn through Env.Go/Daemon or WaitGroup.Go",
		skipTests: true,
		allowedPaths: []string{
			module + "/internal/sim",     // the scheduler's own machinery
			module + "/internal/cluster", // the Env adapters over it
		},
	}
	a.run = func(p *Package) []Finding {
		var out []Finding
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.findingf(&out, a.Name, g.Pos(),
						"naked go statement is invisible to the sim scheduler; use Env.Go, Env.Daemon, or WaitGroup.Go")
				}
				return true
			})
		}
		return out
	}
	return a
}
