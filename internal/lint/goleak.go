package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak flags host concurrency inside the deterministic core: raw go
// statements, bare channel operations (make/send/receive/close/select/
// range), calls to iter.Pull/iter.Pull2 (each starts a coroutine
// goroutine that no go statement shows), and
// sync.{Mutex,RWMutex,WaitGroup,Once,Cond,Map}. All concurrency in a
// simulation must ride the engine's event queue (Engine.Spawn procs,
// events, virtual-time ordering) so that the interleaving is a function
// of the seed, not of the Go scheduler. The only sanctioned host
// concurrency is the engine's own proc coroutine in internal/sim (one
// iter.Pull per proc, strictly alternating with the engine), and that
// one site carries an annotated //lint:allow goleak(...) directive; the
// pdes shard coordinator runs its shards on the caller's goroutine, and
// the harness worker pool lives outside the deterministic package set
// entirely.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "flags raw goroutines, bare channel operations, and sync primitives in " +
		"simulation-deterministic packages; concurrency must ride the engine's " +
		"event queue",
	Run: runGoLeak,
}

// syncTypes are the sync package names whose presence means host
// synchronisation (and therefore host scheduling order) has entered
// the deterministic core.
var syncTypes = map[string]bool{
	"Mutex":     true,
	"RWMutex":   true,
	"WaitGroup": true,
	"Once":      true,
	"Cond":      true,
	"Map":       true,
}

func runGoLeak(pass *Pass) error {
	if !pass.Deterministic {
		return nil
	}
	info := pass.TypesInfo
	inspect(pass, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Go,
				"go statement in deterministic package %s: spawn simulated activities "+
					"through the engine (Engine.Spawn), not raw goroutines", pass.PkgPath)
		case *ast.SendStmt:
			pass.Reportf(n.Arrow,
				"channel send in deterministic package %s: pass control through engine "+
					"events, not host channels", pass.PkgPath)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.OpPos,
					"channel receive in deterministic package %s: pass control through "+
						"engine events, not host channels", pass.PkgPath)
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Select,
				"select in deterministic package %s: the Go runtime picks ready cases "+
					"pseudo-randomly; use engine events", pass.PkgPath)
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.For,
						"range over channel in deterministic package %s: use engine events",
						pass.PkgPath)
				}
			}
		case *ast.CallExpr:
			switch fn := n.Fun.(type) {
			case *ast.Ident:
				obj := info.Uses[fn]
				if obj == types.Universe.Lookup("close") {
					pass.Reportf(n.Pos(),
						"close of channel in deterministic package %s: use engine events",
						pass.PkgPath)
				}
				if obj == types.Universe.Lookup("make") && len(n.Args) > 0 {
					if tv, ok := info.Types[n.Args[0]]; ok && tv.Type != nil {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							pass.Reportf(n.Pos(),
								"make(chan) in deterministic package %s: host channels have "+
									"no place on the simulated timeline; use engine events",
								pass.PkgPath)
						}
					}
				}
			}
		case *ast.SelectorExpr:
			obj := info.Uses[n.Sel]
			if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "iter" &&
				(obj.Name() == "Pull" || obj.Name() == "Pull2") {
				pass.Reportf(n.Pos(),
					"iter.%s in deterministic package %s: it runs the sequence on a "+
						"coroutine goroutine; spawn simulated activities through the engine "+
						"(Engine.Spawn)", obj.Name(), pass.PkgPath)
			}
			if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && syncTypes[obj.Name()] {
				pass.Reportf(n.Pos(),
					"sync.%s in deterministic package %s: the simulation is single-threaded "+
						"per engine; synchronisation belongs in simulated primitives (futex, "+
						"glibc locks), not host sync", obj.Name(), pass.PkgPath)
			}
		}
		return true
	})
	return nil
}
