package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallClockPoliced is the tree wallclock polices: every internal package is
// part of the deterministic simulation and must route time and randomness
// through the seeded sim engine. cmd/ and examples/ are hosts that may
// legitimately measure wall time (e.g. benchmark harness self-timing).
const wallClockPoliced = "timerstudy/internal/"

// forbiddenTimeFuncs are package time functions that read or wait on the
// host clock. Pure types/constants (time.Duration, time.Millisecond) are
// fine — only the functions leak nondeterminism.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
	"Since": true, "Until": true,
}

// allowedRandFuncs are the math/rand and math/rand/v2 constructors that
// accept an explicit Source or seed; everything else at package level uses
// the shared global source, whose default seeding breaks run-to-run
// reproducibility. checkClockSeeding still vets the seeding constructors'
// arguments.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// WallClock forbids host-clock reads and unseeded global math/rand use in
// internal packages: the reproduction's results are only meaningful if every
// run over the same seed produces the same virtual-time trace.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "internal packages must use virtual sim time and seeded randomness, " +
		"never time.Now/Sleep/After or global math/rand",
	Run: runWallClock,
}

func runWallClock(pass *Pass) {
	if !strings.HasPrefix(pass.Pkg.Path, wallClockPoliced) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkClockSeeding(pass, call)
				return true
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if forbiddenTimeFuncs[fn.Name()] {
					pass.Reportf(id.Pos(),
						"time.%s reads the host clock; internal packages must use the virtual sim clock (sim.Engine)",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				sig, _ := fn.Type().(*types.Signature)
				if sig != nil && sig.Recv() == nil && !allowedRandFuncs[fn.Name()] {
					pass.Reportf(id.Pos(),
						"rand.%s uses the unseeded global source; draw from the engine's seeded *rand.Rand instead",
						fn.Name())
				}
			}
			return true
		})
	}
}

// checkClockSeeding flags rand sources seeded from the host clock — the
// rand.NewSource(time.Now().UnixNano()) idiom. The constructor itself is on
// the allow list (an explicit seed is the fix for global-source use), so a
// clock-derived seed would otherwise pass as "seeded" while still making
// every run different. Section 2 of the paper measures distributions over
// repeated runs; those are comparable only under a fixed, recorded seed.
func checkClockSeeding(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
	default:
		return
	}
	switch fn.Name() {
	case "NewSource", "Seed", "NewPCG", "NewChaCha8":
	default:
		return
	}
	for _, arg := range call.Args {
		if readsHostClock(pass, arg) {
			pass.Report("seeding", call.Pos(),
				"rand.%s seeded from the host clock makes every run different; use the experiment's fixed, recorded seed",
				fn.Name())
			return
		}
	}
}

// readsHostClock reports whether the expression subtree calls into package
// time (Now and friends — any function there reads or derives from the host
// clock when used as a seed).
func readsHostClock(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := pass.Pkg.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
			sig, _ := fn.Type().(*types.Signature)
			if sig != nil && sig.Recv() == nil && forbiddenTimeFuncs[fn.Name()] {
				found = true
			}
		}
		return !found
	})
	return found
}

// calleeFunc resolves a call's callee to its types.Func, if any.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
