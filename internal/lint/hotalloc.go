package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc pins the engine's per-row allocation budget. Functions
// annotated with a //qo:hotpath doc comment (operator Next bodies, the
// vectorized evaluators, the join-table probe and build) are denied
// allocation-introducing constructs:
//
//   - calls into package fmt (formatting allocates),
//   - function literals (closure capture allocates),
//   - append to a local slice that was never pre-sized on this path,
//   - boxing a concrete value into an interface parameter,
//   - make/new and reference composite literals inside loops — the
//     per-row positions. One-per-call setup allocations outside loops
//     are tolerated; the budget is per row, not per call.
//
// A finding is waived by a //qo:alloc-ok <reason> comment on or above
// the line; the reason is mandatory, so every tolerated allocation
// carries its amortization argument in the source. This turns the >100x
// allocation reductions of the vectorized probe work into a checked
// invariant instead of a benchmark hope.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "deny allocation-introducing constructs in //qo:hotpath " +
		"functions unless waived with //qo:alloc-ok reason",
	Run: runHotAlloc,
}

const (
	hotpathMarker = "//qo:hotpath"
	allocOkMarker = "//qo:alloc-ok"
)

func runHotAlloc(pass *Pass) {
	for _, file := range pass.Files {
		waived := collectAllocWaivers(pass, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotpath(fn) {
				continue
			}
			checkHotFunc(pass, fn, waived)
		}
	}
}

// collectAllocWaivers indexes //qo:alloc-ok comments by line (the
// waiver covers its own line and the next, like suppressions) and
// reports reason-less waivers, which are themselves findings.
func collectAllocWaivers(pass *Pass, file *ast.File) map[int]bool {
	waived := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, allocOkMarker) {
				continue
			}
			rest := strings.TrimPrefix(text, allocOkMarker)
			if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
				continue // e.g. //qo:alloc-okay, some other marker
			}
			// Fixture want-directives sharing the comment are not a reason.
			if i := strings.Index(rest, `// want "`); i >= 0 {
				rest = rest[:i]
			}
			line := pass.Fset.Position(c.Pos()).Line
			if strings.TrimSpace(rest) == "" {
				pass.Reportf(c.Pos(), "//qo:alloc-ok waiver must carry a reason")
				continue
			}
			waived[line] = true
			waived[line+1] = true
		}
	}
	return waived
}

// isHotpath reports whether the function's doc comment carries the
// //qo:hotpath marker.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), hotpathMarker) {
			return true
		}
	}
	return false
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl, waived map[int]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if waived[pass.Fset.Position(pos).Line] {
			return
		}
		pass.Reportf(pos, format, args...)
	}

	// Loop bodies: allocations inside them are per-row, not per-call.
	type posRange struct{ lo, hi token.Pos }
	var loops []posRange
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, posRange{t.Body.Pos(), t.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, posRange{t.Body.Pos(), t.Body.End()})
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, r := range loops {
			if pos >= r.lo && pos <= r.hi {
				return true
			}
		}
		return false
	}

	// Locals that were demonstrably pre-sized or alias pre-sized
	// storage: assigned from make, a field or element expression, or a
	// call (rangeSel-style grow-to-high-water helpers).
	presized := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.CallExpr, *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr:
				// x = append(x, ...) is growth, not pre-sizing.
				if call, ok := rhs.(*ast.CallExpr); ok {
					if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "append" {
						if _, isBuiltin := pass.Info.Uses[fid].(*types.Builtin); isBuiltin {
							continue
						}
					}
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj != nil {
					presized[obj] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			report(t.Pos(), "closure allocation in hot path; hoist the function or waive with //qo:alloc-ok reason")
			return false
		case *ast.UnaryExpr:
			if t.Op == token.AND && inLoop(t.Pos()) {
				if _, ok := ast.Unparen(t.X).(*ast.CompositeLit); ok {
					report(t.Pos(), "heap-allocated composite literal inside a loop in a hot path")
				}
			}
		case *ast.CompositeLit:
			if !inLoop(t.Pos()) {
				return true
			}
			if tt := pass.TypeOf(t); tt != nil {
				switch tt.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(t.Pos(), "slice/map literal inside a loop in a hot path allocates per iteration")
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fn, t, inLoop, presized, report)
		}
		return true
	})
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, inLoop func(token.Pos) bool, presized map[types.Object]bool, report func(token.Pos, string, ...any)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if pkgID, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if pn, ok := pass.Info.Uses[pkgID].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				report(call.Pos(), "fmt.%s allocates; hot paths must not format (waive error paths with //qo:alloc-ok reason)", fun.Sel.Name)
				return
			}
		}
	case *ast.Ident:
		if _, isBuiltin := pass.Info.Uses[fun].(*types.Builtin); isBuiltin {
			switch fun.Name {
			case "make", "new":
				if inLoop(call.Pos()) {
					report(call.Pos(), "%s inside a loop in a hot path allocates per iteration", fun.Name)
				}
			case "append":
				if len(call.Args) == 0 {
					return
				}
				base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
				if !ok {
					return // appends into fields/elements target pre-sized pooled storage
				}
				obj := pass.Info.Uses[base]
				if obj == nil || presized[obj] {
					return
				}
				// Only locals declared inside the body: parameters are the
				// caller's pre-sized buffers.
				if obj.Pos() < fn.Body.Pos() || obj.Pos() > fn.Body.End() {
					return
				}
				report(call.Pos(), "append to %q, which is never pre-sized in this function; grow it with make(..., cap) first", base.Name)
			}
			return
		}
	}
	// Interface boxing: a concrete argument passed to an interface
	// parameter escapes to the heap.
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), "argument boxes a concrete %s into interface %s; hot paths must not box", at, pt)
	}
}
