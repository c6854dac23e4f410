package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc (report-only) flags per-step and per-layer allocations on
// the serving hot path: make/new-slice/new-map expressions, fresh tensor
// constructions, slice-clone appends, and closure captures in the code
// serving runs per layer or per decode step (the layer body forwardLayer
// and the project/finish helpers it shares with StepBatch/StepLogits,
// the ExecuteBatch layer loop and assembly, the shard decode into the
// workspace via DecodeInto/DequantizeRows, batcher stepOnce). Each
// finding is a candidate for the zero-copy ROADMAP item: hoist the
// buffer to a reused scratch field. Findings never fail the build; the
// checked-in baseline keeps known ones out of CI output.
// //sti:allocok <why> suppresses a finding.
var HotAlloc = &Analyzer{
	Name:       "hotalloc",
	Doc:        "report allocations and closure captures in per-step/per-layer hot loops",
	ReportOnly: true,
	Run:        runHotAlloc,
}

// hotFuncNames are the per-step/per-layer functions whose bodies are
// treated as hot. Matching is by function name so testdata and future
// call sites participate without configuration.
var hotFuncNames = map[string]bool{
	"StepBatch":      true,
	"StepLogits":     true,
	"stepOnce":       true,
	"preemptFor":     true,
	"ExecuteBatch":   true,
	"streamLayers":   true,
	"assemble":       true,
	"eachStream":     true,
	"DecodeInto":     true,
	"DequantizeRows": true,
	// The layer body and the two helpers it shares with StepBatch.
	"forwardLayer": true,
	"project":      true,
	"finish":       true,
	// Observability record/span paths: instruments fire on every
	// request and every decode step, and span recording sits inside
	// the same loops hotalloc guards. The whole point of the fixed
	// Trace slab and atomic instrument cells is that recording never
	// allocates — an allocation here is a regression, not a style nit.
	"Inc":            true,
	"AddN":           true,
	"SetTo":          true,
	"AddDelta":       true,
	"Observe":        true,
	"Begin":          true,
	"EndSpan":        true,
	"Interval":       true,
	"AdoptIntervals": true,
	"StepDone":       true,
	"StartRequest":   true,
	"FinishRequest":  true,
	"recordAdmitted": true,
}

func runHotAlloc(pass *Pass) error {
	ann := pass.Annotations("allocok")
	for _, pkg := range pass.Scoped() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hotFuncNames[fd.Name.Name] {
					continue
				}
				flagHotAllocs(pass, pkg.Info, fd, ann)
			}
		}
	}
	return nil
}

func flagHotAllocs(pass *Pass, info *types.Info, fd *ast.FuncDecl, ann *AnnotationSet) {
	name := fd.Name.Name
	var walk func(n ast.Node, inLoop bool)
	walk = func(root ast.Node, inLoop bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				if n.Init != nil {
					walk(n.Init, inLoop)
				}
				walk(n.Body, true)
				return false
			case *ast.RangeStmt:
				walk(n.Body, true)
				return false
			case *ast.FuncLit:
				if inLoop {
					report(pass, ann, n.Pos(), name, "closure allocation in loop")
				}
				// The closure body inherits hotness.
				walk(n.Body, inLoop)
				return false
			case *ast.CallExpr:
				describeAllocCall(pass, info, ann, n, name, inLoop)
				return true
			case *ast.CompositeLit:
				if !inLoop {
					return true
				}
				tv, ok := info.Types[ast.Expr(n)]
				if !ok || tv.Type == nil {
					return true
				}
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(pass, ann, n.Pos(), name, "slice/map literal in loop")
				}
				return true
			}
			return true
		})
	}
	walk(fd.Body, false)
	return
}

func describeAllocCall(pass *Pass, info *types.Info, ann *AnnotationSet, call *ast.CallExpr, hot string, inLoop bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				if inLoop {
					report(pass, ann, call.Pos(), hot, "make in loop")
				} else {
					report(pass, ann, call.Pos(), hot, "per-call make")
				}
			case "append":
				// append to a fresh nil/empty slice clones per call.
				if len(call.Args) > 0 && isFreshSlice(info, call.Args[0]) {
					report(pass, ann, call.Pos(), hot, "slice clone via append to a fresh slice")
				}
			}
			return
		}
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		if strings.HasSuffix(fn.Pkg().Path(), "/tensor") && strings.HasPrefix(fn.Name(), "New") {
			if inLoop {
				report(pass, ann, call.Pos(), hot, "tensor allocation in loop ("+fn.Name()+")")
			} else {
				report(pass, ann, call.Pos(), hot, "per-call tensor allocation ("+fn.Name()+")")
			}
		}
	}
}

// isFreshSlice reports []T(nil), []T{}, or nil as an append base.
func isFreshSlice(info *types.Info, e ast.Expr) bool {
	switch t := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		// Conversion like []T(nil).
		if len(t.Args) == 1 {
			if id, ok := ast.Unparen(t.Args[0]).(*ast.Ident); ok && id.Name == "nil" {
				if tv, ok := info.Types[t.Fun]; ok && tv.IsType() {
					return true
				}
			}
		}
	case *ast.CompositeLit:
		if tv, ok := info.Types[ast.Expr(t)]; ok && tv.Type != nil {
			if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
				return len(t.Elts) == 0
			}
		}
	case *ast.Ident:
		return t.Name == "nil"
	}
	return false
}

func report(pass *Pass, ann *AnnotationSet, pos token.Pos, hot string, what string) {
	if ann.Allows(pass.Fset, pos) {
		return
	}
	pass.Reportf(pos, "hot-path allocation in %s: %s; reuse a scratch buffer (zero-copy roadmap)", hot, what)
}
