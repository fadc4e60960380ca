// Package envelopewriter enforces the PR 5 wire contract inside
// palaemon/internal/core: every HTTP response — success or failure —
// goes through the blessed writers (writeJSON, writeWireErr), so errors
// always answer the structured envelope and the obs layer records the
// wire code. Direct http.Error / http.NotFound calls and naked
// w.WriteHeader writes bypass all of that: the client sees net/http plain
// text instead of {code,message,retryable,...} and the canonical log line
// loses its code.
//
// It also keeps the route table the only way in: ServeMux.Handle and
// HandleFunc may be called only from MountFunc, the one function that
// wraps every row in admission control and the method dispatcher. A
// handler registered anywhere else would skip both.
//
// Exemptions, in order of specificity:
//
//   - the blessed writer functions themselves;
//   - methods named WriteHeader (a ResponseWriter wrapper forwarding the
//     call is part of the plumbing, not a handler);
//   - bodyless statuses written with a compile-time constant (1xx, 204,
//     304): no body means no envelope to bypass — the 304 conditional
//     read is the canonical example.
package envelopewriter

import (
	"go/ast"
	"go/constant"

	"palaemon/internal/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "envelopewriter",
	Doc:  "flags http.Error/http.NotFound and naked ResponseWriter.WriteHeader calls in internal/core that bypass the wire error envelope writers, and ServeMux registrations outside the route table's mount function",
	Run:  run,
}

// Scope is the import path subtree the invariant binds. Variable so the
// analyzer tests can pin synthetic packages inside and outside it.
var Scope = "palaemon/internal/core"

// BlessedWriters are the envelope writer functions allowed to touch the
// status line directly.
var BlessedWriters = map[string]bool{
	"writeJSON":    true,
	"writeWireErr": true,
}

// MountFunc is the function that mounts the route table, the only one
// allowed to register handlers on a ServeMux.
const MountFunc = "mount"

func run(pass *lint.Pass) error {
	if !pass.HasPathPrefix(Scope) {
		return nil
	}
	pass.FuncDecls(func(fd *ast.FuncDecl) {
		if fd.Body == nil {
			return
		}
		isWriterMethod := fd.Recv != nil && fd.Name.Name == "WriteHeader"
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.Callee(pass.Info, call)
			switch {
			case lint.IsMethodOn(fn, "net/http", "ServeMux") && (fn.Name() == "Handle" || fn.Name() == "HandleFunc"):
				if fd.Name.Name != MountFunc {
					pass.Reportf(call.Pos(),
						"ServeMux.%s outside %s bypasses the route table (admission control, method dispatch); add a row to the table instead", fn.Name(), MountFunc)
				}
			case BlessedWriters[fd.Name.Name]:
				// Touching the status line is the blessed writers' job.
			case lint.IsPkgFunc(fn, "net/http", "Error"):
				pass.Reportf(call.Pos(),
					"http.Error bypasses the wire error envelope; classify the error and use writeWireErr")
			case lint.IsPkgFunc(fn, "net/http", "NotFound"):
				pass.Reportf(call.Pos(),
					"http.NotFound answers net/http plain text; use the wire not_found envelope via writeWireErr")
			case isWriteHeaderCall(pass, call):
				if isWriterMethod {
					return true
				}
				if status, ok := constStatus(pass, call); ok && bodyless(status) {
					return true
				}
				pass.Reportf(call.Pos(),
					"naked WriteHeader bypasses the envelope writers; use writeJSON for success payloads and writeWireErr for errors")
			}
			return true
		})
	})
	return nil
}

// isWriteHeaderCall reports whether call invokes WriteHeader on a value
// shaped like an http.ResponseWriter.
func isWriteHeaderCall(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	return lint.ImplementsResponseWriter(tv.Type)
}

// constStatus extracts a compile-time constant status argument.
func constStatus(pass *lint.Pass, call *ast.CallExpr) (int64, bool) {
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Int64Val(tv.Value)
	return v, ok
}

// bodyless reports statuses that carry no body by protocol, so there is
// no envelope to bypass.
func bodyless(status int64) bool {
	return status == 204 || status == 304 || (status >= 100 && status < 200)
}
