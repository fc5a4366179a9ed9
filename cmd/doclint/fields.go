package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
)

// unsetFields is the fifth check: every struct field declared in a
// non-test file under root/internal that non-test code reads must also be
// set by non-test code. A field is set by a keyed or positional composite
// literal, an assignment, ++ or --, taking its address, or calling a
// pointer method on it. An assignment inside `if x.f == <zero> { ... }` to
// that same field only fills in a default and does not count. A field that
// is read but never set is a knob nobody turns: it holds its zero value or
// its default in every run, so it is a constant. Tagged fields (a decoder
// sets them) and fields whose comment carries `//doclint:keep <reason>`
// are exempt.
func unsetFields(l *loader) []string {
	fset := l.fset
	var out []string
	name := map[*types.Var]string{}
	for _, p := range l.pkgs {
		if !l.underInternal(p) {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fd := range st.Fields.List {
					if kept(fset, &out, fd.Doc, fd.Comment) || fd.Tag != nil {
						continue
					}
					for _, id := range fd.Names {
						if v, ok := p.info.Defs[id].(*types.Var); ok {
							name[v] = ts.Name.Name + "." + id.Name
						}
					}
				}
				return true
			})
		}
	}

	set := map[*types.Var]bool{}
	read := map[*types.Var]bool{}
	for _, p := range l.pkgs {
		w := &fieldWalk{info: p.info, set: set, written: map[*ast.Ident]bool{}, defaults: map[ast.Expr]bool{}}
		for _, f := range p.files {
			ast.Inspect(f, w.visit)
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !w.written[id] {
				read[v.Origin()] = true
			}
		}
	}
	for v, n := range name {
		if read[v] && !set[v] {
			pos := fset.Position(v.Pos())
			out = append(out, fmt.Sprintf("%s:%d: field %s is read but never set: make it a constant, or say why it stays with %s <reason>",
				pos.Filename, pos.Line, n, keepDirective))
		}
	}
	sort.Strings(out)
	return out
}

// fieldWalk records, for one package, the fields its code sets and the
// field identifiers that are written rather than read.
type fieldWalk struct {
	info *types.Info
	set  map[*types.Var]bool
	// written holds composite-literal keys and the field of a plain
	// assignment's left-hand side: uses that do not read the field.
	written map[*ast.Ident]bool
	// defaults holds the left-hand sides of `if x.f == <zero> { x.f = ... }`.
	defaults map[ast.Expr]bool
}

func (w *fieldWalk) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CompositeLit:
		st, _ := derefType(w.info.TypeOf(n)).Underlying().(*types.Struct)
		if st == nil {
			break
		}
		for i, e := range n.Elts {
			kv, ok := e.(*ast.KeyValueExpr)
			if !ok {
				w.set[st.Field(i).Origin()] = true
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok {
				w.written[id] = true
				if v, ok := w.info.Uses[id].(*types.Var); ok {
					w.set[v.Origin()] = true
				}
			}
		}
	case *ast.IfStmt:
		w.markDefaults(n)
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if w.defaults[lhs] {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					w.written[sel.Sel] = true
				}
				continue
			}
			if sel, ok := lhs.(*ast.SelectorExpr); ok && n.Tok == token.ASSIGN {
				w.written[sel.Sel] = true
			}
			w.setPath(lhs)
		}
	case *ast.IncDecStmt:
		w.setPath(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.setPath(n.X)
		}
	case *ast.SliceExpr:
		// Slicing an array needs its address.
		if _, ok := w.info.TypeOf(n.X).Underlying().(*types.Array); ok {
			w.setPath(n.X)
		}
	case *ast.SelectorExpr:
		// A pointer method called on (or taken from) an addressable value
		// takes its address.
		sel := w.info.Selections[n]
		if sel == nil || sel.Kind() != types.MethodVal {
			break
		}
		recv := sel.Obj().Type().(*types.Signature).Recv()
		if _, ptr := recv.Type().(*types.Pointer); ptr {
			if _, isPtr := w.info.TypeOf(n.X).Underlying().(*types.Pointer); !isPtr {
				w.setPath(n.X)
			}
		}
	}
	return true
}

// markDefaults records the assignments that only fill in a default: in
// `if x.f == <zero> { ... }`, or a condition with that as one of its &&
// terms, each statement of the body that assigns x.f.
func (w *fieldWalk) markDefaults(n *ast.IfStmt) {
	guards := map[*types.Var]bool{}
	var terms func(e ast.Expr)
	terms = func(e ast.Expr) {
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		switch {
		case !ok:
		case b.Op == token.LAND:
			terms(b.X)
			terms(b.Y)
		case b.Op == token.EQL && w.isZero(b.Y):
			if v := w.field(b.X); v != nil {
				guards[v] = true
			}
		}
	}
	terms(n.Cond)
	for _, s := range n.Body.List {
		if as, ok := s.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if v := w.field(lhs); v != nil && guards[v] {
					w.defaults[lhs] = true
				}
			}
		}
	}
}

// field returns the field e selects, or nil.
func (w *fieldWalk) field(e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if v, ok := w.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}

// isZero reports whether e is nil or a constant zero, "" or false.
func (w *fieldWalk) isZero(e ast.Expr) bool {
	tv := w.info.Types[e]
	return tv.IsNil() || tv.Value != nil && slices.Contains([]string{"0", `""`, "false"}, tv.Value.ExactString())
}

// setPath marks every field on e's value path as set: writing x.f.g[i]
// writes g and f, but stops at a pointer or a slice or map element, whose
// write does not change the field that holds the reference.
func (w *fieldWalk) setPath(e ast.Expr) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			v := w.field(x)
			if v == nil {
				return
			}
			w.set[v] = true
			if _, ptr := w.info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			if _, ok := w.info.TypeOf(x.X).Underlying().(*types.Array); !ok {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// derefType strips one pointer: &T{...} and elided *T elements are
// literals of T.
func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
