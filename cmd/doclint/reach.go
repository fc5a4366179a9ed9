package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// keepDirective exempts one identifier from the reachability check. It
// must carry a reason: `//doclint:keep <why this stays without a caller>`.
const keepDirective = "//doclint:keep"

// module is one go.mod under the root: its module path and directory.
type module struct{ path, dir string }

// pkg is one type-checked package. Only non-test files are loaded: a
// reference from a test does not make an identifier reachable.
type pkg struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks packages from source. An import path inside one of
// the modules resolves by the longest module-path prefix, which is how a
// nested module such as benchmark/ reaches the main module's internal
// packages; every other import comes from the compiler's export data.
type loader struct {
	fset *token.FileSet
	mods []module // in walk order, so a nested module follows its parent
	std  types.Importer
	pkgs map[string]*pkg
	errs []string
	// internal is root/internal with a trailing separator, set by load.
	internal string
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.types, nil
	}
	for i := len(l.mods) - 1; i >= 0; i-- {
		if m := l.mods[i]; path == m.path || strings.HasPrefix(path, m.path+"/") {
			p, err := l.load(path, filepath.Join(m.dir, strings.TrimPrefix(path, m.path)))
			if err != nil {
				return nil, err
			}
			return p.types, nil
		}
	}
	return l.std.Import(path)
}

// load parses and type-checks the non-test files in dir as package path.
func (l *loader) load(path, dir string) (*pkg, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{dir: dir, info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err.Error()) }}
	p.types, _ = conf.Check(path, l.fset, p.files, p.info)
	l.pkgs[path] = p
	return p, nil
}

// loadTree type-checks every package under root, skipping what the go
// tool skips. A directory holding a go.mod starts a module.
func (l *loader) loadTree(root string) error {
	return filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); dir != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					l.mods = append(l.mods, module{path: strings.Trim(f[1], `"`), dir: dir})
				}
			}
		}
		for i := len(l.mods) - 1; i >= 0; i-- {
			m := l.mods[i]
			if rel, err := filepath.Rel(m.dir, dir); err == nil && !strings.HasPrefix(rel, "..") {
				path := strings.TrimSuffix(m.path+"/"+filepath.ToSlash(rel), "/.")
				if _, done := l.pkgs[path]; done {
					return nil
				}
				if _, err := l.load(path, dir); err != nil {
					if _, empty := err.(*build.NoGoError); !empty {
						return err
					}
				}
				return nil
			}
		}
		return fmt.Errorf("%s: not inside a module", dir)
	})
}

// load parses and type-checks every module under root once, for the
// checks that need types (reachability and unset fields). It returns the
// type errors instead of a loader when the tree does not check.
func load(root string) (*loader, []string) {
	fset := token.NewFileSet()
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "gc", nil), pkgs: map[string]*pkg{}}
	if err := l.loadTree(root); err != nil {
		return nil, []string{err.Error()}
	}
	if len(l.errs) > 0 {
		return nil, l.errs
	}
	l.internal = filepath.Join(root, "internal") + string(filepath.Separator)
	return l, nil
}

// underInternal reports whether p is a package of root/internal, whose
// declarations the typed checks hold to account.
func (l *loader) underInternal(p *pkg) bool {
	return strings.HasPrefix(p.dir+string(filepath.Separator), l.internal)
}

// kept reports whether one of the comment groups carries a keep directive
// with a reason, and appends a problem to bad for each one without.
func kept(fset *token.FileSet, bad *[]string, docs ...*ast.CommentGroup) bool {
	k := false
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			rest, ok := strings.CutPrefix(c.Text, keepDirective)
			if !ok || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			if strings.TrimSpace(rest) == "" {
				p := fset.Position(c.Pos())
				*bad = append(*bad, fmt.Sprintf("%s:%d: %s needs a reason", p.Filename, p.Line, keepDirective))
				continue
			}
			k = true
		}
	}
	return k
}

// candidate is a package-level identifier declared under internal/.
type candidate struct {
	kind, name string
	keep       bool
}

// reachability is the third check: every package-level identifier
// (func, method, type, const or var; exported or not) declared in a
// non-test file under root/internal must be referenced from a non-test
// file of some module under root. Unexported ones can only be referenced
// from their own package, so deleting a caller cannot strand a helper
// unseen. Methods that implement an interface method are exempt (dynamic
// dispatch reaches them), as is anything whose doc comment carries
// `//doclint:keep <reason>`, the blank identifier, and init. Struct fields
// are the fifth check's (fields.go).
func reachability(l *loader) []string {
	fset := l.fset
	var out []string
	cands := map[types.Object]candidate{}
	for _, p := range l.pkgs {
		if l.underInternal(p) {
			for _, f := range p.files {
				out = append(out, collect(fset, p.info, f, cands)...)
			}
		}
	}
	used := dispatched(l.pkgs)
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			used[obj] = true
		}
	}
	for obj, c := range cands {
		if !c.keep && !used[obj] {
			pos := fset.Position(obj.Pos())
			out = append(out, fmt.Sprintf("%s:%d: %s %s has no non-test caller: delete it, or say why it stays with %s <reason>",
				pos.Filename, pos.Line, c.kind, c.name, keepDirective))
		}
	}
	sort.Strings(out)
	return out
}

// collect records the file's package-level declarations as candidates and
// returns a problem for each keep directive without a reason.
func collect(fset *token.FileSet, info *types.Info, f *ast.File, cands map[types.Object]candidate) []string {
	var bad []string
	keep := func(docs ...*ast.CommentGroup) bool { return kept(fset, &bad, docs...) }
	add := func(id *ast.Ident, kind, name string, k bool) {
		if obj := info.Defs[id]; obj != nil && id.Name != "_" && !(kind == "func" && id.Name == "init") {
			cands[obj] = candidate{kind: kind, name: name, keep: k}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, "func", d.Name.Name, keep(d.Doc))
				continue
			}
			recv := d.Recv.List[0].Type
			if s, ok := recv.(*ast.StarExpr); ok {
				recv = s.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				add(d.Name, "method", id.Name+"."+d.Name.Name, keep(d.Doc))
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, "type", s.Name.Name, keep(d.Doc, s.Doc))
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, strings.ToLower(d.Tok.String()), n.Name, keep(d.Doc, s.Doc))
					}
				}
			}
		}
	}
	return bad
}

// dispatched returns the methods that implement an interface method: for
// each named type the modules declare and each non-empty interface in
// sight (declared, imported, or spelled out as the type of a variable,
// field or parameter), the method behind every interface method, possibly
// promoted from an embedded field, when the type or its pointer satisfies
// the interface.
func dispatched(pkgs map[string]*pkg) map[types.Object]bool {
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying())
	// scopeTypes visits a package's named types, skipping generic ones:
	// satisfying those needs an instantiation.
	scopeTypes := func(tp *types.Package, visit func(t types.Type)) {
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					visit(n)
				}
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if !seen[tp] {
			seen[tp] = true
			scopeTypes(tp, func(t types.Type) { addIface(t.Underlying()) })
			for _, imp := range tp.Imports() {
				walk(imp)
			}
		}
	}
	var named []types.Type
	for _, p := range pkgs {
		walk(p.types)
		scopeTypes(p.types, func(t types.Type) {
			if !types.IsInterface(t) {
				named = append(named, t, types.NewPointer(t))
			}
		})
		for _, obj := range p.info.Defs {
			if v, ok := obj.(*types.Var); ok {
				addIface(v.Type())
			}
		}
	}

	out := map[types.Object]bool{}
	for _, t := range named {
		for _, it := range ifaces {
			if types.Implements(t, it) {
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name()); obj != nil {
						out[obj] = true
					}
				}
			}
		}
	}
	return out
}
