// doclint is the documentation gate behind `make doc-lint`: it keeps the
// prose and the code from drifting apart without a human having to notice.
//
//	doclint
//
// Five checks, all fatal on failure:
//
//  1. Godoc coverage. Every exported identifier (type, function, method,
//     and exported struct field) in the packages of docPackages must
//     carry a doc comment: the ones whose exported surface is the
//     contract other layers program against, internal/model,
//     internal/autonomic, internal/tune. Grouped const/var declarations
//     count as documented when the group has a doc comment.
//
//  2. Markdown anchors. Every intra-repo link in the top-level docs
//     (linkedDocs) — [text](FILE.md), [text](#heading), [text](FILE.md#heading) —
//     must resolve: the file must exist and the fragment must match a
//     heading's GitHub slug (see slugify). Broken links are how a docs
//     overhaul rots.
//
//  3. Reachability. Every package-level func, method, type, const and var
//     declared in a non-test file under internal/, exported or not, must
//     be referenced from a non-test file of some module under the current
//     directory (the main module and nested ones such as benchmark/).
//     Methods that implement an interface method are exempt, and so is an
//     identifier whose doc comment carries a `//doclint:keep <reason>`
//     line; a keep without a reason is itself a problem. Struct fields are
//     the fifth check's. See reach.go.
//
//  4. Quoted results. Every table in EXPERIMENTS.md is a ```results
//     excerpt of results_full.txt, the full run: one of its `== title ==`
//     lines, then lines of that table verbatim and in order, rows skipped
//     at will. A change that moves the run names each stale line and the
//     lines to paste from; a markdown table row fails. See results.go.
//
//  5. Set fields. Every struct field declared in a non-test file under
//     internal/ that non-test code reads must also be set by non-test
//     code: by a composite literal, an assignment, ++/--, taking its
//     address or calling a pointer method on it. Filling in a default
//     under `if x.f == 0` does not count, so a knob nobody turns is
//     flagged and becomes a constant. Tagged fields and fields carrying
//     `//doclint:keep <reason>` are exempt. See fields.go.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"unicode"
)

// docPackages are the package directories whose exported identifiers must
// be documented; linkedDocs are the markdown files whose intra-repo links
// must resolve.
var (
	docPackages = []string{"internal/model", "internal/autonomic", "internal/tune"}
	linkedDocs  = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}
)

func main() {
	var problems []string
	for _, dir := range docPackages {
		problems = append(problems, lintPackage(dir)...)
	}
	problems = append(problems, lintMarkdown(linkedDocs)...)
	if l, errs := load("."); l == nil {
		problems = append(problems, errs...)
	} else {
		problems = append(problems, reachability(l)...)
		problems = append(problems, unsetFields(l)...)
	}
	problems = append(problems, lintExcerpts("EXPERIMENTS.md", "results_full.txt")...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doclint: all exported identifiers documented, all internal/ declarations reachable, every read internal/ field set, all markdown links resolve, every EXPERIMENTS.md table an excerpt of results_full.txt")
}

// lintPackage parses every non-test Go file in dir and reports exported
// identifiers that lack a doc comment.
func lintPackage(dir string) []string {
	fset := token.NewFileSet()
	pkgMap, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s %s is exported but undocumented", p.Filename, p.Line, what, name))
	}
	for _, pkg := range pkgMap {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							// Methods on unexported receivers are not part
							// of the exported surface.
							if !exportedRecv(d.Recv) {
								continue
							}
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					lintGenDecl(d, report)
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether a method's receiver type is exported.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// lintGenDecl checks type/const/var declarations. A grouped declaration's
// doc comment covers the group; an individual spec's doc or trailing line
// comment covers that spec.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
			if s.Name.IsExported() {
				if st, ok := s.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						for _, n := range f.Names {
							if n.IsExported() && f.Doc == nil && f.Comment == nil {
								report(n.Pos(), "field", s.Name.Name+"."+n.Name)
							}
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					what := "var"
					if d.Tok == token.CONST {
						what = "const"
					}
					report(n.Pos(), what, n.Name)
				}
			}
		}
	}
}

var (
	// [text](target) — shortest-match on both halves; images excluded by
	// the lookbehind-free trick of stripping a leading '!'.
	linkRE    = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	headingRE = regexp.MustCompile("^#{1,6}\\s+(.+?)\\s*$")
	codeFence = regexp.MustCompile("^(```|~~~)")
)

// lintMarkdown resolves every intra-repo link in the given files.
func lintMarkdown(files []string) []string {
	anchors := map[string]map[string]bool{}
	var out []string
	for _, f := range files {
		a, err := headingSlugs(f)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", f, err))
			continue
		}
		anchors[f] = a
	}
	for _, f := range files {
		if anchors[f] == nil {
			continue
		}
		out = append(out, lintLinks(f, anchors)...)
	}
	return out
}

// headingSlugs returns the set of GitHub-style anchor slugs for a
// markdown file's headings, with the duplicate-heading "-n" suffix rule.
func headingSlugs(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	slugs := map[string]bool{}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if codeFence.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := headingRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		s := slugify(m[1])
		if n := counts[s]; n > 0 {
			slugs[fmt.Sprintf("%s-%d", s, n)] = true
		} else {
			slugs[s] = true
		}
		counts[s]++
	}
	return slugs, nil
}

// slugify is GitHub's heading-anchor algorithm: link markup stripped,
// letters, marks and digits (Unicode ones too), '_' and '-' kept and
// lowercased, spaces turned to dashes, everything else dropped.
func slugify(h string) string {
	// Strip link syntax in headings: [text](url) -> text.
	h = linkRE.ReplaceAllStringFunc(h, func(s string) string {
		return s[1:strings.Index(s, "]")]
	})
	return strings.Map(func(r rune) rune {
		switch {
		case r == ' ':
			return '-'
		case r == '_' || r == '-' || unicode.IsLetter(r) || unicode.IsMark(r) || unicode.IsNumber(r):
			return unicode.ToLower(r)
		}
		return -1
	}, h)
}

// lintLinks checks every link in one file against the anchor sets.
func lintLinks(path string, anchors map[string]map[string]bool) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var out []string
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if codeFence.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; not ours to verify offline
			}
			file, frag := target, ""
			if j := strings.IndexByte(target, '#'); j >= 0 {
				file, frag = target[:j], target[j+1:]
			}
			if file == "" {
				file = path
			} else {
				file = filepath.Join(filepath.Dir(path), file)
				if _, err := os.Stat(file); err != nil {
					out = append(out, fmt.Sprintf("%s:%d: broken link %q: no such file", path, i+1, target))
					continue
				}
			}
			if frag == "" {
				continue
			}
			set := anchors[file]
			if set == nil {
				// Link into a file we were not asked to anchor-check:
				// existence of the file is enough.
				continue
			}
			if !set[frag] {
				out = append(out, fmt.Sprintf("%s:%d: broken anchor %q: no heading slugs to #%s", path, i+1, target, frag))
			}
		}
	}
	return out
}
