// Command unreached lists the declarations no production program reaches
// and holds that list to the ledger beside it, testonly.txt:
//
//	go run ./internal/tools/unreached .
//
// Every non-test file under the module root is type-checked; the graph has a
// node per top-level declaration and an edge per identifier use. The roots:
// main and init in the root module; every declaration of a module nested in
// it (bench/); the exported names the package at the module root declares
// (not methods reached only through a type alias there); package-level
// initialisers, which run whether or not their variable is read; and a
// reachable type's methods that some interface names. Constants are never
// reported: a value ships no code. The run fails on an unreachable
// declaration the ledger lacks and on a ledger line that is reachable or
// gone, so the ledger shrinks by deletion and grows by a reviewed diff.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const ledgerPath = "internal/tools/unreached/testonly.txt"

// reasons is the ledger's vocabulary.
var reasons = map[string]bool{"harness": true, "reference": true, "feed": true, "observer": true}

func main() {
	log.SetFlags(0)
	log.SetPrefix("unreached: ")
	if len(os.Args) != 2 {
		log.Fatal("usage: unreached MODULE-ROOT")
	}
	root := filepath.Clean(os.Args[1])
	unreached, err := analyze(root)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(filepath.Join(root, ledgerPath))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	ledger, err := parseLedger(f)
	if err != nil {
		log.Fatal(err)
	}
	problems := check(unreached, ledger)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	lines := 0
	for _, d := range unreached {
		lines += d.lines
	}
	fmt.Printf("%d production-unreachable declarations, %d lines; %d ledger entries\n", len(unreached), lines, len(ledger))
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// decl is one top-level declaration: a function, a method, a type, or a var
// or const spec (named by its first name).
type decl struct {
	name, pkg string    // "internal/resolver.Client.Exchange", "internal/resolver"
	pos       token.Pos // of the declared name
	where     token.Position
	lines     int         // declaration plus doc comment
	method    string      // the method's name, for a method
	recv      token.Pos   // where its receiver's type is declared
	uses      []token.Pos // where each object the declaration mentions is declared

	constant, reached bool
}

// loader type-checks each package under root once, by directory, and records
// its declarations. Objects are keyed by the position that declares them,
// which an instantiated generic shares with its origin.
type loader struct {
	fset   *token.FileSet
	root   string
	module string          // the root module's path
	nested map[string]bool // directory -> inside a module below the root one
	std    types.ImporterFrom
	pkgs   map[string]*types.Package
	decls  []*decl
	owner  map[token.Pos]*decl // declaring identifier -> its top-level declaration
	roots  decl                // its edges are the roots, and what package-level initialisers mention
	iface  map[string]bool     // the method names of every interface seen
}

// analyze returns the declarations under root that no production root
// reaches, sorted by name. An unreached type stands for its methods: they
// are counted in its lines and not listed.
func analyze(root string) ([]*decl, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	_, after, _ := strings.Cut(string(gomod), "module ")
	module := strings.Fields(after)
	if len(module) == 0 {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	// The pure-Go net and os/user: the source importer would run cgo.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		fset: fset, root: root, module: module[0], nested: map[string]bool{},
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{}, owner: map[token.Pos]*decl{},
		// error's method, and the ones package errors looks for through
		// interfaces inside function bodies, which the source importer skips.
		iface: map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true},
	}
	var dirs []string // every directory is placed before any is loaded
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != root && (n == "testdata" || n == "vendor" || n[0] == '.' || n[0] == '_') {
			return filepath.SkipDir
		}
		_, err = os.Stat(filepath.Join(path, "go.mod"))
		l.nested[path] = l.nested[filepath.Dir(path)] || path != root && err == nil
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		var none *build.NoGoError
		if _, err := l.load(dir); err != nil && !errors.As(err, &none) {
			return nil, err
		}
	}
	l.reach()

	var out []*decl
	for _, d := range l.decls {
		switch t := l.owner[d.recv]; {
		case d.reached || d.constant:
		case t != nil && !t.reached:
			t.lines += d.lines
		default:
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// ImportFrom finds a package of the root module (which is how a nested
// module's replace directive resolves it) in its directory, and everything
// else in the standard library's sources.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rest, ok := strings.CutPrefix(path, l.module); ok && (rest == "" || rest[0] == '/') {
		return l.load(filepath.Join(l.root, rest))
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) load(dir string) (*types.Package, error) {
	if p := l.pkgs[dir]; p != nil {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(dir, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[dir] = pkg
	for _, imp := range pkg.Imports() {
		for _, name := range imp.Scope().Names() {
			if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
				l.noteInterface(tn.Type())
			}
		}
	}
	rel, err := filepath.Rel(l.root, dir)
	for _, f := range files {
		l.declare(f, info, filepath.ToSlash(rel), l.nested[dir], bp.Name == "main")
	}
	return pkg, err
}

func (l *loader) noteInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			l.iface[it.Method(i).Name()] = true
		}
	}
}

// declare records one file's declarations and what each mentions. In a
// nested module every declaration is a root; in the package at the module
// root ("."), every exported one.
func (l *loader) declare(f *ast.File, info *types.Info, pkg string, nested, isMain bool) {
	add := func(id *ast.Ident, recv string, node ast.Node, doc *ast.CommentGroup, root bool) *decl {
		start := node.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		d := &decl{
			name: pkg + "." + recv + id.Name, pkg: pkg, pos: id.Pos(), where: l.fset.Position(id.Pos()),
			lines: l.fset.Position(node.End()).Line - l.fset.Position(start).Line + 1,
		}
		l.decls = append(l.decls, d)
		if root || nested || id.Name == "_" || pkg == "." && recv == "" && id.IsExported() {
			l.roots.uses = append(l.roots.uses, id.Pos())
		}
		return d
	}
	// mentions attributes each identifier under node: one it declares makes
	// d its owner, one it uses is an edge from d.
	mentions := func(d *decl, node ast.Node) {
		ast.Inspect(node, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok && info.Types[it].Type != nil {
				l.noteInterface(info.Types[it].Type)
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if info.Defs[id] != nil {
				l.owner[id.Pos()] = d
			}
			if obj := info.Uses[id]; obj != nil && obj.Pos().IsValid() {
				d.uses = append(d.uses, obj.Pos())
			}
			return true
		})
	}
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			if gd.Recv == nil {
				name := gd.Name.Name
				mentions(add(gd.Name, "", gd, gd.Doc, name == "init" || isMain && name == "main"), gd)
				continue
			}
			recv := types.Unalias(info.Defs[gd.Name].Type().(*types.Signature).Recv().Type())
			if p, ok := recv.(*types.Pointer); ok {
				recv = types.Unalias(p.Elem())
			}
			tn := recv.(*types.Named).Obj()
			d := add(gd.Name, tn.Name()+".", gd, gd.Doc, false)
			d.method, d.recv = gd.Name.Name, tn.Pos()
			mentions(d, gd)
		case *ast.GenDecl:
			for _, spec := range gd.Specs {
				var id *ast.Ident
				var doc *ast.CommentGroup
				switch s := spec.(type) {
				case *ast.TypeSpec:
					id, doc = s.Name, s.Doc
				case *ast.ValueSpec:
					id, doc = s.Names[0], s.Doc
				default:
					continue
				}
				node := ast.Node(spec)
				if !gd.Lparen.IsValid() {
					node, doc = gd, gd.Doc
				}
				d := add(id, "", node, doc, false)
				d.constant = gd.Tok == token.CONST
				mentions(d, spec)
				if vs, ok := spec.(*ast.ValueSpec); ok && gd.Tok == token.VAR {
					for _, v := range vs.Values {
						mentions(&l.roots, v) // it runs whether or not d is read
					}
				}
			}
		}
	}
}

// reach marks everything the roots lead to. A method whose name some
// interface declares is an edge from its receiver's type.
func (l *loader) reach() {
	for _, d := range l.decls {
		if t := l.owner[d.recv]; t != nil && l.iface[d.method] {
			t.uses = append(t.uses, d.pos)
		}
	}
	var mark func(*decl)
	mark = func(d *decl) {
		if d != nil && !d.reached {
			d.reached = true
			for _, pos := range d.uses {
				mark(l.owner[pos])
			}
		}
	}
	mark(&l.roots)
}

// parseLedger reads "name<TAB>reason" lines; '#' starts a comment line.
func parseLedger(r io.Reader) (map[string]string, error) {
	ledger := map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, reason, _ := strings.Cut(line, "\t")
		if _, dup := ledger[name]; dup || !reasons[reason] {
			return nil, fmt.Errorf("%s:%d: want NAME<TAB>harness|reference|feed|observer, each name once; got %q", ledgerPath, n, line)
		}
		ledger[name] = reason
	}
	return ledger, sc.Err()
}

// check holds the unreached declarations to the ledger, both ways; a bare
// package path in the ledger covers the package's declarations.
func check(unreached []*decl, ledger map[string]string) []string {
	var problems []string
	used := map[string]bool{}
	for _, d := range unreached {
		switch {
		case ledger[d.name] != "":
			used[d.name] = true
		case ledger[d.pkg] != "":
			used[d.pkg] = true
		default:
			problems = append(problems, fmt.Sprintf("%s:%d: %s (%d lines) is reached by no command, example, benchmark or public API: delete it, or list it in %s",
				d.where.Filename, d.where.Line, d.name, d.lines, ledgerPath))
		}
	}
	for name := range ledger {
		if !used[name] {
			problems = append(problems, ledgerPath+": "+name+" is reachable or gone: delete the line")
		}
	}
	sort.Strings(problems)
	return problems
}
