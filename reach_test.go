package wsync

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the internal declarations that no production
// caller reaches but that tests keep as reference forms to compare
// against.
var reachAllowlist = map[string]string{
	"baseline.NewRoundRobin": "the arena tests' direct construction",
	"samaritan.MustNew":      "the arena tests' direct construction",
	"msg.Equal":              "the codec round-trip tests' comparison",
	"lowerbound.NoSingleton": "the exact reference for EstimateNoSingleton",
}

// TestInternalReachable fails when a package-level declaration under
// internal/ has no production caller. It type-checks every non-test Go
// file of the module and of the nested bench module, takes every
// declaration outside internal/ (the root package, cmd/, examples/ and
// bench/) as a root, and marks live whatever a live declaration's body
// references. Every method of a live type is live, since interface
// dispatch can reach it; blank `var _ I = T{}` assertions are not roots.
// internal/simtest is exempt: only tests import it, which its own guard
// checks.
func TestInternalReachable(t *testing.T) {
	l, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	stale := make(map[string]bool)
	for key := range reachAllowlist {
		stale[key] = true
	}
	for _, obj := range l.unreached() {
		key := obj.Pkg().Name() + "." + obj.Name()
		if _, ok := reachAllowlist[key]; ok {
			delete(stale, key)
			continue
		}
		t.Errorf("%s: %s is reached from no command, example, benchmark or root API",
			l.fset.Position(obj.Pos()), key)
	}
	for key := range stale {
		t.Errorf("allowlisted %s is reached from production or no longer declared; drop it from reachAllowlist", key)
	}
}

// reachLoader type-checks the module's packages from source, resolving
// the standard library through go/importer.
type reachLoader struct {
	module string
	fset   *token.FileSet
	std    types.Importer
	files  map[string][]*ast.File // import path -> non-test files
	pkgs   map[string]*types.Package
	info   *types.Info
}

func loadModule(root string) (*reachLoader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module, _, _ := strings.Cut(strings.TrimPrefix(string(mod), "module "), "\n")
	l := &reachLoader{
		module: strings.TrimSpace(module),
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		files:  make(map[string][]*ast.File),
		pkgs:   make(map[string]*types.Package),
		info:   &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)},
	}
	// Nested modules keep the import paths their directories imply
	// (bench/ is module "wsync/bench"), so one walk maps every package.
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := l.module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			ip += "/" + dir
		}
		l.files[ip] = append(l.files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range l.files {
		if _, err := l.Import(ip); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Import type-checks a module package once, or defers to the standard
// library importer.
func (l *reachLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// unreached returns the package-level declarations under internal/,
// outside internal/simtest, that no root reaches, in source order.
func (l *reachLoader) unreached() []types.Object {
	decls := make(map[types.Object]ast.Node) // declaration -> the syntax it keeps alive
	var roots []ast.Node
	internal := l.module + "/internal/"
	for ip, files := range l.files {
		isRoot := !strings.HasPrefix(ip, internal)
		add := func(name *ast.Ident, node ast.Node) {
			switch {
			case name.Name == "_": // assertions are not roots
			case isRoot:
				roots = append(roots, node)
			default:
				decls[l.info.Defs[name]] = node
			}
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						roots = append(roots, d) // runs whenever the package links
						continue
					}
					add(d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								add(name, s)
							}
						}
					}
				}
			}
		}
	}

	live := make(map[types.Object]bool)
	var work []types.Object
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a generic's instance maps to its declaration
		}
		if _, ok := decls[obj]; ok && !live[obj] {
			live[obj] = true
			work = append(work, obj)
		}
	}
	scan := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := l.info.Uses[id]; obj != nil {
					mark(obj)
				}
			}
			return true
		})
	}
	for _, n := range roots {
		scan(n)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		scan(decls[obj])
		if named, ok := obj.Type().(*types.Named); ok && obj == named.Obj() {
			for i := 0; i < named.NumMethods(); i++ {
				mark(named.Method(i))
			}
		}
	}

	var dead []types.Object
	for obj := range decls {
		if live[obj] || obj.Pkg().Path() == l.module+"/internal/simtest" {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			continue // a method lives and dies with its type
		}
		dead = append(dead, obj)
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := l.fset.Position(dead[i].Pos()), l.fset.Position(dead[j].Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return dead
}
