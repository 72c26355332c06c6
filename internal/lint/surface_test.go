package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/load"
)

// TestExportedSurface keeps the exported API under internal/ to what the
// program uses, and pins its size. An exported name is surface every reader
// must learn and every refactor must keep; here it has to earn that.
//
//   - R1: an exported name under internal/ that nothing names except its own
//     package's tests is dead: delete it (and a test that exists only for
//     it), or, when a remaining test uses it as a pin or an oracle, move it
//     into that package's _test.go files, unexported. A method is exempt when
//     a type it belongs to implements an interface holding it: fmt.Stringer,
//     error, interface{ Unwrap() error }, or any interface type the program
//     mentions.
//   - R2: an exported func or package-level var that no other package names
//     is package-local: unexport it. A same-directory package x_test counts
//     as another package.
//   - R3: the same for an exported type or const, or an exported method of
//     an exported type (with R1's interface exemption). Two exemptions keep
//     the API spellable: a type stays exported when it is reachable from an
//     exported name another package's non-test code names, through pointers,
//     slices, maps, arrays, chans, signatures, interface methods and the
//     exported fields of types already reached (a test calling a constructor
//     does not make its result type API); a const stays exported when
//     another package names a const of its parenthesized const (...) block,
//     so no enumeration is split.
//
// Uses come from every module in the tree (the root one and bench/): non-test
// uses from the type-checked sources, test uses from the selectors of every
// _test.go file. A test uses pkg.Name when it selects it through an import,
// and a method when it has any .Name selector, so a test use can hide a dead
// method but never makes a live one look dead.
//
// The pin counts exported package-level names plus the exported methods of
// exported types under internal/. It only falls: when a change deletes
// surface, lower it in the same diff; when a change must add surface, raise
// it there too, so the addition is a reviewed act (docs/STATIC_ANALYSIS.md).
func TestExportedSurface(t *testing.T) {
	const pinned = 591
	s := scanSurface(t, filepath.Join("..", ".."))
	for _, f := range s.findings {
		t.Error(f)
	}
	if s.count != pinned {
		t.Errorf("exported surface under internal/ is %d names, pinned at %d: move the pin in the same diff", s.count, pinned)
	}
}

// TestExportedSurfaceFixture pins each rule's decision on a two-module tree
// in testdata/src/surface: one exported name per case, the expected verdict
// in its doc comment.
func TestExportedSurfaceFixture(t *testing.T) {
	s := scanSurface(t, filepath.Join("testdata", "src", "surface"))
	var got []string
	for _, f := range s.findings {
		got = append(got, f.rule+" "+f.name)
	}
	want := []string{
		"R1 surface/internal/lib.OnlyOwnTest",
		"R1 surface/internal/lib.T.Dead",
		"R2 surface/internal/lib.Local",
		"R3 surface/internal/lib.Hidden",
		"R3 surface/internal/lib.Lone",
		"R3 surface/internal/lib.T.Own",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
	if s.count != 22 {
		t.Errorf("counted %d exported names, want 22", s.count)
	}
}

// surfaceFinding is one R1, R2 or R3 report.
type surfaceFinding struct {
	rule string // "R1", "R2" or "R3"
	name string // import path, then the name or Type.Method
	pos  token.Position
}

func (f surfaceFinding) String() string {
	what := "named by nothing but its own package's tests: delete it, or move it into a _test.go file"
	if f.rule != "R1" {
		what = "named by no other package: unexport it"
	}
	return fmt.Sprintf("%s: %s %s %s", f.pos, f.rule, f.name, what)
}

type surfaceScan struct {
	count    int
	findings []surfaceFinding
}

// surfaceDecl is one exported name declared under internal/.
type surfaceDecl struct {
	key    string // see surfaceKey
	obj    types.Object
	pkg    *load.Package
	method bool
}

// testUser is a test file's package: its directory and package clause.
type testUser struct{ dir, pkg string }

// scanSurface loads every module under root (root itself and each nested
// go.mod outside testdata), parses every _test.go file, and applies R1, R2
// and R3 to the exported names of root's packages under internal/.
func scanSurface(t *testing.T, root string) surfaceScan {
	t.Helper()
	root, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	var modules, testFiles []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The go tool's own rule: it ignores these directories too.
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case d.Name() == "go.mod" && filepath.Dir(path) != root:
			modules = append(modules, filepath.Dir(path))
		case strings.HasSuffix(d.Name(), "_test.go"):
			testFiles = append(testFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	t.Chdir(root)
	own, err := load.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	all := own
	for _, dir := range modules {
		t.Chdir(dir)
		pkgs, err := load.Load("./...")
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, pkgs...)
	}

	// Non-test uses: key -> import paths of the packages naming it.
	used := make(map[string]map[string]bool)
	names := make(map[string]string) // import path -> package name
	for _, p := range all {
		names[p.ImportPath] = p.Types.Name()
		for _, obj := range p.TypesInfo.Uses {
			if k := surfaceKey(obj); k != "" {
				if used[k] == nil {
					used[k] = make(map[string]bool)
				}
				used[k][p.ImportPath] = true
			}
		}
	}

	// Test uses: pkg.Name selectors per key, and every .Name selector per
	// method name.
	testUses := make(map[string][]testUser)
	testSels := make(map[string][]testUser)
	for _, path := range testFiles {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		user := testUser{dir: filepath.Dir(path), pkg: f.Name.Name}
		imports := make(map[string]string) // local name -> import path
		for _, spec := range f.Imports {
			ipath, _ := strconv.Unquote(spec.Path.Value)
			local, ok := names[ipath]
			if spec.Name != nil {
				local, ok = spec.Name.Name, true
			}
			if ok {
				imports[local] = ipath
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			testSels[sel.Sel.Name] = append(testSels[sel.Sel.Name], user)
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				k := imports[x.Name] + "." + sel.Sel.Name
				testUses[k] = append(testUses[k], user)
			}
			return true
		})
	}

	var s surfaceScan
	var decls []surfaceDecl
	for _, p := range own {
		if !strings.Contains("/"+p.ImportPath+"/", "/internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			decls = append(decls, surfaceDecl{key: surfaceKey(obj), obj: obj, pkg: p})
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					decls = append(decls, surfaceDecl{key: surfaceKey(m), obj: m, pkg: p, method: true})
				}
			}
		}
	}
	s.count = len(decls)

	exempt := interfaceMethods(all)
	// named reports whether a package other than d's own names d.
	named := func(d surfaceDecl) bool {
		if d.method {
			return outsidePackage(used[d.key], d.pkg.ImportPath) || otherPackage(testSels[d.obj.Name()], d.pkg)
		}
		return outsidePackage(used[d.key], d.pkg.ImportPath) || otherPackage(testUses[d.key], d.pkg)
	}
	// R3's exemptions: the consts of an enumeration another package names,
	// and the types reachable from what another package's code names.
	keep := make(map[string]bool)
	var roots []types.Type
	for _, d := range decls {
		keep[d.key] = named(d)
		if outsidePackage(used[d.key], d.pkg.ImportPath) {
			roots = append(roots, d.obj.Type())
		}
	}
	reachable(roots, keep)
	for _, p := range own {
		enumerations(p, keep)
	}
	for _, d := range decls {
		_, fn := d.obj.(*types.Func)
		_, v := d.obj.(*types.Var)
		var rule string
		switch {
		case d.method && exempt[d.key]:
		case d.method && len(used[d.key]) == 0 && !otherDir(testSels[d.obj.Name()], d.pkg.Dir):
			rule = "R1"
		case !d.method && len(used[d.key]) == 0 && !otherDir(testUses[d.key], d.pkg.Dir):
			rule = "R1"
		case named(d):
		case !d.method && (fn || v):
			rule = "R2"
		case !keep[d.key]:
			rule = "R3"
		}
		if rule != "" {
			s.findings = append(s.findings, surfaceFinding{rule: rule, name: d.key, pos: d.pkg.Fset.Position(d.obj.Pos())})
		}
	}
	sort.Slice(s.findings, func(i, j int) bool {
		a, b := s.findings[i], s.findings[j]
		if a.rule != b.rule {
			return a.rule < b.rule
		}
		return a.name < b.name
	})
	return s
}

// surfaceKey names obj the same way in every load: "path.Name" for a
// package-level object, "path.Type.Method" for a method of a named type, and
// "" for anything else (locals, fields, interface methods, unexported names).
func surfaceKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin()
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok || types.IsInterface(named) {
				return ""
			}
			return f.Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// reachable adds to keep the key of every named type reachable from roots
// through pointers, slices, maps, arrays, chans, signatures, type arguments,
// interface methods and exported struct fields: the types a caller of an
// exported name must be able to spell.
func reachable(roots []types.Type, keep map[string]bool) {
	seen := make(map[types.Type]bool)
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			if k := surfaceKey(t.Obj()); k != "" {
				keep[k] = true
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			walk(t.Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
		}
	}
	for _, t := range roots {
		walk(t)
	}
}

// enumerations adds to keep the key of every const in a parenthesized
// const (...) block of p when keep already holds one of the block's consts.
func enumerations(p *load.Package, keep map[string]bool) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || !gd.Lparen.IsValid() {
				continue
			}
			var keys []string
			used := false
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					k := surfaceKey(p.TypesInfo.Defs[id])
					keys = append(keys, k)
					used = used || keep[k]
				}
			}
			if used {
				for _, k := range keys {
					keep[k] = true
				}
			}
		}
	}
}

// interfaceMethods returns the keys of every method some named type in pkgs
// provides to an interface the program mentions (or to fmt.Stringer, error
// and interface{ Unwrap() error }, which fmt and errors find by assertion).
// Types from different packages are distinct objects under the loader, so
// implementation is matched on method names and signature strings.
func interfaceMethods(pkgs []*load.Package) map[string]bool {
	ifaces := map[string][]string{
		"String func() string": {"String func() string"},
		"Error func() string":  {"Error func() string"},
		"Unwrap func() error":  {"Unwrap func() error"},
	}
	seen := make(map[types.Type]bool)
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			walk(t.Underlying())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.Interface:
			if !t.IsMethodSet() || t.NumMethods() == 0 {
				return
			}
			ms := make([]string, t.NumMethods())
			for i := range ms {
				m := t.Method(i)
				ms[i] = methodString(m)
				walk(m.Type())
			}
			sort.Strings(ms)
			ifaces[strings.Join(ms, "; ")] = ms
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.TypesInfo.Types {
			walk(tv.Type)
		}
		for _, objs := range []map[*ast.Ident]types.Object{p.TypesInfo.Defs, p.TypesInfo.Uses} {
			for _, obj := range objs {
				if obj != nil {
					walk(obj.Type())
				}
			}
		}
	}

	exempt := make(map[string]bool)
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			have := make(map[string]types.Object, mset.Len())
			for i := 0; i < mset.Len(); i++ {
				m := mset.At(i).Obj()
				have[methodString(m)] = m
			}
		next:
			for _, ms := range ifaces {
				for _, m := range ms {
					if have[m] == nil {
						continue next
					}
				}
				for _, m := range ms {
					exempt[surfaceKey(have[m])] = true
				}
			}
		}
	}
	return exempt
}

// methodString is m's name and signature with parameter names dropped and
// types qualified by import path, the same whichever load m came from.
func methodString(m types.Object) string {
	sig := m.Type().(*types.Signature)
	unnamed := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	bare := types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic())
	return m.Name() + " " + types.TypeString(bare, func(p *types.Package) string { return p.Path() })
}

// outsidePackage reports whether users holds an import path other than path.
func outsidePackage(users map[string]bool, path string) bool {
	for u := range users {
		if u != path {
			return true
		}
	}
	return false
}

// otherDir reports whether a test outside dir is among users.
func otherDir(users []testUser, dir string) bool {
	for _, u := range users {
		if u.dir != dir {
			return true
		}
	}
	return false
}

// otherPackage reports whether a test of another package than p, a
// same-directory package p_test included, is among users.
func otherPackage(users []testUser, p *load.Package) bool {
	for _, u := range users {
		if u.dir != p.Dir || u.pkg != p.Types.Name() {
			return true
		}
	}
	return false
}
