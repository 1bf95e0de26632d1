//go:build ignore

// deadexports is the CI check that the internal packages carry no
// exported API that only tests reach: it fails when an exported func or
// method declared in a non-test file under internal/ has no reference
// from any non-test .go file of the module or of perfbench/ (the
// benchmark module, which imports the internals from outside).
//
// References are matched by name, the way `git grep -w` would see them:
//   - a func is reached by `pkg.Name` in a file that imports its package,
//     or by a bare `Name` in another spot of its own package;
//   - a method is reached by any `.Name` selector anywhere, since without
//     type information a selector cannot be tied to its receiver.
//
// Methods that satisfy a standard interface (fmt.Stringer, error, the
// JSON and text codecs) are called by the standard library, never by
// name, and are exempt. So are the entries of the exempt table below,
// each with its reason.
//
// Usage: go run scripts/deadexports.go (from the repository root)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// module is the root module path; internal packages import as module/internal/...
const module = "dnnparallel"

// interfaceMethods are called through a standard-library interface.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

// exempt lists exported API kept on purpose although no binary reaches
// it, keyed "pkg.Func" or "pkg.Type.Method".
var exempt = map[string]string{
	// Fixtures and oracles that tests of other packages import.
	"costmodel.MemoryStages":        "per-stage footprint estimate the planner tests re-derive plan footprints with",
	"grid.SpanOf":                   "rank-list span oracle of the collective tests",
	"nn.Model.ApplySGD":             "serial SGD reference of the checkpoint tests and root benchmarks",
	"nn.Model.SetWeights":           "seeds identical weights into the engines the checkpoint tests resume",
	"nn.TinyConvNet":                "small conv network of the parallel, checkpoint and root tests",
	"planner.SearchStats.ZeroTimes": "clears wall-clock fields so root and cli tests compare searches",
	"tensor.FromSlice":              "literal-matrix fixture of the nn and rnn tests",
	"timeline.Single":               "one-iteration schedule of the costmodel, planner, report and root tests",
	"timeline.Simulate":             "event-list oracle of SimulatePipeline's slice-indexed scheduler",
	// The LSTM engines and pricer wait for the planner to price
	// recurrent networks; until then only their tests call them.
	"rnn.RunLSTMSerial": "LSTM API, reached once the planner prices recurrent networks",
	"rnn.RunLSTM15D":    "LSTM API, reached once the planner prices recurrent networks",
	"rnn.LSTMCost15D":   "LSTM API, reached once the planner prices recurrent networks",
	"rnn.LSTM.Loss":     "LSTM API, reached once the planner prices recurrent networks",
}

type decl struct {
	key  string // pkg.Func or pkg.Type.Method
	name string
	dir  string // package directory, slash-separated
	pos  token.Position
	recv bool
}

type file struct {
	dir     string
	ast     *ast.File
	imports map[string]string // local name → import path
}

func main() {
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f, imports})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}

	// Exported funcs and methods of the internal packages. The
	// declaration's own name is not a reference to it.
	var decls []decl
	self := map[*ast.Ident]bool{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			self[fn.Name] = true
			key := f.ast.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.ast.Name.Name + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, f.dir, fset.Position(fn.Name.Pos()), fn.Recv != nil})
		}
	}

	// Every name use: bare identifiers per package directory, qualified
	// pkg.Name uses per import path, and selector names for methods.
	bare := map[string]map[string]bool{} // dir → names
	qualified := map[string]bool{}       // importpath.Name
	selected := map[string]bool{}        // .Name
	for _, f := range files {
		if bare[f.dir] == nil {
			bare[f.dir] = map[string]bool{}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := f.imports[x.Name]; ok {
						qualified[p+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit) // n.Sel is no bare name
				return false
			case *ast.Ident:
				if !self[n] {
					bare[f.dir][n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	// An exempt entry must name a declaration nothing reaches, so the
	// table shrinks once a binary calls one of its names.
	stale := map[string]bool{}
	for key := range exempt {
		stale[key] = true
	}
	var dead []decl
	for _, d := range decls {
		reached := bare[d.dir][d.name] || qualified[module+"/"+d.dir+"."+d.name]
		if d.recv {
			reached = interfaceMethods[d.name] || selected[d.name]
		}
		if _, ok := exempt[d.key]; ok {
			if !reached {
				delete(stale, d.key)
			}
			continue
		}
		if !reached {
			dead = append(dead, d)
		}
	}
	for _, key := range sortedKeys(stale) {
		fmt.Fprintf(os.Stderr, "deadexports: exempt entry %s names no unreached declaration; drop it\n", key)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos.String() < dead[j].pos.String() })
	for _, d := range dead {
		fmt.Fprintf(os.Stderr, "%s: %s has no non-test reference\n", d.pos, d.key)
	}
	if len(dead) > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "deadexports: %d unreached exported funcs/methods under internal/\n", len(dead))
		os.Exit(1)
	}
	fmt.Printf("deadexports: ok (%d exported funcs/methods under internal/, %d exempt)\n", len(decls), len(exempt))
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// recvType names a method's receiver type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}
