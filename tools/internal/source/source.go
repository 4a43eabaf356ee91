// Package source type-checks a Go module once, with one file set and one
// shared importer, for the repository's source tools (detvet, metricsdoc):
// an object two packages name is one types.Object, and a constant resolves
// to its value wherever it is used. It owns the registry-method table.
package source

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// metricMethods maps the registry methods whose first argument is a metric
// family name to the kind of family they register. The labeled forms end
// in Vec; their remaining arguments are label keys.
var metricMethods = map[string]string{
	"Counter": "counter", "Gauge": "gauge", "FloatGauge": "gauge", "Histogram": "histogram",
	"CounterVec": "counter", "FloatGaugeVec": "gauge", "HistogramVec": "histogram",
}

// MetricName matches the registry's namespace: kubeshare_-prefixed
// snake_case.
var MetricName = regexp.MustCompile(`^kubeshare_[a-z0-9]+(_[a-z0-9]+)*$`)

// Package is one type-checked package of the module, or a test variant of
// one (ForTest names the package under test). A package the program itself
// builds has no test file in Files. A variant re-checks the same *ast.File
// values, so an object it declares has the original's position: match
// objects across variants by declaration position, not by identity.
type Package struct {
	Path, Dir, ForTest string
	Files              []*ast.File
	Info               *types.Info
	Types              *types.Package
}

// Program is a loaded module; Pkgs are in dependency order.
type Program struct {
	Root string // the module's directory
	Fset *token.FileSet
	Pkgs []*Package
}

// Load type-checks every package of the module holding dir, with its test
// variants, as `go list -deps -test ./...` at the module root enumerates
// them. The standard library is checked from source by one shared
// importer. Any parse or type error fails the load.
func Load(dir string) (*Program, error) {
	root, err := goCmd(dir, "list", "-m", "-f", "{{.Dir}}")
	if err != nil {
		return nil, err
	}
	prog := &Program{Root: strings.TrimSpace(root), Fset: token.NewFileSet()}
	if prog.Root == "" {
		return nil, fmt.Errorf("%s is not inside a module", dir)
	}
	out, err := goCmd(prog.Root, "list", "-deps", "-test", "-json=ImportPath,Dir,ForTest,GoFiles,ImportMap,Standard", "./...")
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(prog.Fset, "source", nil)
	parsed := map[string]*ast.File{}
	checked := map[string]*types.Package{}
	for dec := json.NewDecoder(strings.NewReader(out)); dec.More(); {
		var lp struct {
			ImportPath, Dir, ForTest string
			GoFiles                  []string
			ImportMap                map[string]string
			Standard                 bool
		}
		if err := dec.Decode(&lp); err != nil {
			return nil, err
		}
		if lp.Standard || strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		path, _, _ := strings.Cut(lp.ImportPath, " ") // less the " [p.test]" of a variant
		p := &Package{Path: path, Dir: lp.Dir, ForTest: lp.ForTest, Info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}}
		for _, name := range lp.GoFiles {
			name = filepath.Join(lp.Dir, name)
			if parsed[name] == nil {
				if parsed[name], err = parser.ParseFile(prog.Fset, name, nil, parser.ParseComments); err != nil {
					return nil, err
				}
			}
			p.Files = append(p.Files, parsed[name])
		}
		imp := importerFunc(func(path string) (*types.Package, error) {
			if id, ok := lp.ImportMap[path]; ok {
				path = id
			}
			if pkg, ok := checked[path]; ok {
				return pkg, nil
			}
			return std.Import(path)
		})
		if p.Types, err = (&types.Config{Importer: imp}).Check(path, prog.Fset, p.Files, p.Info); err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = p.Types
		prog.Pkgs = append(prog.Pkgs, p)
	}
	return prog, nil
}

// Under returns the packages the program itself builds (no test variant)
// whose directories lie in one of roots.
func (prog *Program) Under(roots ...string) []*Package {
	var pkgs []*Package
	for _, p := range prog.Pkgs {
		for _, r := range roots {
			r, _ = filepath.Abs(r)
			if rel, err := filepath.Rel(r, p.Dir); p.ForTest == "" && err == nil && !strings.HasPrefix(rel, "..") {
				pkgs = append(pkgs, p)
				break
			}
		}
	}
	return pkgs
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return string(out), nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stringConst returns the value of e when info resolves it to a string
// constant: a literal, a named constant of any package, or a constant
// expression.
func stringConst(info *types.Info, e ast.Expr) (string, bool) {
	tv := info.Types[e]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// MetricCall is one call of a registry method whose family name is a
// string constant. Names built at run time are beyond a static scan.
type MetricCall struct {
	Call       *ast.CallExpr
	Name, Kind string
	Vec        bool
	Keys       []string // a *Vec call's constant label keys
}

// MetricCalls returns f's constant-named registry calls, in source order.
func MetricCalls(f *ast.File, info *types.Info) []MetricCall {
	var calls []MetricCall
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			kind, watched := metricMethods[sel.Sel.Name]
			if name, ok := stringConst(info, call.Args[0]); watched && ok {
				c := MetricCall{Call: call, Name: name, Kind: kind, Vec: strings.HasSuffix(sel.Sel.Name, "Vec")}
				for _, arg := range call.Args[1:] {
					if key, ok := stringConst(info, arg); ok && c.Vec {
						c.Keys = append(c.Keys, key)
					}
				}
				calls = append(calls, c)
			}
		}
		return true
	})
	return calls
}
