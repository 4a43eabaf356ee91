// Package metricscan is the shared AST scanner behind metricsdoc (which
// generates docs/METRICS.md) and detvet's doc-sync rule (which fails the
// build when the doc and the code disagree). It walks Go source trees and
// collects every metric family registered on the telemetry registry:
// calls to Counter/Gauge/FloatGauge/Histogram and their *Vec forms whose
// name argument is a string literal or resolves through a package-level
// string constant.
//
// Names built at runtime (schedfw's per-phase counters, for instance) are
// invisible to the scan by design; the generated doc records them in a
// dynamic-families section whose rows carry a <placeholder> segment, and
// the sync rule skips those rows.
package metricscan

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metric is one registered metric family.
type Metric struct {
	Name string
	// Type is the registry method that created the family (Counter,
	// CounterVec, ...).
	Type string
	// Labels are the label keys of a *Vec family (nil otherwise).
	Labels []string
}

// methods maps registry method name -> whether it is a labeled (*Vec)
// form. Mirrors detvet's metric-hygiene table.
var methods = map[string]bool{
	"Counter": false, "Gauge": false, "FloatGauge": false, "Histogram": false,
	"CounterVec": true, "FloatGaugeVec": true, "HistogramVec": true,
}

// namePattern matches the names worth collecting — the registry's
// enforced kubeshare_ namespace.
var namePattern = regexp.MustCompile(`^kubeshare_[a-z0-9]+(_[a-z0-9]+)*$`)

// Scan walks the given roots (skipping _test.go files and testdata
// directories) and returns every registered metric family, sorted by
// name. When the same name is registered at several sites — lookups and
// registrations share the accessor methods — label keys from any *Vec
// site win over the unlabeled form.
func Scan(roots ...string) ([]Metric, error) {
	consts := map[string]string{}
	var files []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			files = append(files, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Pass 1: package-level string constants holding metric names, keyed
	// by bare identifier — a selector like core.MetricSchedLatency
	// resolves through its Sel name.
	fset := token.NewFileSet()
	parsed := make([]*ast.File, 0, len(files))
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("metricscan: %w", err)
		}
		parsed = append(parsed, f)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i, name := range vs.Names {
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					v, err := strconv.Unquote(lit.Value)
					if err == nil && namePattern.MatchString(v) {
						consts[name.Name] = v
					}
				}
			}
		}
	}

	// Pass 2: registration/lookup call sites.
	byName := map[string]Metric{}
	for _, f := range parsed {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			isVec, watched := methods[sel.Sel.Name]
			if !watched {
				return true
			}
			name := resolveName(call.Args[0], consts)
			if !namePattern.MatchString(name) {
				return true
			}
			m := Metric{Name: name, Type: sel.Sel.Name}
			if isVec {
				for _, arg := range call.Args[1:] {
					kl, ok := arg.(*ast.BasicLit)
					if !ok || kl.Kind != token.STRING {
						continue
					}
					if key, err := strconv.Unquote(kl.Value); err == nil {
						m.Labels = append(m.Labels, key)
					}
				}
			}
			if prev, seen := byName[name]; !seen || (len(prev.Labels) == 0 && isVec) {
				byName[name] = m
			}
			return true
		})
	}
	out := make([]Metric, 0, len(byName))
	for _, m := range byName {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// resolveName extracts the metric name from a call's first argument: a
// string literal, or an identifier/selector naming a collected constant.
// Anything else (Sprintf, variables, struct fields) is dynamic and
// returns "".
func resolveName(arg ast.Expr, consts map[string]string) string {
	switch a := arg.(type) {
	case *ast.BasicLit:
		if a.Kind == token.STRING {
			if v, err := strconv.Unquote(a.Value); err == nil {
				return v
			}
		}
	case *ast.Ident:
		return consts[a.Name]
	case *ast.SelectorExpr:
		return consts[a.Sel.Name]
	}
	return ""
}

// DocNames extracts the metric names recorded in a generated METRICS.md:
// every `code`-quoted kubeshare_ token at the start of a table row. Rows
// whose name carries a <placeholder> segment are dynamic families and are
// returned separately.
func DocNames(doc string) (static, dynamic []string) {
	row := regexp.MustCompile("^\\| *`(kubeshare_[a-z0-9_<>]+)`")
	for _, line := range strings.Split(doc, "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if strings.Contains(m[1], "<") {
			dynamic = append(dynamic, m[1])
		} else {
			static = append(static, m[1])
		}
	}
	return static, dynamic
}
