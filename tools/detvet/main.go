// Command detvet enforces the repository's determinism rules on simulation
// code: non-test files under the given roots must not read the wall clock
// (time.Now), print to stdout (fmt.Print*) or import the global random
// number generator (math/rand), so a seeded run is bit-reproducible. A
// line ending in "//det:allow <why>" is exempt: internal/simrand's import
// of math/rand, and wall-clock reads that time the simulator itself and
// never feed it. A constant metric name passed to a registry method must
// be kubeshare_-prefixed snake_case, and *Vec label keys must come from a
// bounded vocabulary, which keeps cardinality reviewable.
//
// The census runs over the whole module: an exported identifier of the
// root package or of a package under internal/ fails when nothing but its
// own package's tests names it. The rest of the module (benchmark/, cmd/,
// tools/), other packages' tests and the root package's checked Example
// functions (those with an output comment, which go test runs and compares)
// count as callers; methods that implement an interface, and what
// censusAllow lists, are exempt.
//
// Names resolve through go/types (tools/internal/source), so a renamed
// import cannot hide a time.Now, nor a constant a metric name.
//
// Usage:
//
//	go run ./tools/detvet ./internal
package main

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"kubeshare/tools/internal/source"
)

// bannedImports maps a package-directory suffix ("" for every package) to
// the imports its code must not use, each with the reason.
var bannedImports = map[string]map[string]string{
	"": {
		"math/rand":                        "use kubeshare/internal/simrand (seeded streams) instead",
		"math/rand/v2":                     "use kubeshare/internal/simrand (seeded streams) instead",
		"kubeshare/internal/core/coretest": "test-only reference Algorithm 1; the scheduler decides through core.Decide",
	},
	// A strategy sees clients only through the Strategy interface; with an
	// apiserver or store handle it could condition grants on cluster state.
	"devlib/sharing": {
		"kubeshare/internal/kube/apiserver": "sharing strategies arbitrate device time; cluster state stays above the Strategy interface",
		"kubeshare/internal/kube/store":     "sharing strategies arbitrate device time; cluster state stays above the Strategy interface",
	},
	// The WAL/checkpoint layer must stay deterministic and replayable.
	"kube/store": {
		"os":   "the WAL is modeled in memory with virtual I/O costs; no real files",
		"time": "durability ordering comes from store revisions and sim.Env's virtual clock; no wall time",
	},
}

// bannedFuncs maps "<import path>.<func>" to the reason it is banned.
var bannedFuncs = map[string]string{
	"time.Now":    "use sim.Env.Now (virtual clock) instead",
	"fmt.Print":   "simulation code must not write to stdout; return data or use obs",
	"fmt.Printf":  "simulation code must not write to stdout; return data or use obs",
	"fmt.Println": "simulation code must not write to stdout; return data or use obs",
}

// allowedLabelKeys is the bounded label vocabulary. Values for these keys
// are object names and UUIDs, so per-family cardinality stays proportional
// to cluster size; strategy values come from the closed sharing.Mode enum.
var allowedLabelKeys = map[string]bool{"gpu_uuid": true, "tenant": true, "node": true, "pool": true, "consumer": true, "strategy": true}

// censusAllow lists, by reason, the exported identifiers the census keeps
// although nothing outside their package's tests names them, as
// "<import path>.<name>" or "<import path>.<type>.<method>".
var censusAllow = map[string][]string{
	"an enum is kept whole, and SharePodSucceeded and KindSharePod are used": {"kubeshare.SharePodPending",
		"kubeshare.SharePodScheduled", "kubeshare.SharePodRunning", "kubeshare.SharePodFailed",
		"kubeshare.SharePodRejected", "kubeshare.KindVGPU"},
	"the context-fault model Fig 18's isolation arm is to fire": {"kubeshare/internal/gpusim.Device.InjectContextFault",
		"kubeshare/internal/gpusim.Context.Faulted", "kubeshare/internal/gpusim.Context.Owner"},
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: detvet <dir> [dir ...]")
		os.Exit(2)
	}
	bad, err := vet(os.Args[1:]...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detvet: %v\n", err)
		os.Exit(2)
	}
	for _, v := range bad {
		fmt.Fprintln(os.Stderr, v)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "detvet: %d violation(s)\n", len(bad))
		os.Exit(1)
	}
}

// vet loads the module holding roots[0] and returns its violations, each
// as "file:line:col: message".
func vet(roots ...string) ([]string, error) {
	prog, err := source.Load(roots[0])
	if err != nil {
		return nil, err
	}
	var bad []string
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, prog.Fset.Position(pos).String()+": "+fmt.Sprintf(format, args...))
	}
	for _, p := range prog.Under(roots...) {
		for _, f := range p.Files {
			vetFile(prog.Fset, p, f, report)
		}
	}
	census(prog, report)
	return bad, nil
}

// vetFile applies the per-file rules to one non-test file.
func vetFile(fset *token.FileSet, p *source.Package, f *ast.File, report func(token.Pos, string, ...any)) {
	allowed := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "det:allow") {
				allowed[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	flag := func(pos token.Pos, format string, args ...any) {
		if !allowed[fset.Position(pos).Line] {
			report(pos, format, args...)
		}
	}
	for _, imp := range f.Imports {
		ip, _ := strconv.Unquote(imp.Path.Value)
		for suffix, rules := range bannedImports {
			if reason, banned := rules[ip]; banned && strings.HasSuffix(filepath.ToSlash(p.Dir), suffix) {
				flag(imp.Pos(), "import %q forbidden%s: %s", ip, strings.TrimSuffix(" in "+suffix, " in "), reason)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := p.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
				if reason, banned := bannedFuncs[fn.Pkg().Path()+"."+fn.Name()]; banned {
					flag(id.Pos(), "%s.%s forbidden: %s", fn.Pkg().Path(), fn.Name(), reason)
				}
			}
		}
		return true
	})
	for _, m := range source.MetricCalls(f, p.Info) {
		if !source.MetricName.MatchString(m.Name) {
			flag(m.Call.Args[0].Pos(), "metric name %q must be kubeshare_-prefixed snake_case", m.Name)
		}
		switch {
		case m.Vec && len(m.Call.Args) == 1:
			flag(m.Call.Pos(), "labeled family %q declares no label keys; use the unlabeled form", m.Name)
		case m.Vec && len(m.Keys) < len(m.Call.Args)-1:
			flag(m.Call.Pos(), "label keys of %q must be string constants from the bounded vocabulary", m.Name)
		}
		for _, key := range m.Keys {
			if !allowedLabelKeys[key] {
				flag(m.Call.Pos(), "label key %q on %q is outside the bounded vocabulary (gpu_uuid, tenant, node, pool, consumer, strategy)", key, m.Name)
			}
		}
	}
}

// census reports the exported identifiers of the root package and of the
// packages under internal/ that nothing names outside their own package's
// tests, a checked Example of the root package excepted. Objects are keyed
// by declaration position, so a reference through a test variant or a
// generic instantiation finds the declaration it names.
func census(prog *source.Program, report func(token.Pos, string, ...any)) {
	type subject struct {
		obj  types.Object
		key  string
		used bool
	}
	subjects, order := map[token.Pos]*subject{}, []*subject{}
	add := func(obj types.Object, key string) {
		order = append(order, &subject{obj: obj, key: key})
		subjects[obj.Pos()] = order[len(order)-1]
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	for _, p := range prog.Under(prog.Root) {
		for _, pkg := range append([]*types.Package{p.Types}, p.Types.Imports()...) {
			if seen[pkg] {
				continue
			}
			seen[pkg] = true
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
					ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
				}
			}
		}
		if rel, _ := filepath.Rel(prog.Root, p.Dir); rel != "." && rel != "internal" && !strings.HasPrefix(rel, "internal"+string(filepath.Separator)) {
			continue
		}
		for _, name := range p.Types.Scope().Names() {
			if obj := p.Types.Scope().Lookup(name); obj.Exported() {
				add(obj, p.Path+"."+name)
				if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
					for named, i := tn.Type().(*types.Named), 0; i < named.NumMethods(); i++ {
						add(named.Method(i), p.Path+"."+name+"."+named.Method(i).Name())
					}
				}
			}
		}
	}
	// The bodies of the root package's checked Examples: what they name is
	// shown to a reader and its effect compared on every go test run.
	var examples []ast.Node
	for _, p := range prog.Pkgs {
		if p.Dir == prog.Root {
			for _, ex := range doc.Examples(p.Files...) {
				if ex.Output != "" || ex.EmptyOutput {
					examples = append(examples, ex.Code)
				}
			}
		}
	}
	inExample := func(pos token.Pos) bool {
		return slices.ContainsFunc(examples, func(n ast.Node) bool { return n.Pos() <= pos && pos < n.End() })
	}
	for _, p := range prog.Pkgs {
		for id, obj := range p.Info.Uses {
			if s := subjects[obj.Pos()]; s != nil && !s.used {
				file := prog.Fset.File(id.Pos()).Name()
				s.used = !strings.HasSuffix(file, "_test.go") || filepath.Dir(file) != filepath.Dir(prog.Fset.File(s.obj.Pos()).Name()) || inExample(id.Pos())
			}
		}
	}
	allowed := map[string]bool{}
	for _, keys := range censusAllow {
		for _, k := range keys {
			allowed[k] = true
		}
	}
	for _, s := range order {
		if s.obj.Exported() && !s.used && !allowed[s.key] && !implements(s.obj, ifaces) {
			report(s.obj.Pos(), "exported %s is named only by its package's tests, or nowhere: use, unexport or delete it, or add it to censusAllow", s.key)
		}
	}
}

// implements reports whether obj is a method that an interface in ifaces
// requires of its receiver type.
func implements(obj types.Object, ifaces []*types.Interface) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if _, ok := recv.(*types.Pointer); !ok {
		recv = types.NewPointer(recv) // *T has every method of T
	}
	for _, iface := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(iface, false, nil, obj.Name()); m != nil && types.Implements(recv, iface) {
			return true
		}
	}
	return false
}
