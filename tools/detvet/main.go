// Command detvet enforces the repository's determinism rules on simulation
// code: files under the given roots must not read the wall clock
// (time.Now), print to stdout (fmt.Print*), or import the global random
// number generator (math/rand). Every source of time and randomness must
// flow through sim.Env and simrand so a seeded run is bit-reproducible.
//
// It also enforces metric-name hygiene on the telemetry registry: every
// literal name passed to Counter/Gauge/FloatGauge/Histogram (and their
// *Vec forms) must be kubeshare_-prefixed snake_case, and *Vec label KEYS
// must come from the bounded vocabulary (gpu_uuid, tenant, node, pool,
// consumer, strategy) —
// label values may only be object names/UUIDs or closed enums, never
// free-form strings, and a bounded key set is what keeps cardinality
// reviewable.
//
// A third rule keeps the metrics reference honest (-metricsdoc): every
// kubeshare_ family registered in the scanned roots must have a row in
// the generated docs/METRICS.md, and every static doc row must have a
// registration site. Dynamic rows (a <placeholder> in the name) are
// exempt from the code-side check.
//
// Usage:
//
//	go run ./tools/detvet -metricsdoc docs/METRICS.md ./internal
//
// Test files (_test.go) and testdata directories are skipped. The
// internal/simrand package is exempt — it is the seeded wrapper the rule
// funnels everyone else through. A line ending in a "//det:allow" comment
// is exempt; use it for wall-clock reads that time the simulator itself
// and never feed the simulation.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"kubeshare/tools/metricscan"
)

// exemptDirs are package directories (slash-separated suffixes) the rules
// do not apply to.
var exemptDirs = []string{"internal/simrand"}

// bannedImports are import paths simulation code must not use.
var bannedImports = map[string]string{
	"math/rand":    "use kubeshare/internal/simrand (seeded streams) instead",
	"math/rand/v2": "use kubeshare/internal/simrand (seeded streams) instead",
	// The paper-form Algorithm 1 is a test oracle; the scheduler that runs
	// decides through schedfw's engine (core.Schedule).
	"kubeshare/internal/core/coretest": "test-only reference Algorithm 1; only _test.go files import it",
}

// dirBannedImports bans imports only within package directories matching a
// slash-separated suffix. Scheduler plugins read cluster state exclusively
// through the framework's Pool/Txn view and write through Reserve — a
// plugin holding an apiserver or store handle could bypass the cycle
// transaction, breaking batched conflict resolution and gang rollback.
var dirBannedImports = map[string]map[string]string{
	"schedfw/plugins": {
		"kubeshare/internal/kube/apiserver": "plugins must not reach the API server; read the Pool, write via Txn/Reserve",
		"kubeshare/internal/kube/store":     "plugins must not reach the store; read the Pool, write via Txn/Reserve",
	},
	// Sharing-strategy implementations arbitrate device time below the
	// control plane: they see clients only through the Strategy interface
	// (Register/Admit/Release), so a strategy holding an apiserver or store
	// handle could condition grants on cluster state the device layer must
	// not know about.
	"devlib/sharing": {
		"kubeshare/internal/kube/apiserver": "sharing strategies arbitrate device time; cluster state stays above the Strategy interface",
		"kubeshare/internal/kube/store":     "sharing strategies arbitrate device time; cluster state stays above the Strategy interface",
	},
	// The WAL/checkpoint layer must stay deterministic and replayable: the
	// log is modeled in memory with virtual-clock I/O costs, never real
	// files, and record ordering comes from store revisions, never wall
	// timestamps — so neither os nor time may creep into the package.
	"kube/store": {
		"os":   "the WAL is modeled in memory with virtual I/O costs; no real files",
		"time": "durability ordering comes from store revisions and sim.Env's virtual clock; no wall time",
	},
}

// metricMethods are registry methods whose first argument is a metric
// name; "true" marks the labeled (*Vec) forms whose remaining string
// arguments are label keys.
var metricMethods = map[string]bool{
	"Counter": false, "Gauge": false, "FloatGauge": false, "Histogram": false,
	"CounterVec": true, "FloatGaugeVec": true, "HistogramVec": true,
}

// allowedLabelKeys is the bounded label vocabulary. Values for these keys
// are object names and UUIDs, so per-family cardinality stays proportional
// to cluster size; strategy values come from the closed sharing.Mode enum.
var allowedLabelKeys = map[string]bool{
	"gpu_uuid": true, "tenant": true, "node": true, "pool": true, "consumer": true,
	"strategy": true,
}

// metricName matches kubeshare_-prefixed snake_case.
var metricName = regexp.MustCompile(`^kubeshare_[a-z0-9]+(_[a-z0-9]+)*$`)

// bannedSelectors maps package import path -> selector -> reason.
var bannedSelectors = map[string]map[string]string{
	"time": {
		"Now": "use sim.Env.Now (virtual clock) instead",
	},
	"fmt": {
		"Print":   "simulation code must not write to stdout; return data or use obs",
		"Printf":  "simulation code must not write to stdout; return data or use obs",
		"Println": "simulation code must not write to stdout; return data or use obs",
	},
}

func main() {
	metricsDoc := flag.String("metricsdoc", "", "path to the generated METRICS.md; enables the doc/code sync rule")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		fmt.Fprintln(os.Stderr, "usage: detvet [-metricsdoc FILE] <dir> [dir ...]")
		os.Exit(2)
	}
	bad := 0
	if *metricsDoc != "" {
		bad += checkMetricsDoc(*metricsDoc, roots)
	}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				dir := filepath.ToSlash(path)
				for _, ex := range exemptDirs {
					if strings.HasSuffix(dir, ex) {
						return filepath.SkipDir
					}
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			bad += checkFile(path)
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "detvet: %v\n", err)
			os.Exit(2)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "detvet: %d violation(s)\n", bad)
		os.Exit(1)
	}
}

// checkMetricsDoc enforces the registered-families ↔ docs/METRICS.md sync
// in both directions: a registered kubeshare_ family without a doc row is
// undocumented telemetry; a static doc row without a registration site is
// a stale doc. Dynamic doc rows (a <placeholder> in the name) have no
// statically-scannable registration and are skipped.
func checkMetricsDoc(docPath string, roots []string) int {
	doc, err := os.ReadFile(docPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detvet: -metricsdoc: %v (run `go run ./tools/metricsdoc` to generate it)\n", err)
		return 1
	}
	metrics, err := metricscan.Scan(roots...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detvet: %v\n", err)
		return 1
	}
	static, _ := metricscan.DocNames(string(doc))
	documented := map[string]bool{}
	for _, n := range static {
		documented[n] = true
	}
	registered := map[string]bool{}
	bad := 0
	for _, m := range metrics {
		registered[m.Name] = true
		if !documented[m.Name] {
			fmt.Fprintf(os.Stderr, "detvet: metric %s is registered but missing from %s; run `go run ./tools/metricsdoc`\n", m.Name, docPath)
			bad++
		}
	}
	for _, n := range static {
		if !registered[n] {
			fmt.Fprintf(os.Stderr, "detvet: %s documents %s but no registration site exists; run `go run ./tools/metricsdoc`\n", docPath, n)
			bad++
		}
	}
	return bad
}

// checkFile parses one file and reports its violations.
func checkFile(path string) int {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detvet: %v\n", err)
		return 1
	}

	// Lines carrying a //det:allow comment are exempt.
	allowed := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "det:allow") {
				allowed[fset.Position(c.Pos()).Line] = true
			}
		}
	}

	bad := 0
	report := func(pos token.Pos, msg string) {
		p := fset.Position(pos)
		if allowed[p.Line] {
			return
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s\n", p.Filename, p.Line, p.Column, msg)
		bad++
	}

	// localName maps the in-file identifier of each watched import to its
	// import path ("time", "fmt"), honouring renamed imports.
	dir := filepath.ToSlash(filepath.Dir(path))
	localName := map[string]string{}
	for _, imp := range f.Imports {
		ip, _ := strconv.Unquote(imp.Path.Value)
		if reason, banned := bannedImports[ip]; banned {
			report(imp.Pos(), fmt.Sprintf("import %q forbidden: %s", ip, reason))
		}
		for suffix, rules := range dirBannedImports {
			if !strings.HasSuffix(dir, suffix) {
				continue
			}
			if reason, banned := rules[ip]; banned {
				report(imp.Pos(), fmt.Sprintf("import %q forbidden in %s: %s", ip, suffix, reason))
			}
		}
		if _, watched := bannedSelectors[ip]; watched {
			name := filepath.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name != "_" && name != "." {
				localName[name] = ip
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			checkMetricCall(call, report)
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok || ident.Obj != nil { // Obj != nil means a local shadows the package name
			return true
		}
		ip, watched := localName[ident.Name]
		if !watched {
			return true
		}
		if reason, banned := bannedSelectors[ip][sel.Sel.Name]; banned {
			report(sel.Pos(), fmt.Sprintf("%s.%s forbidden: %s", ident.Name, sel.Sel.Name, reason))
		}
		return true
	})
	return bad
}

// checkMetricCall enforces the metric-name hygiene rules on one call
// expression, if it is a registry method with a literal metric name.
// Non-literal names are not flagged: the registry is only reached through
// these helpers, and every production call site uses a literal.
func checkMetricCall(call *ast.CallExpr, report func(token.Pos, string)) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	isVec, watched := metricMethods[sel.Sel.Name]
	if !watched {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !metricName.MatchString(name) {
		report(lit.Pos(), fmt.Sprintf("metric name %q must be kubeshare_-prefixed snake_case", name))
	}
	if !isVec {
		return
	}
	if len(call.Args) == 1 {
		report(call.Pos(), fmt.Sprintf("labeled family %q declares no label keys; use the unlabeled form", name))
	}
	for _, arg := range call.Args[1:] {
		kl, ok := arg.(*ast.BasicLit)
		if !ok || kl.Kind != token.STRING {
			report(arg.Pos(), fmt.Sprintf("label keys of %q must be string literals from the bounded vocabulary", name))
			continue
		}
		key, err := strconv.Unquote(kl.Value)
		if err != nil {
			continue
		}
		if !allowedLabelKeys[key] {
			report(kl.Pos(), fmt.Sprintf("label key %q on %q is outside the bounded vocabulary (gpu_uuid, tenant, node, pool, consumer, strategy)", key, name))
		}
	}
}
