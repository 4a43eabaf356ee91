package experiments

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const (
	moduleRoot = "../.."
	designDoc  = moduleRoot + "/DESIGN.md"
	designMax  = 25000 // bytes
)

var (
	// citingDocs cite DESIGN.md's sections, as Go files and the repository's
	// skill notes (skillDocs) do; the ones marked true, and the skill notes,
	// also name tests that must exist (ROADMAP.md names planned ones).
	citingDocs = map[string]bool{
		"DESIGN.md": true, "README.md": true,
		"EXPERIMENTS.md": false, "ROADMAP.md": false,
	}
	skillDocs = filepath.Join(moduleRoot, ".*", "skills", "*", "SKILL.md")
	// designBlocks render DESIGN.md's generated blocks from the module's Go
	// files.
	designBlocks = map[string]func(t *testing.T, files map[string][]byte) string{
		"packages":    renderPackages,
		"options":     renderOptions,
		"named-tests": renderNamedTests,
	}
)

// TestDesignDoc holds DESIGN.md to the tree: its generated blocks (the
// package inventory, the facade options, check.sh's named tests) equal a
// fresh render, and -update rewrites them; every test a document names in
// backticks is the start of a real test, example, fuzz target or benchmark
// (check.sh's prefix rule); every reference to a numbered section of
// DESIGN.md, from a document, a Go file or DESIGN.md itself, names a heading;
// and the document stays under designMax bytes with no PR numbers in it.
func TestDesignDoc(t *testing.T) {
	raw, err := os.ReadFile(designDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	names := slices.Sorted(maps.Keys(designBlocks))
	files := goFiles(t)

	t.Run("generated", func(t *testing.T) {
		got, err := renderDoc(doc, names, func(name string) string { return designBlocks[name](t, files) })
		if err != nil {
			t.Fatalf("DESIGN.md: %v", err)
		}
		if *updateGolden {
			if err := os.WriteFile(designDoc, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		for _, name := range names {
			if d := lineDiff(block(doc, name), block(got, name)); d != "" {
				t.Errorf("DESIGN.md: the %s block differs from the tree (- doc, + tree):\n%s", name, d)
			}
		}
		if got != doc {
			t.Fatal("DESIGN.md is stale: go test ./internal/experiments -run TestDesignDoc -update")
		}
	})

	t.Run("size", func(t *testing.T) {
		if len(raw) > designMax {
			t.Errorf("DESIGN.md is %d bytes, over %d: say less, or render it", len(raw), designMax)
		}
		if m := regexp.MustCompile(`\bPRs? \d+`).FindString(doc); m != "" {
			t.Errorf("DESIGN.md names %q: it describes the tree, CHANGES.md its history", m)
		}
	})

	tests := testFuncs(t, files)
	var headings []string
	for _, m := range regexp.MustCompile(`(?m)^#{2,} (\d+(?:\.\d+)*)\.? `).FindAllStringSubmatch(doc, -1) {
		headings = append(headings, m[1])
	}
	docs := maps.Clone(citingDocs)
	skills, err := filepath.Glob(skillDocs)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range skills {
		rel, _ := filepath.Rel(moduleRoot, path)
		docs[filepath.ToSlash(rel)] = true
	}
	for _, name := range slices.Sorted(maps.Keys(docs)) {
		src, err := os.ReadFile(filepath.Join(moduleRoot, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			if docs[name] {
				for _, ref := range testRefs.FindAllString(codeSpans(string(src)), -1) {
					if !slices.ContainsFunc(tests, func(fn string) bool { return strings.HasPrefix(fn, ref) }) {
						t.Errorf("%s: `%s` is the start of no test, example, fuzz target or benchmark", name, ref)
					}
				}
			}
			if name != "DESIGN.md" {
				checkSectionRefs(t, name, string(src), headings, false)
				return
			}
			// DESIGN.md's own prose only: package docs cite the paper.
			blank := func(b string) string { return strings.Repeat("\n", strings.Count(block(doc, b), "\n")) }
			prose, err := renderDoc(doc, names, blank)
			if err != nil {
				t.Fatalf("DESIGN.md: %v", err)
			}
			checkSectionRefs(t, name, prose, headings, true)
		})
	}
	t.Run("go", func(t *testing.T) {
		for path, src := range files {
			checkSectionRefs(t, path, string(src), headings, false)
		}
	})
}

// testRefs matches a test's name, or the start of one, inside code spans.
var testRefs = regexp.MustCompile(`\b(Test|Example|Fuzz|Benchmark)[A-Za-z0-9_]*`)

// codeSpans returns the text between backticks in a Markdown document,
// fenced blocks included, one span a line.
func codeSpans(md string) string {
	var b strings.Builder
	for _, m := range regexp.MustCompile("`+([^`]+)`+").FindAllStringSubmatch(md, -1) {
		b.WriteString(m[1])
		b.WriteByte('\n')
	}
	return b.String()
}

// sectionRef matches a section sign and number, and what precedes it:
// "DESIGN.md " makes it DESIGN.md's anywhere, "paper " or "paper's " makes
// it the paper's, and inside DESIGN.md a bare one is DESIGN.md's own.
var sectionRef = regexp.MustCompile(`(DESIGN\.md |paper |paper's )?§(\d+(?:\.\d+)*)`)

// checkSectionRefs fails each reference in src to a section DESIGN.md does
// not have.
func checkSectionRefs(t *testing.T, name, src string, headings []string, bare bool) {
	for i, line := range strings.Split(src, "\n") {
		for _, m := range sectionRef.FindAllStringSubmatch(line, -1) {
			ours := m[1] == "DESIGN.md " || (bare && m[1] == "")
			if ours && !slices.Contains(headings, m[2]) {
				t.Errorf("%s:%d: §%s names no heading of DESIGN.md", name, i+1, m[2])
			}
		}
	}
}

// goFiles returns every Go file of the module by slash path relative to the
// module root, skipping hidden directories and testdata.
func goFiles(t *testing.T) map[string][]byte {
	out := map[string][]byte{}
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != moduleRoot && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		rel, _ := filepath.Rel(moduleRoot, path)
		out[filepath.ToSlash(rel)] = src
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func isTest(path string) bool { return strings.HasSuffix(path, "_test.go") }

// parse parses a Go file's declarations and comments.
func parse(t *testing.T, path string, src []byte, mode parser.Mode) *ast.File {
	f, err := parser.ParseFile(token.NewFileSet(), path, src, mode|parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// testFuncs returns the name of every top-level test, example, fuzz target
// and benchmark function of the module.
func testFuncs(t *testing.T, files map[string][]byte) []string {
	var out []string
	for path, src := range files {
		if !isTest(path) {
			continue
		}
		for _, decl := range parse(t, path, src, 0).Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testRefs.MatchString(fn.Name.Name) {
				out = append(out, fn.Name.Name)
			}
		}
	}
	return out
}

// synopsis is the first sentence of a doc comment, on one line.
func synopsis(text string) string {
	return strings.ReplaceAll(new(doc.Package).Synopsis(text), "|", `\|`)
}

// renderPackages renders one table row per package: its directory, its
// count of non-test Go lines and the first sentence of its package doc
// comment; then the count outside benchmark/, which check.sh prints too.
func renderPackages(t *testing.T, files map[string][]byte) string {
	type pkg struct {
		lines int
		doc   string
	}
	pkgs := map[string]*pkg{}
	for _, path := range slices.Sorted(maps.Keys(files)) { // go/build takes the first doc comment
		if isTest(path) {
			continue
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		p := pkgs[dir]
		if p == nil {
			p = &pkg{}
			pkgs[dir] = p
		}
		p.lines += bytes.Count(files[path], []byte("\n"))
		if f := parse(t, path, files[path], parser.PackageClauseOnly); f.Doc != nil && p.doc == "" {
			p.doc = synopsis(f.Doc.Text())
		}
	}
	var b strings.Builder
	b.WriteString("| directory | non-test lines | package doc |\n|---|--:|---|\n")
	total := 0
	for _, dir := range slices.Sorted(maps.Keys(pkgs)) {
		p := pkgs[dir]
		if p.doc == "" {
			t.Errorf("%s has no package doc comment", dir)
		}
		if dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/") {
			total += p.lines
		}
		fmt.Fprintf(&b, "| `%s` | %d | %s |\n", dir, p.lines, p.doc)
	}
	fmt.Fprintf(&b, "\nNon-test Go lines outside `benchmark/`: %d.\n", total)
	return b.String()
}

// renderOptions renders each With… option of kubeshare.go with the first
// sentence of its doc comment.
func renderOptions(t *testing.T, files map[string][]byte) string {
	var b strings.Builder
	for _, decl := range parse(t, "kubeshare.go", files["kubeshare.go"], 0).Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() || !strings.HasPrefix(fn.Name.Name, "With") {
			continue
		}
		fmt.Fprintf(&b, "- `%s` %s\n", fn.Name.Name, strings.TrimPrefix(synopsis(fn.Doc.Text()), fn.Name.Name+" "))
	}
	return b.String()
}

// renderNamedTests renders each of check.sh's named lines: its packages and
// the tests it runs by name.
func renderNamedTests(t *testing.T, _ map[string][]byte) string {
	src, err := os.ReadFile(moduleRoot + "/check.sh")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("| packages | tests run by name |\n|---|---|\n")
	for _, m := range regexp.MustCompile(`(?m)^named ('[^']*'|\S+) (.*)$`).FindAllStringSubmatch(string(src), -1) {
		var pkgs, names []string
		for _, f := range strings.Fields(m[2]) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, "`"+f+"`")
			}
		}
		for _, name := range strings.Split(strings.Trim(m[1], "'"), "|") {
			names = append(names, "`"+name+"`")
		}
		fmt.Fprintf(&b, "| %s | %s |\n", strings.Join(pkgs, " "), strings.Join(names, ", "))
	}
	return b.String()
}

// lineDiff lists the lines only one of old and new has, "-" for old's and
// "+" for new's.
func lineDiff(old, new string) string {
	o, n := strings.Split(old, "\n"), strings.Split(new, "\n")
	var b strings.Builder
	for _, l := range o {
		if !slices.Contains(n, l) {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range n {
		if !slices.Contains(o, l) {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
