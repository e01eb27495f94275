package streamapprox

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// readmeMaxLines caps README.md: past it, detail belongs in package docs
// or bench/README.md.
const readmeMaxLines = 500

// TestREADMEMatchesCode keeps README.md describing the system as it is.
// It fails when README
//   - names a broker_*/saproxd_* metric family no non-test source
//     registers (a histogram's _bucket/_sum/_count series count as its
//     family);
//   - leaves a registered family out of its "Metric catalog" section;
//   - names an internal/, cmd/ or examples/ path that does not exist;
//   - shows a `saprox` subcommand cmd/saprox/main.go does not dispatch;
//   - shows a flag the command it is passed to does not declare, or, in
//     a bare `-flag` code span, a flag no command declares;
//   - runs past readmeMaxLines lines.
//
// Commands and flags are read from code only: fenced blocks and inline
// code spans.
func TestREADMEMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	if n := strings.Count(readme, "\n"); n > readmeMaxLines {
		t.Errorf("README is %d lines, over its cap of %d", n, readmeMaxLines)
	}
	registered := registeredFamilies(t)
	flags := declaredFlags(t)
	subcommands := saproxSubcommands(t)

	family := regexp.MustCompile(`\b(?:broker|saproxd)_[a-z0-9_]*[a-z0-9]\b`)
	for _, name := range uniqueMatches(family, readme) {
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && registered[b] {
				base = b
			}
		}
		if !registered[base] {
			t.Errorf("README names metric %s, which no source registers", name)
		}
	}
	if catalog := markdownSection(readme, "Metric catalog"); catalog == "" {
		t.Error(`README has no "Metric catalog" section`)
	} else {
		inCatalog := make(map[string]bool)
		for _, name := range family.FindAllString(catalog, -1) {
			inCatalog[name] = true
		}
		for _, name := range sortedKeys(registered) {
			if !inCatalog[name] {
				t.Errorf("metric %s is registered but missing from README's metric catalog", name)
			}
		}
	}

	path := regexp.MustCompile(`\b(?:internal|cmd|examples)/[A-Za-z0-9_./-]*[A-Za-z0-9_]`)
	for _, p := range uniqueMatches(path, readme) {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("README names %s, which does not exist", p)
		}
	}

	all := make(map[string]bool)
	for _, fl := range flags {
		for f := range fl {
			all[f] = true
		}
	}
	for _, line := range codeLines(readme) {
		fields := strings.Fields(strings.NewReplacer("[", " ", "]", " ", "|", " ").Replace(line))
		if len(fields) == 0 {
			continue
		}
		if len(fields) == 1 && strings.HasPrefix(fields[0], "-") {
			if f := flagName(fields[0]); f != "" && !all[f] {
				t.Errorf("README shows flag -%s, which no command declares", f)
			}
			continue
		}
		cmd, args := commandAt(fields)
		if cmd == "" {
			continue
		}
		if cmd == "saprox" && len(args) > 0 && !strings.HasPrefix(args[0], "-") && !strings.HasPrefix(args[0], "<") {
			if !subcommands[args[0]] {
				t.Errorf("README shows `saprox %s`, which cmd/saprox/main.go does not dispatch", args[0])
			}
		}
		for _, arg := range args {
			if f := flagName(arg); f != "" && !flags[cmd][f] {
				t.Errorf("README passes -%s to %s, which does not declare it: %q", f, cmd, line)
			}
		}
	}
}

// commandAt finds a daemon or tool invocation in a code line: the first
// field naming one (by its base name, so /tmp/bin/brokerd counts), and
// the fields after it.
func commandAt(fields []string) (string, []string) {
	for i, f := range fields {
		switch name := filepath.Base(f); name {
		case "brokerd", "saproxd", "replay", "saprox":
			return name, fields[i+1:]
		}
	}
	return "", nil
}

// flagName returns the name of a -flag or --flag argument ("" if arg is
// none): what follows the dashes, up to an "=".
var flagArg = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=.*)?$`)

func flagName(arg string) string {
	if m := flagArg.FindStringSubmatch(arg); m != nil {
		return m[1]
	}
	return ""
}

// codeLines returns README's code as lines: every line of a fenced
// block, with backslash continuations joined, and every inline code
// span outside them.
func codeLines(md string) []string {
	var out []string
	inFence := false
	pending := ""
	span := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				out = append(out, m[1])
			}
			continue
		}
		if cont, ok := strings.CutSuffix(line, `\`); ok {
			pending += cont + " "
			continue
		}
		out = append(out, pending+line)
		pending = ""
	}
	return out
}

// markdownSection returns the body of the heading titled title, up to
// the next heading of the same or a higher level.
func markdownSection(md, title string) string {
	lines := strings.Split(md, "\n")
	for i, line := range lines {
		level := len(line) - len(strings.TrimLeft(line, "#"))
		if level == 0 || strings.TrimSpace(line[level:]) != title {
			continue
		}
		var body []string
		for _, next := range lines[i+1:] {
			if l := len(next) - len(strings.TrimLeft(next, "#")); l > 0 && l <= level && strings.HasPrefix(next[l:], " ") {
				break
			}
			body = append(body, next)
		}
		return strings.Join(body, "\n")
	}
	return ""
}

// registeredFamilies collects the broker_*/saproxd_* names the module's
// non-test code registers: the literal first argument of a Counter,
// Gauge or Histogram call.
func registeredFamilies(t *testing.T) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	inspectSources(t, ".", func(_ string, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Counter" && sel.Sel.Name != "Gauge" && sel.Sel.Name != "Histogram") {
			return
		}
		if name := stringLit(call.Args[0]); strings.HasPrefix(name, "broker_") || strings.HasPrefix(name, "saproxd_") {
			names[name] = true
		}
	})
	return names
}

// declaredFlags collects, per command under cmd/, the flag names its
// non-test code declares: the literal name argument of a flag
// definition call (flag.String, fs.Duration, flag.TextVar, ...).
func declaredFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	// The position of the name among each definer's arguments.
	definers := map[string]int{"String": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0,
		"Float64": 0, "Bool": 0, "Duration": 0, "TextVar": 1}
	flags := make(map[string]map[string]bool)
	inspectSources(t, "cmd", func(path string, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		at, ok := definers[sel.Sel.Name]
		if !ok || len(call.Args) != at+3 {
			return
		}
		if name := stringLit(call.Args[at]); name != "" {
			cmd := strings.Split(filepath.ToSlash(path), "/")[1]
			if flags[cmd] == nil {
				flags[cmd] = make(map[string]bool)
			}
			flags[cmd][name] = true
		}
	})
	return flags
}

// saproxSubcommands collects the string cases of cmd/saprox/main.go's
// dispatch.
func saproxSubcommands(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", "saprox", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	subs := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if cc, ok := n.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				if s := stringLit(e); s != "" && !strings.HasPrefix(s, "-") {
					subs[s] = true
				}
			}
		}
		return true
	})
	return subs
}

// TestGoCommentsNameExistingDocs fails when a comment in a Go file of
// this module, test files included, names a *.md file that exists
// neither beside the file nor at the repository root.
func TestGoCommentsNameExistingDocs(t *testing.T) {
	doc := regexp.MustCompile(`[\w./-]+\.md\b`)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // another module, or not Go sources
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, name := range uniqueMatches(doc, cg.Text()) {
				if !exists(filepath.Join(filepath.Dir(path), name)) && !exists(name) {
					t.Errorf("%s: a comment names %s, which is neither beside it nor at the repository root",
						fset.Position(cg.Pos()), name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// inspectSources walks every non-test Go file under root, skipping
// testdata and dot directories, and visits each node.
func inspectSources(t *testing.T, root string, visit func(path string, n ast.Node)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			visit(path, n)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func stringLit(e ast.Expr) string {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return ""
	}
	return s
}

func uniqueMatches(re *regexp.Regexp, s string) []string {
	seen := make(map[string]bool)
	for _, m := range re.FindAllString(s, -1) {
		seen[m] = true
	}
	return sortedKeys(seen)
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
