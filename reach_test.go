package streamapprox

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// deployments are the trees whose code sets the library up for real: the
// daemons and tools, the examples, the serving tier and the benchmark.
var deployments = []string{"cmd", "examples", "internal/server", "bench"}

// unreachedAllowed are the exported names of this package that no
// deployment names, each with the reason it stays.
var unreachedAllowed = map[string]string{
	"Report":           "Run's result type, reached only through the returned value",
	"HistogramBucket":  "a WindowResult field's element type, reached only through returned values",
	"ErrClosedSession": "a sentinel error callers compare against",
	"NewEventBatch":    "the only way code outside the module builds PushBatch's argument",
}

// TestExportedIdentifiersReached fails when an exported name of this
// package — a top-level identifier, a method of an exported type, a field
// of an exported struct — appears in no deployment's code as a selector
// (x.Name) or a composite-literal key (T{Name: ...}), unless the
// allow-list names it; and when an allow-listed name is reached after all
// or is no longer declared. It matches by name alone, so an unreached
// name that collides with a reached one (a field called Fraction, say)
// goes unnoticed; but a reached name is never reported.
func TestExportedIdentifiersReached(t *testing.T) {
	reached := make(map[string]bool)
	for _, dir := range deployments {
		referencedNames(t, dir, reached)
	}
	checkReached(t, exportedNames(t, "."), reached, unreachedAllowed)
}

// brokerUnreachedAllowed are the exported names of internal/broker that
// no code outside it names, each with the reason it stays.
var brokerUnreachedAllowed = map[string]string{
	"ClusterMeta":         "ClusterClient.Meta's result type, reached only through the returned value",
	"NodeInfo":            "a ClusterMeta field's element type, reached only through returned values",
	"TopicInfo":           "a ClusterMeta field's element type, reached only through returned values",
	"PartitionInfo":       "a TopicInfo field's element type, reached only through returned values",
	"Consumer":            "NewPartitionConsumer's result type, reached only through the returned value",
	"Nodes":               "a ClusterMeta field the routing client reads inside the package",
	"Topics":              "a ClusterMeta field the routing client and the rejoin path read inside the package",
	"Leader":              "a PartitionInfo field LeaderOf and the rejoin path read inside the package",
	"Alive":               "a NodeInfo field the routing client's CreateTopic reads inside the package",
	"ErrUnknownTopic":     "a sentinel the in-process Broker returns, compared with errors.Is",
	"ErrBadPartition":     "a sentinel the in-process Broker returns, compared with errors.Is",
	"ErrOffsetOutOfRange": "a sentinel the in-process Broker returns, compared with errors.Is",
	"ErrClosed":           "a sentinel the in-process Broker returns, compared with errors.Is",
}

// brokerCallers are the trees outside internal/broker whose non-test
// code calls it: the deployments and the replay tool's library.
var brokerCallers = append([]string{filepath.Join("internal", "workload")}, deployments...)

// TestBrokerExportsReached is TestExportedIdentifiersReached for
// internal/broker: every exported name it declares is named by the
// non-test code of a brokerCaller or of this package, or allow-listed
// with a reason.
func TestBrokerExportsReached(t *testing.T) {
	reached := make(map[string]bool)
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range append(roots, brokerCallers...) {
		referencedNames(t, root, reached)
	}
	declared := exportedNames(t, filepath.Join("internal", "broker"))
	t.Logf("internal/broker exports %d names", len(declared))
	checkReached(t, declared, reached, brokerUnreachedAllowed)
}

// checkReached fails for each declared name that is neither reached nor
// allow-listed, and for each allow-listed name that is reached after
// all or no longer declared.
func checkReached(t *testing.T, declared, reached map[string]bool, allowed map[string]string) {
	t.Helper()
	var unreached []string
	for name := range declared {
		if !reached[name] && allowed[name] == "" {
			unreached = append(unreached, name)
		}
	}
	if len(unreached) > 0 {
		slices.Sort(unreached)
		t.Errorf("exported but named by no deployment (delete or unexport them, or allow-list them with a reason): %s",
			strings.Join(unreached, ", "))
	}
	for name := range allowed {
		switch {
		case !declared[name]:
			t.Errorf("allow-listed %s is no longer declared", name)
		case reached[name]:
			t.Errorf("allow-listed %s is named by a deployment now", name)
		}
	}
}

// configUsers are the trees that configure a server for real: the
// daemons and tools, the examples and the benchmark.
var configUsers = []string{"cmd", "examples", "bench"}

// TestServerConfigFieldsReached fails when an exported field of
// server.Config is named by no configUsers code as a selector or a
// composite-literal key: a knob only tests set is a constant.
func TestServerConfigFieldsReached(t *testing.T) {
	fields := structFields(t, filepath.Join("internal", "server"), "Config")
	if len(fields) == 0 {
		t.Fatal("server.Config declares no fields")
	}
	reached := make(map[string]bool)
	for _, dir := range configUsers {
		referencedNames(t, dir, reached)
	}
	var unreached []string
	for _, name := range fields {
		if !reached[name] {
			unreached = append(unreached, name)
		}
	}
	if len(unreached) > 0 {
		t.Errorf("server.Config fields no daemon, example or benchmark sets (make them constants): %s",
			strings.Join(unreached, ", "))
	}
}

// structFields returns the exported field names of the struct type named
// typeName in the non-test files of dir.
func structFields(t *testing.T, dir, typeName string) []string {
	t.Helper()
	var fields []string
	inspectSources(t, dir, func(_ string, n ast.Node) {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != typeName {
			return
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					if id.IsExported() {
						fields = append(fields, id.Name)
					}
				}
			}
		}
	})
	return fields
}

// exportedNames collects the exported names the non-test files of the
// package in dir declare.
func exportedNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names[id.Name] = true
		}
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || receiverExported(d.Recv) {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					case *ast.TypeSpec:
						add(s.Name)
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
							for _, field := range st.Fields.List {
								for _, id := range field.Names {
									add(id)
								}
							}
						}
					}
				}
			}
		}
	}
	return names
}

func receiverExported(recv *ast.FieldList) bool {
	typ := recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.IsExported()
}

// referencedNames adds to seen every selector and composite-literal key
// in the non-test Go files under root.
func referencedNames(t *testing.T, root string, seen map[string]bool) {
	t.Helper()
	inspectSources(t, root, func(_ string, n ast.Node) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			seen[n.Sel.Name] = true
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						seen[id.Name] = true
					}
				}
			}
		}
	})
}

// internalUnreachedAllowed are the exported names, qualified by package,
// of the internal packages other than internal/broker that no code
// outside their package names and their own package's code does not
// use, each with the reason it stays.
var internalUnreachedAllowed = map[string]string{
	"xrand.Int63":          "a test helper other packages' tests call",
	"xrand.Perm":           "a test helper other packages' tests call",
	"estimate.LinearFunc":  "the reference the estimator tests compare against",
	"faults.Heal":          "a chaos fixture the failover tests drive",
	"faults.Refuse":        "a chaos fixture the failover tests drive",
	"faults.Schedule":      "a chaos fixture the failover tests drive",
	"server.MarshalJSON":   "encoding/json calls it",
	"server.UnmarshalJSON": "encoding/json calls it",
	"core.Systems":         "leaves with internal/core",
}

// TestInternalExportsReached is TestBrokerExportsReached for every other
// internal package: each exported name it declares is named by the
// non-test code of another package, as a selector or a composite-literal
// key, or used by its own package's non-test code, or allow-listed with a
// reason. internal/broker keeps the stricter test above, where its own
// use does not count.
func TestInternalExportsReached(t *testing.T) {
	named := make(map[string]map[string]bool) // directory → names its code names
	used := make(map[string]map[string]bool)  // directory → identifiers its code uses
	declaring := make(map[*ast.Ident]bool)
	inspectSources(t, ".", func(path string, n ast.Node) {
		dir := filepath.Dir(path)
		switch n := n.(type) {
		case *ast.File:
			if named[dir] == nil {
				named[dir], used[dir] = make(map[string]bool), make(map[string]bool)
			}
			referencedNames(t, path, named[dir])
		case *ast.FuncDecl:
			declaring[n.Name] = true
		case *ast.TypeSpec:
			declaring[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declaring[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				declaring[id] = true
			}
		case *ast.Ident:
			if !declaring[n] {
				used[dir][n.Name] = true
			}
		}
	})
	declared := make(map[string]bool)
	reached := make(map[string]bool)
	for dir := range used {
		if !strings.HasPrefix(dir, "internal"+string(filepath.Separator)) || dir == filepath.Join("internal", "broker") {
			continue
		}
		pkg := filepath.Base(dir)
		for name := range exportedNames(t, dir) {
			declared[pkg+"."+name] = true
			reach := used[dir][name]
			for other, names := range named {
				reach = reach || (other != dir && names[name])
			}
			reached[pkg+"."+name] = reach
		}
	}
	t.Logf("internal packages other than internal/broker export %d names", len(declared))
	checkReached(t, declared, reached, internalUnreachedAllowed)
}
