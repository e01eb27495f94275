package streamapprox_test

import (
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamapprox/internal/broker"
	"streamapprox/internal/broker/storage"
	"streamapprox/internal/pane"
	"streamapprox/internal/server"
)

// TestFormatWindow holds README's format window to the code. For each
// file kind, the decoder reads exactly the current version and the one
// before it, and refuses every other one with an error that names the
// version, the versions read and the last commit that upgrades an older
// file. README's "Format window" table names the same two versions and
// commit. A format bump that keeps the upgrade from two versions back
// goes red here. It lives outside package streamapprox because internal/server
// imports that package.
func TestFormatWindow(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string][]string)
	for _, line := range strings.Split(string(readme), "\n") {
		if cells := strings.Split(strings.Trim(line, "| "), "|"); strings.HasPrefix(line, "| ") && len(cells) == 4 {
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			rows[cells[0]] = cells[1:]
		}
	}
	kinds := []struct {
		row     string // README's table row
		current int
		open    func(t *testing.T, version int) error
		commit  string // the last to upgrade the version before the ones read
	}{
		{"session snapshot", pane.Version, decodeSnapshot, "commit bf6c4fd"},
		{"query checkpoint", intConst(t, "internal/server/checkpoint.go", "checkpointVersion"), restartFromCheckpoint, "commit bf6c4fd"},
		{"segment", intConst(t, "internal/broker/storage/filelog.go", "segVersion"), openSegment, "commit b79a451"},
	}
	for _, k := range kinds {
		for v := 0; v <= k.current+1; v++ {
			err := k.open(t, v)
			if read := v == k.current-1 || v == k.current; read != (err == nil) {
				t.Errorf("%s version %d (current %d): read %v, error %v", k.row, v, k.current, err == nil, err)
				continue
			}
			for _, part := range []string{fmt.Sprintf("version %d", v), fmt.Sprintf("versions %d and %d", k.current-1, k.current), k.commit} {
				if err != nil && !strings.Contains(err.Error(), part) {
					t.Errorf("%s version %d: refusal %q does not name %q", k.row, v, err, part)
				}
			}
		}
		want := []string{strconv.Itoa(k.current), strconv.Itoa(k.current - 1), k.commit}
		if got := rows[k.row]; strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("README's format window row %q says %q, want %q", k.row, got, want)
		}
	}
}

// intConst reads the integer constant name declared in the Go file path.
func intConst(t *testing.T, path, name string) int {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	value := -1
	ast.Inspect(f, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for i, id := range vs.Names {
				if i >= len(vs.Values) || id.Name != name {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.INT {
					value, _ = strconv.Atoi(lit.Value)
				}
			}
		}
		return value < 0
	})
	if value < 0 {
		t.Fatalf("%s declares no integer constant %s", path, name)
	}
	return value
}

// decodeSnapshot decodes an empty session snapshot of the version.
func decodeSnapshot(_ *testing.T, version int) error {
	_, err := pane.Decode(fmt.Appendf(nil, `{"version":%d}`, version))
	return err
}

// restartFromCheckpoint starts a server over a checkpoint dir holding one
// query checkpoint of the version.
func restartFromCheckpoint(t *testing.T, version int) error {
	dir := t.TempDir()
	cp := fmt.Sprintf(`{"version":%d,"id":"q-0","spec":{"kind":"count","window":"1s"},"shards":[]}`, version)
	if err := os.WriteFile(filepath.Join(dir, "q-0.json"), []byte(cp), 0o644); err != nil {
		t.Fatal(err)
	}
	b := broker.New()
	defer b.Close()
	if err := b.CreateTopic("in", 1); err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Cluster: b, Topic: "in", CheckpointDir: dir, CheckpointEvery: time.Hour})
	if err == nil {
		s.Close()
	}
	return err
}

// openSegment opens a log of one empty segment whose header says the
// version.
func openSegment(t *testing.T, version int) error {
	dir := t.TempDir()
	hdr := binary.LittleEndian.AppendUint16([]byte("SASG"), uint16(version))
	hdr = binary.LittleEndian.AppendUint16(hdr, 1) // CRC-32C frames
	hdr = binary.LittleEndian.AppendUint64(hdr, 0) // base offset
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d.seg", 0)), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := storage.OpenFileLog(dir, storage.FileConfig{})
	if err == nil {
		err = l.Close()
	}
	return err
}
