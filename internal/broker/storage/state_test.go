package storage

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadJSONAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	type st struct{ N int }
	var got st
	if ok, err := LoadJSON(path, &got); ok || err != nil {
		t.Fatalf("load missing: ok=%v err=%v", ok, err)
	}
	if err := SaveJSON(path, st{N: 7}, true); err != nil {
		t.Fatal(err)
	}
	if ok, err := LoadJSON(path, &got); !ok || err != nil || got.N != 7 {
		t.Fatalf("load: ok=%v err=%v got=%+v", ok, err, got)
	}
	// No temp litter left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}
