package experiment

import (
	"strconv"
	"strings"
	"testing"

	"streamapprox/internal/core"
	"streamapprox/internal/estimate"
)

// tiny returns options small enough for unit tests.
func tiny() Options { return Options{Scale: 0.05, Seed: 7, Workers: 2} }

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
	}
	out := tbl.Format()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-column") {
		t.Errorf("Format output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header line + column line + 2 rows
		t.Errorf("got %d lines", len(lines))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Seed == 0 || o.Workers != 4 {
		t.Errorf("defaults = %+v", o)
	}
	if got := (Options{Scale: 0.0001}).scaled(100); got != 1 {
		t.Errorf("scaled floor = %d", got)
	}
}

func TestMeanAccuracyLossOverall(t *testing.T) {
	truth := []core.WindowResult{{}}
	truth[0].Result.Overall = estimate.Estimate{Value: 100}
	results := []core.WindowResult{{}}
	results[0].Result.Overall = estimate.Estimate{Value: 110}
	if got := meanAccuracyLoss(results, truth); got != 0.1 {
		t.Errorf("loss = %v, want 0.1", got)
	}
}

func TestMeanAccuracyLossGroups(t *testing.T) {
	truth := []core.WindowResult{{}}
	truth[0].Result.Groups = map[string]estimate.Estimate{
		"a": {Value: 100}, "b": {Value: 200},
	}
	results := []core.WindowResult{{}}
	results[0].Result.Groups = map[string]estimate.Estimate{
		"a": {Value: 110}, "b": {Value: 180},
	}
	if got := meanAccuracyLoss(results, truth); got != 0.1 {
		t.Errorf("group loss = %v, want 0.1 (mean of 0.1 and 0.1)", got)
	}
}

func TestMeanAccuracyLossEmpty(t *testing.T) {
	if got := meanAccuracyLoss(nil, nil); got != 0 {
		t.Errorf("empty loss = %v", got)
	}
}

// checkTable validates the generic shape of a figure table.
func checkTable(t *testing.T, tbl *Table, err error, minRows int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < minRows {
		t.Fatalf("%s has %d rows, want >= %d", tbl.ID, len(tbl.Rows), minRows)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Errorf("%s row %d has %d cells, want %d", tbl.ID, i, len(row), len(tbl.Columns))
		}
	}
}

func parseThroughput(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad throughput cell %q: %v", cell, err)
	}
	return v
}

func TestFig4aShape(t *testing.T) {
	tbl, err := Fig4a(tiny())
	checkTable(t, tbl, err, 22) // 4 systems x 5 fractions + 2 native
	// Throughputs must be positive.
	for _, row := range tbl.Rows {
		if parseThroughput(t, row[2]) <= 0 {
			t.Errorf("non-positive throughput in row %v", row)
		}
	}
}

func TestFig4bShape(t *testing.T) {
	tbl, err := Fig4b(tiny())
	checkTable(t, tbl, err, 24) // 4 systems x 6 fractions
	// Losses must parse as percentages.
	for _, row := range tbl.Rows {
		if !strings.HasSuffix(row[2], "%") {
			t.Errorf("loss cell %q not a percentage", row[2])
		}
	}
}

func TestFig4cShape(t *testing.T) {
	tbl, err := Fig4c(tiny())
	checkTable(t, tbl, err, 9) // 3 systems x 3 intervals
}

func TestFig5aShape(t *testing.T) {
	tbl, err := Fig5a(tiny())
	checkTable(t, tbl, err, 12) // 4 systems x 3 rate configs
}

func TestFig6cShape(t *testing.T) {
	tbl, err := Fig6c(tiny())
	checkTable(t, tbl, err, 24)
}

func TestFig7Shape(t *testing.T) {
	tbl, err := Fig7(Options{Scale: 0.5, Seed: 7, Workers: 2})
	checkTable(t, tbl, err, 3)
	// Every row must carry a ground-truth value and three estimates.
	for _, row := range tbl.Rows[1 : len(tbl.Rows)-1] { // interior windows
		for i := 1; i < 5; i++ {
			if row[i] == "" {
				t.Errorf("fig7 row %v missing series %d", row, i)
			}
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tbl, err := Fig10(tiny())
	checkTable(t, tbl, err, 6) // 3 systems x 2 datasets
}

func TestAblationTables(t *testing.T) {
	o := tiny()
	tbl, err := AblationWeighting(o)
	checkTable(t, tbl, err, 2)
	tbl, err = AblationDistributedOASRS(o)
	checkTable(t, tbl, err, 4)
	tbl, err = AblationReservoirSkip(Options{Scale: 0.01, Seed: 7})
	checkTable(t, tbl, err, 4)
}

func TestAllRegistryComplete(t *testing.T) {
	all := All()
	for _, id := range []string{
		"fig4a", "fig4b", "fig4c", "fig5a", "fig5bc", "fig6a", "fig6b", "fig6c",
		"fig7", "fig8a", "fig8b", "fig8c", "fig9a", "fig9b", "fig9c", "fig10",
		"abl-sync", "abl-weights", "abl-dist", "abl-skip",
	} {
		if _, ok := all[id]; !ok {
			t.Errorf("registry missing %s", id)
		}
	}
	if len(all) != 20 {
		t.Errorf("registry has %d entries, want 20", len(all))
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "with,comma"}},
	}
	got := tbl.CSV()
	want := "a,b\n1,\"with,comma\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestFig5bcShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	tbl, err := Fig5bc(Options{Scale: 0.02, Seed: 7, Workers: 2})
	checkTable(t, tbl, err, 16) // 4 systems x 4 window sizes
}

func TestFig6aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	tbl, err := Fig6a(Options{Scale: 0.02, Seed: 7, Workers: 2})
	checkTable(t, tbl, err, 32) // 4 systems x 8 configs
}

func TestFig6bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	tbl, err := Fig6b(Options{Scale: 0.02, Seed: 7, Workers: 2})
	checkTable(t, tbl, err, 8) // 4 systems x 2 targets
}

func TestCaseStudyFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	o := Options{Scale: 0.02, Seed: 7, Workers: 2}
	for name, fn := range map[string]func(Options) (*Table, error){
		"fig8a": Fig8a, "fig8b": Fig8b, "fig8c": Fig8c,
		"fig9a": Fig9a, "fig9b": Fig9b, "fig9c": Fig9c,
	} {
		fn := fn
		t.Run(name, func(t *testing.T) {
			tbl, err := fn(o)
			checkTable(t, tbl, err, 8)
		})
	}
}

func TestAblationSTSBarrierShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	tbl, err := AblationSTSBarrier(Options{Scale: 0.02, Seed: 7, Workers: 2})
	checkTable(t, tbl, err, 3)
	// OASRS (no sync) must beat full STS in the decomposition.
	var full, oasrs float64
	for _, row := range tbl.Rows {
		v := parseThroughput(t, row[1])
		switch row[0] {
		case "sts-shuffle+sort":
			full = v
		case "oasrs-no-sync":
			oasrs = v
		}
	}
	if oasrs <= full {
		t.Errorf("OASRS (%v) should out-sample full STS (%v)", oasrs, full)
	}
}
