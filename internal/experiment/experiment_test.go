package experiment

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"repro/internal/search"
)

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 15 {
		t.Fatalf("registry has %d experiments, want 15", len(reg))
	}
	want := []string{"AB1", "AB2", "AB3", "AB4", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "S1", "S2", "S3"}
	for i, e := range reg {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("%s has missing metadata", e.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	e, err := Lookup("e3")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "E3" {
		t.Errorf("Lookup(e3) = %s", e.ID)
	}
	if _, err := Lookup("E99"); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Columns: []string{"a", "long_column"},
	}
	tb.AddRow(1, 2.5)
	tb.AddRow("xyz", 0.125)
	tb.Notes = append(tb.Notes, "a note")
	out := tb.Render()
	for _, want := range []string{"demo", "long_column", "xyz", "2.5", "0.125", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Columns: []string{"x", "y"}}
	tb.AddRow(1, 2)
	got := tb.CSV()
	if got != "x,y\n1,2\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		v    float64
		want string
	}{
		{1.0, "1"}, {2.5, "2.5"}, {0.125, "0.125"}, {0.1239, "0.124"}, {0, "0"},
	}
	for _, tt := range tests {
		if got := trimFloat(tt.v); got != tt.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestMeanOf(t *testing.T) {
	if got := meanOf(nil); got != 0 {
		t.Errorf("meanOf(nil) = %v", got)
	}
	if got := meanOf([]float64{2, 4}); got != 3 {
		t.Errorf("meanOf = %v, want 3", got)
	}
}

// TestAllExperimentsQuick runs every experiment in quick mode end-to-end:
// the integration test of the whole reproduction pipeline.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment suite still takes seconds; skipped in -short")
	}
	cfg := Config{Seed: 7, Quick: true}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s table %q has no rows", e.ID, tb.Title)
				}
				if out := tb.Render(); !strings.Contains(out, tb.Title) {
					t.Errorf("%s render broken", e.ID)
				}
				for i, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Errorf("%s table %q row %d has %d cells, want %d",
							e.ID, tb.Title, i, len(row), len(tb.Columns))
					}
				}
			}
		})
	}
}

// TestDefaultMoveBudgetSaturates: 512·D² must never come out below its
// exact value — past uint64 it saturates instead of wrapping (a wrap can
// even yield 0, which means an unlimited budget).
func TestDefaultMoveBudgetSaturates(t *testing.T) {
	maxU := new(big.Int).SetUint64(math.MaxUint64)
	for _, d := range []int64{1, 2, 189812531, 189812532, 1 << 31, search.MaxDistance} {
		exact := new(big.Int).Mul(big.NewInt(d), big.NewInt(d))
		exact.Mul(exact, big.NewInt(512))
		want := exact
		if exact.Cmp(maxU) > 0 {
			want = maxU
		}
		if got := DefaultMoveBudget(d); got != want.Uint64() {
			t.Errorf("DefaultMoveBudget(%d) = %d, want %s (exact %s)", d, got, want, exact)
		}
	}
}
