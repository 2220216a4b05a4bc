package experiment

import (
	"strconv"
	"strings"
	"testing"
)

// TestE5NoteMatchesMeans recomputes the per-ℓ mean ratio from E5's rows
// and fails if the direction its note states disagrees with those means.
// Seed 42 is the quick grid whose means fall with ℓ (28.84, then 18.96).
func TestE5NoteMatchesMeans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick E5 grid; skipped in -short")
	}
	tables, err := runE5(Config{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	col := map[string]int{}
	for i, c := range tb.Columns {
		col[c] = i
	}
	sum, count := map[string]float64{}, map[string]int{}
	var ells []string
	for _, row := range tb.Rows {
		r, err := strconv.ParseFloat(row[col["ratio"]], 64)
		if err != nil {
			t.Fatalf("ratio cell %q: %v", row[col["ratio"]], err)
		}
		ell := row[col["ℓ"]]
		if count[ell] == 0 {
			ells = append(ells, ell)
		}
		sum[ell] += r
		count[ell]++
	}
	means := make([]float64, len(ells))
	for i, ell := range ells {
		means[i] = sum[ell] / float64(count[ell])
	}
	want := ratioTrend(means)
	note := tb.Notes[len(tb.Notes)-1]
	if !strings.HasPrefix(note, "the mean ratio "+want+" ℓ") {
		t.Errorf("note %q disagrees with the means by ℓ %v (the mean ratio %s ℓ)", note, means, want)
	}
}

func TestRatioTrend(t *testing.T) {
	for _, tc := range []struct {
		means []float64
		want  string
	}{
		{[]float64{1, 2, 4}, "grows with"},
		{[]float64{28.84, 18.96}, "falls with"},
		{[]float64{3, 1, 2}, "is not monotone in"},
		{[]float64{5, 5}, "does not change with"},
		{[]float64{5}, "does not change with"},
	} {
		if got := ratioTrend(tc.means); got != tc.want {
			t.Errorf("ratioTrend(%v) = %q, want %q", tc.means, got, tc.want)
		}
	}
}
