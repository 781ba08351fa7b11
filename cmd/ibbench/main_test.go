package main

import (
	"io"
	"testing"
	"time"
)

// TestQuickTable runs the whole quick table in process: every gate must
// pass at widths {1, 2} and write its certificates, and every grid must
// yield one row per grid point per width — or, for a width-free grid,
// one row per grid point.
func TestQuickTable(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc gates run in non-race builds (go test ./cmd/ibbench, ibbench -quick)")
	}
	widths := []int{1, 2}
	e := newEnv(true, widths)
	e.benchD = time.Millisecond
	rep, err := run(e, table, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CapturesBitIdentical || !rep.DecodeBitIdentical || !rep.WarmDecodeZeroAlloc {
		t.Fatalf("certificates not all true: %+v", rep)
	}
	type key struct {
		grid, name string
		workers    int
	}
	seen := map[key]bool{}
	byWidth := map[string]map[int]int{} // grid → width → rows
	for _, r := range rep.Rows {
		k := key{r.Grid, r.Name, r.Workers}
		if seen[k] || r.NsPerOp <= 0 {
			t.Fatalf("row %+v duplicated or untimed", k)
		}
		seen[k] = true
		if byWidth[r.Grid] == nil {
			byWidth[r.Grid] = map[int]int{}
		}
		byWidth[r.Grid][r.Workers]++
	}
	for _, g := range table {
		counts := byWidth[g.name]
		if counts[0] > 0 && len(counts) == 1 {
			continue // width-free grid
		}
		if len(counts) != len(widths) {
			t.Fatalf("grid %s: rows by width %v, want widths %v", g.name, counts, widths)
		}
		for _, w := range widths {
			if counts[w] == 0 || counts[w] != counts[widths[0]] {
				t.Fatalf("grid %s: rows by width %v, want the same grid points at every width", g.name, counts)
			}
		}
	}
}

// TestSchedRunReproducible: with the admission barrier, two drains of
// the same tenancy plan the same passes and occupy the chamber for the
// same hours.
func TestSchedRunReproducible(t *testing.T) {
	for _, batching := range []bool{true, false} {
		a, err := schedRun(24, batching)
		if err != nil {
			t.Fatal(err)
		}
		b, err := schedRun(24, batching)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"chamber_hours", "passes", "batched_slices", "latency_p99_hours"} {
			if a.Extra[k] != b.Extra[k] {
				t.Fatalf("batching=%v: %s %v then %v", batching, k, a.Extra[k], b.Extra[k])
			}
		}
	}
}
