package colstore

import (
	"testing"
)

func buildTestTable(t *testing.T, rows, cols int) *Table {
	t.Helper()
	columns := make([]*Column, cols)
	for j := 0; j < cols; j++ {
		columns[j] = Build(colName(j), testValues(rows, int64(100+j*37), uint32(j+1)), false)
	}
	return NewTable("tbl", columns)
}

func colName(j int) string { return "COL" + string(rune('A'+j)) }

func TestNewTable(t *testing.T) {
	tbl := buildTestTable(t, 500, 3)
	if tbl.NumParts() != 1 || tbl.Rows != 500 {
		t.Fatalf("parts=%d rows=%d", tbl.NumParts(), tbl.Rows)
	}
	if c := tbl.Column("COLB"); c == nil || c.Rows != 500 {
		t.Fatal("Column lookup failed")
	}
	if names := tbl.ColumnNames(); len(names) != 3 || names[0] != "COLA" {
		t.Fatalf("names = %v", names)
	}
}

func TestNewTableRejectsMismatchedRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched row counts")
		}
	}()
	NewTable("bad", []*Column{
		Build("a", testValues(10, 5, 1), false),
		Build("b", testValues(20, 5, 2), false),
	})
}

func TestPhysicalPartitionPreservesData(t *testing.T) {
	tbl := buildTestTable(t, 1000, 2)
	orig := tbl.Parts[0].Columns[0]
	pp := tbl.PhysicallyPartition(4)
	if pp.NumParts() != 4 {
		t.Fatalf("parts = %d", pp.NumParts())
	}
	covered := 0
	for _, p := range pp.Parts {
		covered += p.RowTo - p.RowFrom
		col := p.ColumnByName("COLA")
		for r := p.RowFrom; r < p.RowTo; r++ {
			if col.Value(r-p.RowFrom) != orig.Value(r) {
				t.Fatalf("row %d differs after PP", r)
			}
		}
	}
	if covered != 1000 {
		t.Fatalf("parts cover %d rows", covered)
	}
}

func TestPhysicalPartitionDictionaryOverhead(t *testing.T) {
	// Low-cardinality columns repeat values in every part, so the sum of
	// per-part dictionaries exceeds the single dictionary — the PP memory
	// overhead of Section 4.2 / 6.2.3.
	cols := []*Column{Build("c", testValues(4000, 50, 3), false)}
	tbl := NewTable("t", cols)
	pp := tbl.PhysicallyPartition(4)
	var ppDict int64
	for _, p := range pp.Parts {
		ppDict += p.Columns[0].DictBytes()
	}
	if ppDict <= cols[0].DictBytes() {
		t.Fatalf("PP dictionaries (%d B) should exceed the original (%d B)", ppDict, cols[0].DictBytes())
	}
	if pp.TotalBytes() <= tbl.TotalBytes()-cols[0].DictBytes() {
		t.Fatal("TotalBytes should reflect duplication")
	}
}

func TestPhysicalPartitionKeepsIndexes(t *testing.T) {
	cols := []*Column{Build("c", testValues(400, 40, 9), true)}
	pp := NewTable("t", cols).PhysicallyPartition(2)
	for _, p := range pp.Parts {
		if p.Columns[0].Idx == nil {
			t.Fatal("index lost during PP")
		}
	}
}

func TestPhysicalPartitionScanEquivalence(t *testing.T) {
	// A predicate scan over all parts finds the same global row ids as over
	// the unpartitioned column.
	vals := testValues(2000, 300, 11)
	tbl := NewTable("t", []*Column{Build("c", vals, false)})
	whole := tbl.Parts[0].Columns[0]
	lo, hi, ok := whole.EncodePredicate(50, 90)
	if !ok {
		t.Fatal("predicate empty")
	}
	want := whole.ScanPositions(lo, hi, 0, whole.Rows, nil)

	pp := tbl.PhysicallyPartition(3)
	var got []uint32
	for _, p := range pp.Parts {
		c := p.Columns[0]
		plo, phi, ok := c.EncodePredicate(50, 90)
		if !ok {
			continue
		}
		for _, pos := range c.ScanPositions(plo, phi, 0, c.Rows, nil) {
			got = append(got, pos+uint32(p.RowFrom))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("PP scan found %d, whole scan %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestPhysicallyPartitionRejectsRepartition(t *testing.T) {
	tbl := buildTestTable(t, 100, 1)
	pp := tbl.PhysicallyPartition(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double partition")
		}
	}()
	pp.PhysicallyPartition(4)
}
