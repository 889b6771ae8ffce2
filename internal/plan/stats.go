package plan

import "numacs/internal/colstore"

// ColumnStats are the per-column statistics the optimizer passes consume:
// row count, compressed width, replica placement, IVP partitioning, delta
// size, and index presence. The zero value (unknown column, or planning
// without stats) makes every estimate zero, which keeps the written plan —
// stat-less optimization is a no-op, not a crash.
type ColumnStats struct {
	// Rows is the column's total row count across physical parts.
	Rows int
	// Bitcase is the bit-packed width of the indexvector entries.
	Bitcase uint
	// Replicas counts the sockets holding a full copy (1 = unreplicated,
	// 0 = unplaced).
	Replicas int
	// IVPParts counts the column's IVP partitions (0 = not IVP-partitioned).
	IVPParts int
	// DeltaRows counts watermark-visible uncompressed delta rows; they
	// inflate the scan's streamed bytes by delta.RowBytes each.
	DeltaRows int
	// HasIndex reports whether the column carries an inverted index.
	HasIndex bool
	// Placed reports whether the column's indexvector has a PSM (an unplaced
	// column cannot execute, so the planner treats it as estimate-only).
	Placed bool
}

// BytesPerRow is the compressed main-store bytes one row of the column
// streams during a scan.
func (c ColumnStats) BytesPerRow() float64 { return float64(c.Bitcase) / 8 }

// Stats is the planner's statistics catalog, keyed by table.column. Collect
// builds one from live tables; a nil *Stats is valid everywhere and yields
// zero ColumnStats (the empty-stats edge the optimizer tests pin).
type Stats struct {
	cols map[string]ColumnStats
}

// Collect gathers column statistics from the given tables' live metadata.
func Collect(tables ...*colstore.Table) *Stats {
	s := &Stats{cols: make(map[string]ColumnStats)}
	for _, t := range tables {
		if t == nil {
			continue
		}
		for _, name := range t.ColumnNames() {
			cs := ColumnStats{}
			for _, part := range t.Parts {
				c := part.ColumnByName(name)
				if c == nil {
					continue
				}
				cs.Rows += c.Rows
				cs.Bitcase = c.Bitcase
				cs.DeltaRows += c.DeltaRows()
				if c.Idx != nil {
					cs.HasIndex = true
				}
				if c.IVPSM != nil {
					cs.Placed = true
				}
				if r := len(c.ReplicaSockets); r > cs.Replicas {
					cs.Replicas = r
				}
				if len(c.Partitions) > 1 {
					cs.IVPParts = len(c.Partitions)
				}
			}
			if cs.Replicas == 0 && cs.Placed {
				cs.Replicas = 1
			}
			s.cols[t.Name+"."+name] = cs
		}
	}
	return s
}

// Lookup returns the statistics of table.column, reporting whether the
// catalog holds them. A nil receiver (planning without stats) reports false.
func (s *Stats) Lookup(table *colstore.Table, column string) (ColumnStats, bool) {
	if s == nil || table == nil {
		return ColumnStats{}, false
	}
	cs, ok := s.cols[table.Name+"."+column]
	return cs, ok
}

// estFilteredRows estimates a scan's qualifying rows: the column's row count
// scaled by every pushed predicate's selectivity. Unknown stats estimate 0.
func (s *Stats) estFilteredRows(sc *ScanNode) float64 {
	if len(sc.Preds) == 0 {
		// An unfiltered scan passes every row (the fact side of a join).
		cs, ok := s.Lookup(sc.Table, firstColumn(sc.Table))
		if !ok {
			return 0
		}
		return float64(cs.Rows)
	}
	cs, ok := s.Lookup(sc.Table, sc.Preds[0].Column)
	if !ok {
		return 0
	}
	rows := float64(cs.Rows)
	for _, p := range sc.Preds {
		rows *= p.Selectivity
	}
	return rows
}

// firstColumn returns a table's first column name ("" for an empty table) —
// the row-count proxy for unfiltered scans.
func firstColumn(t *colstore.Table) string {
	if t == nil {
		return ""
	}
	names := t.ColumnNames()
	if len(names) == 0 {
		return ""
	}
	return names[0]
}
