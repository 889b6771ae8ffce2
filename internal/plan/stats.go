package plan

import "numacs/internal/colstore"

// ColumnStats are the per-column statistics the optimizer passes consume:
// the row count, which feeds every cardinality estimate. The zero value
// (unknown column, or planning without stats) makes every estimate zero,
// which keeps the written plan — stat-less optimization is a no-op, not a
// crash.
type ColumnStats struct {
	// Rows is the column's total row count across physical parts.
	Rows int
}

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
		for _, c := range t.Parts[0].Columns {
			s.cols[t.Name+"."+c.Name] = columnStats(t, c.Name)
		}
	}
	return s
}

// Snapshot appends to buf the statistics Collect catalogs for tables, table
// by table in column order, and allocates nothing when buf has room: a plan
// cache compares two snapshots to tell whether planning with statistics
// would still read the same inputs.
func Snapshot(buf []ColumnStats, tables ...*colstore.Table) []ColumnStats {
	for _, t := range tables {
		if t == nil {
			continue
		}
		for _, c := range t.Parts[0].Columns {
			buf = append(buf, columnStats(t, c.Name))
		}
	}
	return buf
}

// columnStats gathers the statistics of table.name across t's parts.
func columnStats(t *colstore.Table, name string) ColumnStats {
	cs := ColumnStats{}
	for _, part := range t.Parts {
		if c := part.ColumnByName(name); c != nil {
			cs.Rows += c.Rows
		}
	}
	return cs
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
