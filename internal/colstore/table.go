package colstore

import "fmt"

// Part is one physical partition of a table: a contiguous row range with its
// own columns (and hence its own per-part dictionaries, the source of PP's
// extra memory consumption discussed in Section 4.2).
type Part struct {
	RowFrom, RowTo int
	Columns        []*Column
	// HomeSocket is the socket the part is placed on (-1 before placement).
	HomeSocket int
}

// ColumnByName finds a column within the part.
func (p *Part) ColumnByName(name string) *Column {
	for _, c := range p.Columns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Table is a physically partitionable table. An unpartitioned table has a
// single part covering all rows.
type Table struct {
	Name  string
	Rows  int
	Parts []*Part
}

// NewTable builds a single-part table from whole columns.
func NewTable(name string, columns []*Column) *Table {
	if len(columns) == 0 {
		panic("colstore: table needs at least one column")
	}
	rows := columns[0].Rows
	for _, c := range columns {
		if c.Rows != rows {
			panic(fmt.Sprintf("colstore: column %s has %d rows, table has %d", c.Name, c.Rows, rows))
		}
	}
	return &Table{
		Name: name,
		Rows: rows,
		Parts: []*Part{{
			RowFrom:    0,
			RowTo:      rows,
			Columns:    columns,
			HomeSocket: -1,
		}},
	}
}

// NumParts returns the number of physical partitions.
func (t *Table) NumParts() int { return len(t.Parts) }

// Column returns the whole-table column by name; it panics if the table is
// physically partitioned (use Parts in that case).
func (t *Table) Column(name string) *Column {
	if len(t.Parts) != 1 {
		panic(fmt.Sprintf("colstore: table %s is physically partitioned", t.Name))
	}
	c := t.Parts[0].ColumnByName(name)
	if c == nil {
		panic(fmt.Sprintf("colstore: no column %s in table %s", name, t.Name))
	}
	return c
}

// ColumnNames returns the column names of the table.
func (t *Table) ColumnNames() []string {
	names := make([]string, 0, len(t.Parts[0].Columns))
	for _, c := range t.Parts[0].Columns {
		names = append(names, c.Name)
	}
	return names
}

// TotalBytes sums the footprint of every part, exposing PP's dictionary
// duplication overhead.
func (t *Table) TotalBytes() int64 {
	total := int64(0)
	for _, p := range t.Parts {
		for _, c := range p.Columns {
			total += c.TotalBytes()
		}
	}
	return total
}

// PhysicallyPartition rebuilds the table as n range partitions on the
// implicit row id (the paper partitions by ranges of the ID primary key,
// which equals the row number in the generated dataset). Every column of
// every part is fully rebuilt — per-part dictionary, re-encoded IV, and
// index if the source column had one. This is what makes PP heavyweight
// (Section 6.2.3); RepartitionCost quantifies it.
func (t *Table) PhysicallyPartition(n int) *Table {
	if len(t.Parts) != 1 {
		panic(fmt.Sprintf("colstore: table %s is already partitioned", t.Name))
	}
	if n < 1 || n > t.Rows {
		panic(fmt.Sprintf("colstore: bad partition count %d", n))
	}
	src := t.Parts[0].Columns
	parts := make([]*Part, n)
	for i := 0; i < n; i++ {
		from := t.Rows * i / n
		to := t.Rows * (i + 1) / n
		cols := make([]*Column, len(src))
		for j, c := range src {
			if c.Synthetic {
				// Synthetic columns carry no data; build a correctly-sized
				// synthetic part (per-part dictionaries shrink according to
				// the expected distinct count of the smaller row range,
				// which is also what produces PP's duplication overhead).
				cols[j] = NewSynthetic(c.Name, to-from, c.Domain, c.Idx != nil)
				continue
			}
			vals := make([]int64, to-from)
			for r := from; r < to; r++ {
				vals[r-from] = c.Value(r)
			}
			cols[j] = Build(c.Name, vals, c.Idx != nil)
			cols[j].Domain = c.Domain
		}
		parts[i] = &Part{RowFrom: from, RowTo: to, Columns: cols, HomeSocket: -1}
	}
	return &Table{Name: t.Name, Rows: t.Rows, Parts: parts}
}
