package plan

import (
	"math"
	"slices"

	"numacs/internal/colstore"
)

// A written plan's identity, for a plan cache: Hash buckets plans, Equal
// tells two plans of one bucket apart, and Clone gives the cache a tree of
// its own, since Optimize rewrites the tree it is given. All three read
// every field a node carries: tables by pointer (Hash reads their names),
// column names, join keys, the hash-table sockets, the flags, and every
// float by its bits, so -0 and +0 differ and a NaN equals itself.

// Hash returns a hash of l's structure that equal plans share. It allocates
// nothing.
func (l *Logical) Hash() uint64 {
	h := hasher(fnvOffset)
	h.node(l.Root)
	return uint64(h)
}

// Equal reports whether a and b are the same plan, node for node.
func Equal(a, b *Logical) bool { return equalNode(a.Root, b.Root) }

// Clone returns a deep copy of l that shares no node or slice with it.
func (l *Logical) Clone() *Logical { return &Logical{Root: cloneNode(l.Root)} }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hasher is an FNV-1a hash folded a word at a time.
type hasher uint64

func (h *hasher) word(v uint64) { *h = (*h ^ hasher(v)) * fnvPrime }

func (h *hasher) float(f float64) { h.word(math.Float64bits(f)) }

func (h *hasher) flag(b bool) {
	if b {
		h.word(1)
	} else {
		h.word(0)
	}
}

func (h *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
	h.word(uint64(len(s)))
}

func (h *hasher) strs(ss []string) {
	for _, s := range ss {
		h.str(s)
	}
	h.word(uint64(len(ss)))
}

func (h *hasher) table(t *colstore.Table) {
	if t != nil {
		h.str(t.Name)
	}
}

func (h *hasher) preds(ps []Pred) {
	for _, p := range ps {
		h.str(p.Column)
		h.float(p.Selectivity)
	}
	h.word(uint64(len(ps)))
}

func (h *hasher) node(n Node) {
	switch v := n.(type) {
	case *ScanNode:
		h.word(1)
		h.table(v.Table)
		h.preds(v.Preds)
		h.flag(v.Parallel)
		h.flag(v.UseIndex)
	case *FilterNode:
		h.word(2)
		h.preds(v.Preds)
		h.flag(v.UseIndex)
		h.node(v.Input)
	case *JoinNode:
		h.word(3)
		h.str(v.BuildKey)
		h.str(v.ProbeKey)
		h.float(v.HitsPerProbeRow)
		for _, s := range v.HTSockets {
			h.word(uint64(s))
		}
		h.word(uint64(len(v.HTSockets)))
		h.flag(v.Swapped)
		h.node(v.Build)
		h.node(v.Probe)
	case *AggregateNode:
		h.word(4)
		h.float(v.BytesPerRow)
		h.float(v.CyclesPerRow)
		h.strs(v.ProjectColumns)
		h.flag(v.Parallel)
		h.node(v.Input)
	case *MaterializeNode:
		h.word(5)
		h.strs(v.ProjectColumns)
		h.flag(v.Parallel)
		h.node(v.Input)
	default:
		h.word(0)
	}
}

// sameFloat compares two floats by their bits.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func equalPreds(a, b []Pred) bool {
	return slices.EqualFunc(a, b, func(x, y Pred) bool {
		return x.Column == y.Column && sameFloat(x.Selectivity, y.Selectivity)
	})
}

func equalNode(a, b Node) bool {
	switch x := a.(type) {
	case *ScanNode:
		y, ok := b.(*ScanNode)
		return ok && x.Table == y.Table && equalPreds(x.Preds, y.Preds) &&
			x.Parallel == y.Parallel && x.UseIndex == y.UseIndex
	case *FilterNode:
		y, ok := b.(*FilterNode)
		return ok && equalPreds(x.Preds, y.Preds) && x.UseIndex == y.UseIndex &&
			equalNode(x.Input, y.Input)
	case *JoinNode:
		y, ok := b.(*JoinNode)
		return ok && x.BuildKey == y.BuildKey && x.ProbeKey == y.ProbeKey &&
			sameFloat(x.HitsPerProbeRow, y.HitsPerProbeRow) && slices.Equal(x.HTSockets, y.HTSockets) &&
			x.Swapped == y.Swapped && equalNode(x.Build, y.Build) && equalNode(x.Probe, y.Probe)
	case *AggregateNode:
		y, ok := b.(*AggregateNode)
		return ok && sameFloat(x.BytesPerRow, y.BytesPerRow) && sameFloat(x.CyclesPerRow, y.CyclesPerRow) &&
			slices.Equal(x.ProjectColumns, y.ProjectColumns) && x.Parallel == y.Parallel &&
			equalNode(x.Input, y.Input)
	case *MaterializeNode:
		y, ok := b.(*MaterializeNode)
		return ok && slices.Equal(x.ProjectColumns, y.ProjectColumns) && x.Parallel == y.Parallel &&
			equalNode(x.Input, y.Input)
	default:
		return a == nil && b == nil
	}
}

func cloneNode(n Node) Node {
	switch v := n.(type) {
	case *ScanNode:
		c := *v
		c.Preds = slices.Clone(v.Preds)
		return &c
	case *FilterNode:
		c := *v
		c.Preds = slices.Clone(v.Preds)
		c.Input = cloneNode(v.Input)
		return &c
	case *JoinNode:
		c := *v
		c.HTSockets = slices.Clone(v.HTSockets)
		c.Build, c.Probe = cloneNode(v.Build), cloneNode(v.Probe)
		return &c
	case *AggregateNode:
		c := *v
		c.ProjectColumns = slices.Clone(v.ProjectColumns)
		c.Input = cloneNode(v.Input)
		return &c
	case *MaterializeNode:
		c := *v
		c.ProjectColumns = slices.Clone(v.ProjectColumns)
		c.Input = cloneNode(v.Input)
		return &c
	default:
		return n
	}
}
