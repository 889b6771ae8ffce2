// Package workload generates the paper's dataset and drives closed-loop
// clients against the execution engine. The paper's dataset is a table of
// 100 M rows and 160 integer columns whose bitcases cycle through 17..26;
// the generator reproduces that structure at a configurable scale (the
// simulation preserves relative intensities, so shapes survive scaling —
// see EXPERIMENTS.md's opening paragraph). Clients continuously execute a
// prepared range predicate SELECT COLx FROM TBL WHERE COLx >= ? AND
// COLx <= ? on a column chosen uniformly or with the 80/20 skew of
// Section 6.2, with no think time.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"numacs/internal/colstore"
	"numacs/internal/core"
)

// DatasetConfig describes the synthetic table.
type DatasetConfig struct {
	Rows    int
	Columns int
	// BitcaseMin/Max cycle round-robin across columns (paper: 17..26; the
	// scaled default uses 12..21 so dictionaries stay proportionate).
	BitcaseMin, BitcaseMax uint
	WithIndex              bool
	Seed                   int64
	// Synthetic skips generating and encoding actual values: columns hold
	// metadata only (colstore.NewSynthetic; value reads panic). The
	// simulation harness uses this — it costs the experiments nothing
	// because match counts are analytic — while examples and tests build
	// real data.
	Synthetic bool
}

// DefaultDataset is the scaled default used by the benchmark harness on
// 4-socket machines.
func DefaultDataset() DatasetConfig {
	return DatasetConfig{
		Rows:       100_000,
		Columns:    64,
		BitcaseMin: 12,
		BitcaseMax: 21,
		WithIndex:  false,
		Seed:       1,
	}
}

// Generate builds the dataset table.
func Generate(cfg DatasetConfig) *colstore.Table {
	if cfg.Rows <= 0 || cfg.Columns <= 0 {
		panic("workload: dataset needs positive rows and columns")
	}
	if cfg.BitcaseMin < 1 || cfg.BitcaseMax < cfg.BitcaseMin || cfg.BitcaseMax > 31 {
		panic("workload: bad bitcase range")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	span := int(cfg.BitcaseMax - cfg.BitcaseMin + 1)
	cols := make([]*colstore.Column, cfg.Columns)
	for j := 0; j < cfg.Columns; j++ {
		bc := cfg.BitcaseMin + uint(j%span)
		name := fmt.Sprintf("COL%03d", j)
		domain := int64(1) << bc
		if cfg.Synthetic {
			cols[j] = colstore.NewSynthetic(name, cfg.Rows, domain, cfg.WithIndex)
			continue
		}
		vals := make([]int64, cfg.Rows)
		for i := range vals {
			vals[i] = rng.Int63n(domain)
		}
		cols[j] = colstore.Build(name, vals, cfg.WithIndex)
		cols[j].Domain = domain
	}
	return colstore.NewTable("TBL", cols)
}

// Chooser picks the column a client queries.
type Chooser interface {
	Pick(rng *rand.Rand, columns int) int
}

// UniformChoice picks any column with equal probability (Section 6.1).
type UniformChoice struct{}

// Pick implements Chooser.
func (UniformChoice) Pick(rng *rand.Rand, columns int) int { return rng.Intn(columns) }

// SkewedChoice implements the Section 6.2 skew: HotProb probability of
// choosing from the hot half of the columns. The paper gives clients an 80%
// probability of picking one of the last 80 of 160 columns.
type SkewedChoice struct {
	HotProb float64 // probability of the hot half (0.8 in the paper)
}

// Pick implements Chooser.
func (s SkewedChoice) Pick(rng *rand.Rand, columns int) int {
	half := columns / 2
	if rng.Float64() < s.HotProb {
		return half + rng.Intn(columns-half) // hot: second half
	}
	return rng.Intn(half) // cold: first half
}

// HotColumnChoice concentrates the workload on a single column: with
// probability P a client queries column Hot, otherwise a uniformly random
// column. This is the read-hot single-item skew that the adaptive
// replication experiment uses — one column dominates its socket, so the
// Section 7 placer must partition or replicate it rather than move it.
type HotColumnChoice struct {
	Hot int     // index of the hot column
	P   float64 // probability of querying it
}

// Pick implements Chooser.
func (h HotColumnChoice) Pick(rng *rand.Rand, columns int) int {
	if rng.Float64() < h.P {
		return h.Hot % columns
	}
	return rng.Intn(columns)
}

// FixedColumnChoice always picks the same column — the same-column hot-scan
// mix of the shared-scan experiment, where every client hammers one
// read-hot column and cohorts can merge all concurrent passes.
type FixedColumnChoice struct {
	// Col is the index of the column every client queries.
	Col int
}

// Pick implements Chooser.
func (f FixedColumnChoice) Pick(_ *rand.Rand, columns int) int { return f.Col % columns }

// ClientsConfig configures the closed-loop client population.
type ClientsConfig struct {
	N           int
	Selectivity float64
	UseIndex    bool
	Parallel    bool
	Strategy    core.Strategy
	Chooser     Chooser
	Seed        int64
	// Tenant tags every query with an admission tenant (relevant only when
	// the engine runs with an admission controller).
	Tenant string
}

// Clients drives N closed-loop clients: each client issues a query and, on
// completion, immediately issues the next (no think time, no result fetch —
// exactly the paper's harness).
type Clients struct {
	cfg     ClientsConfig
	engine  *core.Engine
	table   *colstore.Table
	columns []string
	rng     *rand.Rand

	// Issued counts queries submitted; the metrics package counts
	// completions.
	Issued uint64
}

// NewClients creates the client population over the given (placed) table.
func NewClients(e *core.Engine, table *colstore.Table, cfg ClientsConfig) *Clients {
	if cfg.Chooser == nil {
		cfg.Chooser = UniformChoice{}
	}
	c := &Clients{
		cfg:     cfg,
		engine:  e,
		table:   table,
		columns: table.ColumnNames(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	return c
}

// Start admits all clients (the paper makes sure all clients are admitted
// before measuring).
func (c *Clients) Start() {
	for i := 0; i < c.cfg.N; i++ {
		c.issue(i)
	}
}

func (c *Clients) issue(client int) {
	c.Issued++
	col := c.columns[c.cfg.Chooser.Pick(c.rng, len(c.columns))]
	c.engine.Submit(&core.Query{
		Table:       c.table,
		Column:      col,
		Selectivity: c.cfg.Selectivity,
		UseIndex:    c.cfg.UseIndex,
		Parallel:    c.cfg.Parallel,
		Strategy:    c.cfg.Strategy,
		HomeSocket:  client % c.engine.Machine.Sockets,
		Tenant:      c.cfg.Tenant,
		OnDone:      func(float64) { c.issue(client) },
		OnShed:      func() { c.issue(client) },
	})
}

// WritersConfig is the workload's write-mix knob: a population of writing
// clients issuing inserts and updates against chosen columns at a configured
// aggregate rate, opening the mixed read/write scenarios the paper's Section
// 7 update-rate concerns (replication priced out by writes, merge pressure)
// need to actually fire.
type WritersConfig struct {
	// Rate is the aggregate write rate in rows per virtual second.
	Rate float64
	// UpdateFraction is the fraction of writes that update an existing main
	// row (the rest insert new rows, growing the column at the next merge).
	UpdateFraction float64
	// Chooser picks the column each write targets (UniformChoice when nil).
	Chooser Chooser
	// Sockets lists the sockets the writing clients run on — each write
	// appends to the delta fragment of a uniformly chosen listed socket.
	// Empty means all sockets. Pinning writers (e.g. Sockets: []int{0})
	// concentrates the delta on one memory controller, the layout where
	// delta growth degrades scans of a same-socket column most directly.
	Sockets []int
	// Start and Stop bound the active virtual-time window; Stop <= 0 means
	// "never stop". Both default to zero (writers active from the start).
	Start, Stop float64
	// Seed drives the writers' private RNG (column, socket, row, value
	// choices) — independent of the scan clients' stream, so attaching
	// writers never perturbs a fixed-seed read workload's RNG draws.
	Seed int64
	// Tenant routes each tick's write batch through the engine's admission
	// controller (when enabled) as a short Interactive-class statement of
	// this tenant: the batch's mutations are deferred until admitted, and
	// the Interactive deadline can shed the whole batch. Empty keeps the
	// direct-apply path.
	Tenant string
}

// Writers drives the write mix as a simulation actor: each tick it plans the
// accrued number of writes into a write batch (each write lands on a
// uniformly chosen writing-client socket) and submits it, which applies the
// writes to the per-socket delta fragments of the chosen columns and issues
// one batched traffic flow per touched fragment. Register it with
// engine.Sim.AddActor.
type Writers struct {
	cfg     WritersConfig
	engine  *core.Engine
	table   *colstore.Table
	columns []*colstore.Column
	sockets []int
	rng     *rand.Rand
	carry   float64
	// onShed and onApply are the batch hooks, bound once.
	onShed  func()
	onApply func(inserts, updates int)

	// Inserts and Updates count the writes applied so far; ShedBatches
	// counts admitted-path batches dropped by load shedding (per-batch
	// latency histograms live on the controller's tenant stats).
	Inserts     uint64
	Updates     uint64
	ShedBatches uint64
}

// maxWritesPerStep bounds a writer population's rate: Rate times the
// simulator step may ask for at most this many writes per step.
const maxWritesPerStep = 1 << 20

// NewWriters creates the writer population over a placed single-part table.
// It panics on a config the writers cannot run: a Rate that is not a finite
// non-negative number or asks for more than maxWritesPerStep writes per
// step, an UpdateFraction outside [0, 1], a socket outside the machine, or a
// Start or Stop that is not finite.
func NewWriters(e *core.Engine, table *colstore.Table, cfg WritersConfig) *Writers {
	if table.NumParts() != 1 {
		panic("workload: writers need a single-part table (delta + PP is out of scope)")
	}
	switch {
	case !(cfg.Rate >= 0) || math.IsInf(cfg.Rate, 1):
		panic(fmt.Sprintf("workload: writer Rate %v is not a finite non-negative number", cfg.Rate))
	case cfg.Rate*e.Sim.StepLen() > maxWritesPerStep:
		panic(fmt.Sprintf("workload: writer Rate %v asks for %.3g writes per %gs step, more than %d",
			cfg.Rate, cfg.Rate*e.Sim.StepLen(), e.Sim.StepLen(), maxWritesPerStep))
	case !(cfg.UpdateFraction >= 0 && cfg.UpdateFraction <= 1):
		panic(fmt.Sprintf("workload: writer UpdateFraction %v is outside [0, 1]", cfg.UpdateFraction))
	case math.IsNaN(cfg.Start) || math.IsInf(cfg.Start, 0) || math.IsNaN(cfg.Stop) || math.IsInf(cfg.Stop, 0):
		panic(fmt.Sprintf("workload: writer window [%v, %v) is not finite", cfg.Start, cfg.Stop))
	}
	sockets := slices.Clone(cfg.Sockets)
	for _, s := range sockets {
		if s < 0 || s >= e.Machine.Sockets {
			panic(fmt.Sprintf("workload: writer socket %d is outside the machine's %d sockets", s, e.Machine.Sockets))
		}
	}
	if len(sockets) == 0 {
		sockets = make([]int, e.Machine.Sockets)
		for i := range sockets {
			sockets[i] = i
		}
	}
	if cfg.Chooser == nil {
		cfg.Chooser = UniformChoice{}
	}
	w := &Writers{
		cfg:     cfg,
		engine:  e,
		table:   table,
		columns: table.Parts[0].Columns,
		sockets: sockets,
		rng:     rand.New(rand.NewSource(cfg.Seed + 31)),
	}
	w.onShed, w.onApply = w.shed, w.applied
	return w
}

// Tick implements sim.Actor: plan this step's writes into one batch and
// submit it — through the admission controller when the config names a
// Tenant and the engine has one.
func (w *Writers) Tick(now float64) {
	if w.cfg.Rate <= 0 || now < w.cfg.Start || (w.cfg.Stop > 0 && now >= w.cfg.Stop) {
		return
	}
	w.carry += w.cfg.Rate * w.engine.Sim.StepLen()
	n := int(w.carry)
	if n == 0 {
		return
	}
	w.carry -= float64(n)
	// Every RNG draw happens here, at tick time, so the admitted path
	// consumes the identical random stream as direct apply.
	b := w.engine.WriteBatch(w.columns)
	for i := 0; i < n; i++ {
		c := w.cfg.Chooser.Pick(w.rng, len(w.columns))
		col := w.columns[c]
		socket := w.sockets[w.rng.Intn(len(w.sockets))]
		domain := col.Domain
		if domain <= 0 {
			domain = int64(col.NumDistinct())
			if domain <= 0 {
				domain = 1
			}
		}
		v := w.rng.Int63n(domain)
		if w.rng.Float64() < w.cfg.UpdateFraction {
			b.Update(c, socket, w.rng.Intn(col.Rows), v)
		} else {
			b.Insert(c, socket, v)
		}
	}
	b.OnApply = w.onApply
	if w.cfg.Tenant != "" {
		b.Tenant, b.OnShed = w.cfg.Tenant, w.onShed
	}
	w.engine.SubmitWrite(b)
}

// applied counts a batch's applied writes.
func (w *Writers) applied(inserts, updates int) {
	w.Inserts += uint64(inserts)
	w.Updates += uint64(updates)
}

// shed counts a batch dropped by load shedding.
func (w *Writers) shed() { w.ShedBatches++ }
