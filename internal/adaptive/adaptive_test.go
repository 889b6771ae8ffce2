package adaptive

import (
	"math/rand"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/topology"
	"numacs/internal/workload"
)

func skewedSetup(t *testing.T, adapt bool) (*core.Engine, *Placer) {
	t.Helper()
	m := topology.FourSocketIvyBridge()
	e := core.New(m, 1)
	tbl := workload.Generate(workload.DatasetConfig{
		Rows: 60000, Columns: 16, BitcaseMin: 12, BitcaseMax: 18, Seed: 1, Synthetic: true,
	})
	e.Placer.PlaceRRBlocks(tbl) // hot half of columns on sockets 2 and 3
	var p *Placer
	if adapt {
		cfg := DefaultConfig()
		cfg.Period = 5e-3
		p = New(e, &Catalog{Tables: []*colstore.Table{tbl}}, cfg)
		e.Sim.AddActor(p)
	}
	clients := workload.NewClients(e, tbl, workload.ClientsConfig{
		N: 256, Selectivity: 0.00001, Parallel: true, Strategy: core.Bound,
		Chooser: workload.SkewedChoice{HotProb: 0.8}, Seed: 2,
	})
	clients.Start()
	return e, p
}

func imbalance(mc []float64) float64 {
	min, max := mc[0], mc[0]
	for _, v := range mc {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == 0 {
		min = 1
	}
	return max / min
}

func TestPlacerBalancesSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window placer simulation")
	}
	static, _ := skewedSetup(t, false)
	static.Sim.Run(0.15)
	staticRatio := imbalance(static.Counters.MCBytes)
	staticTP := static.Counters.QueriesDone

	adaptEng, placer := skewedSetup(t, true)
	adaptEng.Sim.Run(0.15)
	// Measure the balance of the final window only.
	adaptEng.Counters.Reset()
	adaptEng.Sim.Run(0.25)
	adaptRatio := imbalance(adaptEng.Counters.MCBytes)

	if len(placer.Actions) == 0 {
		t.Fatal("placer took no actions on a skewed workload")
	}
	if adaptRatio >= staticRatio {
		t.Fatalf("placer did not improve balance: static %.2f, adaptive %.2f", staticRatio, adaptRatio)
	}
	if adaptRatio > 2.0 {
		t.Fatalf("adaptive imbalance still %.2f", adaptRatio)
	}
	_ = staticTP
}

func TestPlacerImprovesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window placer simulation")
	}
	static, _ := skewedSetup(t, false)
	static.Sim.Run(0.2)
	static.Counters.Reset()
	static.Sim.Run(0.35)
	staticTP := static.Counters.QueriesDone

	adaptEng, _ := skewedSetup(t, true)
	adaptEng.Sim.Run(0.2)
	adaptEng.Counters.Reset()
	adaptEng.Sim.Run(0.35)
	adaptTP := adaptEng.Counters.QueriesDone

	if float64(adaptTP) < float64(staticTP)*1.1 {
		t.Fatalf("adaptive TP %d should beat static %d by >10%%", adaptTP, staticTP)
	}
}

func TestPlacerIdleOnBalancedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window placer simulation")
	}
	m := topology.FourSocketIvyBridge()
	e := core.New(m, 1)
	tbl := workload.Generate(workload.DatasetConfig{
		Rows: 60000, Columns: 16, BitcaseMin: 12, BitcaseMax: 18, Seed: 1, Synthetic: true,
	})
	e.Placer.PlaceRR(tbl)
	cfg := DefaultConfig()
	cfg.Period = 5e-3
	p := New(e, &Catalog{Tables: []*colstore.Table{tbl}}, cfg)
	e.Sim.AddActor(p)
	clients := workload.NewClients(e, tbl, workload.ClientsConfig{
		N: 256, Selectivity: 0.00001, Parallel: true, Strategy: core.Bound, Seed: 2,
	})
	clients.Start()
	e.Sim.Run(0.2)
	for _, a := range p.Actions {
		if a.Kind != "shrink" {
			t.Fatalf("placer acted on a balanced workload: %+v", a)
		}
	}
}

func TestShrinkColdPartitionedColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window placer simulation")
	}
	m := topology.FourSocketIvyBridge()
	e := core.New(m, 1)
	tbl := workload.Generate(workload.DatasetConfig{
		Rows: 60000, Columns: 8, BitcaseMin: 12, BitcaseMax: 15, Seed: 1, Synthetic: true,
	})
	e.Placer.PlaceRR(tbl)
	// Partition one column that will stay cold.
	cold := tbl.Parts[0].Columns[0]
	e.Placer.PlaceIVP(cold, []int{0, 1, 2, 3})
	if cold.NumPartitions() != 4 {
		t.Fatal("setup failed")
	}
	cfg := DefaultConfig()
	cfg.Period = 5e-3
	p := New(e, &Catalog{Tables: []*colstore.Table{tbl}}, cfg)
	e.Sim.AddActor(p)
	// Balanced light load on the other columns only, so the partitioned
	// column stays cold and the balanced branch shrinks it.
	clients := workload.NewClients(e, tbl, workload.ClientsConfig{
		N: 64, Selectivity: 0.00001, Parallel: true, Strategy: core.Bound, Seed: 2,
		Chooser: skipFirst{},
	})
	clients.Start()
	e.Sim.Run(0.3)
	if cold.NumPartitions() >= 4 {
		t.Fatalf("cold partitioned column not shrunk: %d parts", cold.NumPartitions())
	}
	shrinks := 0
	for _, a := range p.Actions {
		if a.Kind == "shrink" {
			shrinks++
		}
	}
	if shrinks == 0 {
		t.Fatal("no shrink actions recorded")
	}
}

// skipFirst picks any column except the first.
type skipFirst struct{}

func (skipFirst) Pick(rng *rand.Rand, columns int) int {
	return 1 + rng.Intn(columns-1)
}

func TestCatalogColumns(t *testing.T) {
	tbl := workload.Generate(workload.DatasetConfig{
		Rows: 1000, Columns: 4, BitcaseMin: 8, BitcaseMax: 10, Seed: 1, Synthetic: true,
	})
	cat := &Catalog{Tables: []*colstore.Table{tbl}}
	if got := len(cat.Columns()); got != 4 {
		t.Fatalf("catalog columns = %d", got)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Period <= 0 || cfg.ImbalanceRatio <= 1 || cfg.ReplicaBudgetBytes <= 0 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
}

// oneColumn always queries the last column, making it dominate its socket.
type oneColumn struct{}

func (oneColumn) Pick(rng *rand.Rand, columns int) int { return columns - 1 }

// TestPlacerPartitionsDominatingItem forces the Figure 20 branch where the
// hottest item dominates its socket: moving it would only move the hotspot,
// so the placer must increase its partition count instead. Replication is
// disabled (budget 0) to pin the partitioning fallback; the replication
// lever has its own tests in replicate_test.go.
func TestPlacerPartitionsDominatingItem(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window placer simulation")
	}
	m := topology.FourSocketIvyBridge()
	e := core.New(m, 1)
	tbl := workload.Generate(workload.DatasetConfig{
		Rows: 60000, Columns: 8, BitcaseMin: 12, BitcaseMax: 15, Seed: 1, Synthetic: true,
	})
	e.Placer.PlaceRR(tbl)
	hot := tbl.Parts[0].Columns[7]
	cfg := DefaultConfig()
	cfg.Period = 5e-3
	cfg.ReplicaBudgetBytes = 0
	p := New(e, &Catalog{Tables: []*colstore.Table{tbl}}, cfg)
	e.Sim.AddActor(p)
	clients := workload.NewClients(e, tbl, workload.ClientsConfig{
		N: 256, Selectivity: 0.00001, Parallel: true, Strategy: core.Bound,
		Chooser: oneColumn{}, Seed: 2,
	})
	clients.Start()
	e.Sim.Run(0.3)
	partitioned := false
	for _, a := range p.Actions {
		if (a.Kind == "partition-ivp" || a.Kind == "partition-pp") && a.Column == hot.Name {
			partitioned = true
		}
	}
	if !partitioned {
		t.Fatalf("dominating column was not partitioned; actions: %+v", p.Actions)
	}
	if hot.NumPartitions() < 2 {
		t.Fatalf("hot column still has %d partition(s)", hot.NumPartitions())
	}
}
