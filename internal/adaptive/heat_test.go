package adaptive

// Tests for the placer's heat accounting: per-column traffic records that
// the engine feeds only while a placer is attached.

import (
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/exec"
	"numacs/internal/metrics"
	"numacs/internal/topology"
	"numacs/internal/workload"
)

// TestItemTrafficKeyedByColumn: heat belongs to a column, not to its name,
// and only to a catalogued one. Two placed tables each have a column C0; the
// placer catalogs one of them and clients scan only the other, so the
// placer's own C0 must stay cold and the scanned C0 must have no record.
func TestItemTrafficKeyedByColumn(t *testing.T) {
	e := core.New(topology.FourSocketIvyBridge(), 1)
	managed := colstore.NewTable("MANAGED", []*colstore.Column{colstore.NewSynthetic("C0", 20_000, 1<<12, false)})
	other := colstore.NewTable("OTHER", []*colstore.Column{colstore.NewSynthetic("C0", 20_000, 1<<12, false)})
	e.Placer.PlaceRR(managed)
	e.Placer.PlaceRR(other)
	p := New(e, &Catalog{Tables: []*colstore.Table{managed}}, DefaultConfig())
	done := 0
	for i := 0; i < 8; i++ {
		e.Submit(&core.Query{
			Table: other, Column: "C0", Selectivity: 0.01, Parallel: true,
			Strategy: core.Bound, HomeSocket: i % 4, OnDone: func(float64) { done++ },
		})
	}
	e.Sim.Run(0.05)
	if done != 8 {
		t.Fatalf("%d of 8 scans done", done)
	}
	if it := p.heat[other.Parts[0].Columns[0]]; it != nil {
		t.Fatalf("the uncatalogued C0 has a heat record: %+v", it.Traffic)
	}
	if it := p.heatOf(managed.Parts[0].Columns[0]); it.Bytes != 0 {
		t.Fatalf("the catalog's C0 took the other table's heat: %+v", it.Traffic)
	}
}

// TestItemTrafficIsPassive: an engine builds traffic samples only for an
// attached hook, attaches at most one, and a recording hook changes nothing
// the run measures.
func TestItemTrafficIsPassive(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	if core.New(m, 1).ExecEnv().AddItemTraffic != nil {
		t.Fatal("a fresh engine has an item-traffic hook")
	}
	t.Run("second attach panics", func(t *testing.T) {
		e := core.New(m, 1)
		New(e, &Catalog{}, DefaultConfig())
		defer func() {
			if recover() == nil {
				t.Fatal("a second attach did not panic")
			}
		}()
		e.AttachItemTraffic(func(*colstore.Column, int, exec.Traffic) {})
	})

	run := func(record bool) (string, int) {
		e := core.New(m, 1)
		tbl := workload.Generate(workload.DatasetConfig{
			Rows: 20_000, Columns: 4, BitcaseMin: 10, BitcaseMax: 13, Seed: 1, Synthetic: true,
		})
		e.Placer.PlaceRR(tbl)
		samples := 0
		if record {
			e.AttachItemTraffic(func(*colstore.Column, int, exec.Traffic) { samples++ })
		}
		workload.NewClients(e, tbl, workload.ClientsConfig{
			N: 16, Selectivity: 0.001, Parallel: true, Strategy: core.Bound,
			Chooser: workload.UniformChoice{}, Seed: 2,
		}).Start()
		e.Sim.AddActor(workload.NewWriters(e, tbl, workload.WritersConfig{
			Rate: 50_000, UpdateFraction: 0.5, Chooser: workload.UniformChoice{}, Seed: 3,
		}))
		e.Sim.Run(0.03)
		return metrics.Fingerprint(e.Counters), samples
	}
	plain, _ := run(false)
	recorded, samples := run(true)
	if samples == 0 {
		t.Fatal("the recording hook saw no traffic")
	}
	if recorded != plain {
		t.Fatalf("a recording hook changed the run:\nwithout:\n%s\nwith:\n%s", plain, recorded)
	}
}

// TestItemTrafficAllocs: once a column has its record, attributing traffic
// to it and starting a new period allocate nothing.
func TestItemTrafficAllocs(t *testing.T) {
	e := core.New(topology.FourSocketIvyBridge(), 1)
	tbl := workload.Generate(workload.DatasetConfig{
		Rows: 1000, Columns: 2, BitcaseMin: 8, BitcaseMax: 10, Seed: 1, Synthetic: true,
	})
	p := New(e, &Catalog{Tables: []*colstore.Table{tbl}}, DefaultConfig())
	col := tbl.Parts[0].Columns[0]
	sample := exec.Traffic{Bytes: 64, IVBytes: 64}
	p.addTraffic(col, 1, sample)
	p.resetHeat()
	if it := p.heatOf(col); it.Traffic != (exec.Traffic{}) || it.PerSocket[1] != 0 {
		t.Fatalf("reset left traffic: %+v", it)
	}
	if n := testing.AllocsPerRun(100, func() {
		p.addTraffic(col, 1, sample)
		p.addTraffic(col, -1, sample)
		p.resetHeat()
	}); n != 0 {
		t.Fatalf("%v allocations per sample and reset, want 0", n)
	}
}
