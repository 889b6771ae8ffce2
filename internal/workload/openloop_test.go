package workload

import (
	"testing"

	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/topology"
)

// mtEngine builds a placed engine + table for generator tests.
func mtEngine(t *testing.T) (*core.Engine, *colstore.Table) {
	t.Helper()
	m := topology.FourSocketIvyBridge()
	e := core.NewWithStep(m, 1, 25e-6)
	tbl := Generate(DatasetConfig{Rows: 20_000, Columns: 8, BitcaseMin: 10, BitcaseMax: 13, Seed: 1, Synthetic: true})
	e.Placer.PlaceRR(tbl)
	return e, tbl
}

// TestOpenLoopRate: open-loop arrivals track the configured rate regardless
// of completions.
func TestOpenLoopRate(t *testing.T) {
	e, tbl := mtEngine(t)
	g := NewMultiTenant(e, tbl, MultiTenantConfig{
		Tenants: []TenantLoad{{
			Name: "ol", Rate: 50_000, Selectivity: 1e-5, Parallel: true, Strategy: core.Bound,
		}},
		Seed: 1,
	})
	e.Sim.AddActor(g)
	g.Start()
	e.Sim.Run(0.02)
	got := g.Stats()[0].Issued
	want := uint64(50_000 * 0.02)
	if got < want-2 || got > want+2 {
		t.Fatalf("issued %d, want ~%d (rate x horizon)", got, want)
	}
	if g.Stats()[0].Completed == 0 || g.Stats()[0].Lat.N() == 0 {
		t.Fatal("no completions/latency samples recorded")
	}
}

// TestOpenLoopBurst: the burst window multiplies the arrival rate.
func TestOpenLoopBurst(t *testing.T) {
	e, tbl := mtEngine(t)
	g := NewMultiTenant(e, tbl, MultiTenantConfig{
		Tenants: []TenantLoad{{
			Name: "bursty", Rate: 20_000, Selectivity: 1e-5, Parallel: true,
			// Bursting the second half of every 10ms at 3x: over 20ms the
			// mean rate is 2x the base.
			Burst: BurstSpec{Period: 10e-3, Duration: 5e-3, Factor: 3, Phase: 5e-3},
		}},
		Seed: 1,
	})
	e.Sim.AddActor(g)
	g.Start()
	e.Sim.Run(0.02)
	got := g.Stats()[0].Issued
	want := uint64(2 * 20_000 * 0.02)
	if got < want*95/100 || got > want*105/100 {
		t.Fatalf("issued %d with bursts, want ~%d (2x mean rate)", got, want)
	}
}

// TestClosedLoopThinkTime: a single closed-loop client with a think time far
// above the service time issues ~horizon/think statements.
func TestClosedLoopThinkTime(t *testing.T) {
	e, tbl := mtEngine(t)
	g := NewMultiTenant(e, tbl, MultiTenantConfig{
		Tenants: []TenantLoad{{
			Name: "cl", Clients: 1, ThinkTime: 2e-3,
			Selectivity: 1e-5, Parallel: true, Strategy: core.Bound,
		}},
		Seed: 1,
	})
	e.Sim.AddActor(g)
	g.Start()
	e.Sim.Run(0.02)
	got := g.Stats()[0].Issued
	// 20ms / (2ms think + ~sub-ms service): between 5 and 10 issues.
	if got < 5 || got > 10 {
		t.Fatalf("closed-loop client issued %d, want 5..10 with a 2ms think time", got)
	}
}

// TestShedPropagatesToTenantStats: with admission enabled and an absurd
// overload against a one-statement limit, shed statements surface in the
// generator's per-tenant stats, and shed closed-loop clients rearm.
func TestShedPropagatesToTenantStats(t *testing.T) {
	e, tbl := mtEngine(t)
	e.EnableAdmission(admit.Config{
		MinConcurrent: 1, MaxConcurrent: 1, InitialConcurrent: 1,
		OLAPDeadline: 1e-4,
	})
	g := NewMultiTenant(e, tbl, MultiTenantConfig{
		Tenants: []TenantLoad{{
			Name: "ol", Rate: 200_000, Selectivity: 1e-5, Parallel: true, Strategy: core.Bound,
		}},
		Seed: 1,
	})
	e.Sim.AddActor(g)
	g.Start()
	e.Sim.Run(0.01)
	st := g.Stats()[0]
	if st.Shed == 0 {
		t.Fatal("no statements shed under 1-slot admission with a tight deadline")
	}
	if st.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if st.Shed+st.Completed > st.Issued {
		t.Fatalf("shed %d + completed %d > issued %d", st.Shed, st.Completed, st.Issued)
	}
	ctrl := e.Admit.Stats("ol")
	if ctrl.Shed != st.Shed {
		t.Fatalf("controller shed %d != generator shed %d", ctrl.Shed, st.Shed)
	}
}

// TestWritersRouteThroughAdmission: a writer tenant's batches run as
// Interactive statements — deferred until admitted, shed under a hopeless
// deadline.
func TestWritersRouteThroughAdmission(t *testing.T) {
	e, tbl := mtEngine(t)
	e.EnableAdmission(admit.Config{
		MinConcurrent: 1, MaxConcurrent: 1, InitialConcurrent: 1,
		InteractiveDeadline: 1e-9, // hopeless: everything queued sheds
	})
	// Occupy the only slot forever so every write batch queues, expires, and
	// sheds before applying.
	e.Admit.Submit(&admit.Statement{Tenant: "blocker",
		Run: func(gran int, at float64) {}})
	w := NewWriters(e, tbl, WritersConfig{
		Rate: 50_000, Tenant: "writer", Seed: 3,
	})
	e.Sim.AddActor(w)
	e.Sim.Run(0.01)
	if w.Inserts+w.Updates != 0 {
		t.Fatalf("%d writes applied despite shedding every batch", w.Inserts+w.Updates)
	}
	if w.ShedBatches == 0 {
		t.Fatal("no batches shed")
	}
	if tbl.Parts[0].Columns[0].Delta != nil && tbl.Parts[0].Columns[0].Delta.Rows() != 0 {
		t.Fatal("delta grew despite shed batches")
	}
}
