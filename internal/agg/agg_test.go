package agg

import (
	"testing"

	"numacs/internal/core"
	"numacs/internal/topology"
)

func TestQ1TableShape(t *testing.T) {
	tbl := Q1Table(Q1Config{Rows: 10000, Seed: 1})
	if tbl.Rows != 10000 {
		t.Fatalf("rows = %d", tbl.Rows)
	}
	names := tbl.ColumnNames()
	if len(names) != 7 || names[0] != "L_SHIPDATE" || names[2] != "L_EXTENDEDPRICE" {
		t.Fatalf("names = %v", names)
	}
}

func TestBWEMLCubes(t *testing.T) {
	cubes := BWEMLCubes(BWEMLConfig{RowsPerCube: 5000, Seed: 1})
	if len(cubes) != 3 {
		t.Fatalf("cubes = %d, want 3", len(cubes))
	}
	for i, c := range cubes {
		if c.Rows != 5000 {
			t.Fatalf("cube %d rows = %d", i, c.Rows)
		}
		if c.Name == "" {
			t.Fatal("cube unnamed")
		}
	}
}

func TestQ1ClientsRun(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := core.New(m, 1)
	tbl := Q1Table(Q1Config{Rows: 50000, Seed: 1})
	pp := e.Placer.PlacePP(tbl, 4)
	c := NewQ1Clients(e, pp, 8, core.Target, 7)
	c.Start()
	e.Sim.Run(0.2)
	if e.Counters.QueriesDone == 0 {
		t.Fatal("no Q1 instances completed")
	}
	// Q1 is aggregation-heavy: compute instructions should dwarf the scan's.
	if e.Counters.IPC() <= 0 {
		t.Fatal("no compute recorded")
	}
}

func TestBWEMLClientsSpreadOverCubes(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := core.New(m, 1)
	cubes := BWEMLCubes(BWEMLConfig{RowsPerCube: 30000, Seed: 1})
	for i, cube := range cubes {
		e.Placer.PlaceTableOnSocket(cube, i%m.Sockets)
	}
	c := NewBWEMLClients(e, cubes, 12, core.Bound, 7)
	c.Start()
	e.Sim.Run(0.2)
	if e.Counters.QueriesDone == 0 {
		t.Fatal("no BW-EML steps completed")
	}
	// The three cubes sit on sockets 0..2; all three must serve traffic.
	for s := 0; s < 3; s++ {
		if e.Counters.MCBytes[s] == 0 {
			t.Fatalf("cube socket %d served no bytes", s)
		}
	}
}

// Q1 must be more CPU-intensive per byte than BW-EML — that asymmetry drives
// the paper's Figure 19 conclusions.
func TestQ1MoreCPUIntensiveThanBWEML(t *testing.T) {
	if Q1CyclesPerRow/Q1BytesPerRow <= BWEMLCyclesPerRow/BWEMLBytesPerRow {
		t.Fatal("Q1 should burn more cycles per byte than BW-EML")
	}
}

func TestAggClientsClosedLoop(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	e := core.New(m, 1)
	tbl := Q1Table(Q1Config{Rows: 20000, Seed: 1})
	e.Placer.PlaceTableOnSocket(tbl, 0)
	c := NewQ1Clients(e, tbl, 4, core.Bound, 7)
	c.Start()
	e.Sim.Run(0.1)
	inFlight := int(c.Issued) - int(e.Counters.QueriesDone)
	if inFlight != 4 {
		t.Fatalf("in-flight = %d, want 4", inFlight)
	}
}
