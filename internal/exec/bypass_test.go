package exec

// The bypass guarantee at the operator level: a one-member cohort pass is a
// private scan. SharedScanOp and ScanOp share the fan-out, the match model
// and the task runner, so twin Envs running either one must agree on every
// counter, on the regions, and on the RNG state they leave behind.

import (
	"math/rand"
	"reflect"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/delta"
	"numacs/internal/metrics"
	"numacs/internal/placement"
	"numacs/internal/sim"
)

// drainPipeline runs op alone in a Bound pipeline until its barrier clears.
func drainPipeline(t *testing.T, env *Env, op Operator) {
	t.Helper()
	done := false
	p := &Pipeline{Env: env, Strategy: Bound, Ops: []Operator{op}, OnDone: func(float64) { done = true }}
	p.Start()
	for i := 0; i < 200_000 && !done; i++ {
		env.Sim.Step()
	}
	if !done {
		t.Fatal("pipeline never drained")
	}
}

// TestSingleMemberPassEqualsPrivateScan: over a round-robin table, an
// IVP-partitioned column, a replicated column beside a loaded memory
// controller, and a column with delta rows, a one-member SharedScanOp and the
// equivalent parallel ScanOp give the same counter fingerprint, regions, item
// traffic and next Env.Rand draw.
func TestSingleMemberPassEqualsPrivateScan(t *testing.T) {
	cases := []struct {
		name string
		sel  float64
		// setup builds and places the scanned table on env's machine and
		// returns it with the scanned column's name.
		setup func(env *Env) (*colstore.Table, string)
	}{
		{"RR", 1e-3, func(env *Env) (*colstore.Table, string) {
			tbl := colstore.NewTable("T", []*colstore.Column{
				colstore.NewSynthetic("A", 30_000, 1<<12, false),
				colstore.NewSynthetic("B", 30_000, 1<<14, false),
			})
			placement.New(env.Machine).PlaceRR(tbl)
			return tbl, "B"
		}},
		{"IVP4", 0.05, func(env *Env) (*colstore.Table, string) {
			col := colstore.NewSynthetic("C", 40_000, 1<<13, false)
			placement.New(env.Machine).PlaceIVP(col, []int{0, 1, 2, 3})
			return colstore.NewTable("T", []*colstore.Column{col}), "C"
		}},
		{"replicated, loaded MC", 0.01, func(env *Env) (*colstore.Table, string) {
			col := colstore.NewSynthetic("R", 40_000, 1<<12, false)
			placement.New(env.Machine).PlaceReplicated(col, []int{0, 2})
			// A stream that never ends keeps socket 0's controller busy, so
			// the replica slices are weighted by load.
			env.Sim.StartFlow(&sim.Flow{Remaining: 1e18, RateCap: 4e9,
				Demands: []sim.Demand{{Resource: env.HW.MC[0], Weight: 1}}})
			env.Sim.Step()
			if env.MCLoad()[0] == 0 {
				t.Fatal("background stream left socket 0's controller idle")
			}
			return colstore.NewTable("T", []*colstore.Column{col}), "R"
		}},
		{"delta rows", 0.01, func(env *Env) (*colstore.Table, string) {
			col := colstore.NewSynthetic("D", 20_000, 1<<12, false)
			placement.New(env.Machine).PlaceIVP(col, []int{0, 1})
			col.Delta = delta.New(env.Machine.Sockets, true)
			for s := 0; s < 3; s++ {
				for i := 0; i < 500*(s+1); i++ {
					col.Delta.Insert(s, 0)
				}
			}
			return colstore.NewTable("T", []*colstore.Column{col}), "D"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type result struct {
				fingerprint string
				regions     []Region
				items       map[string]Traffic
				next        float64
			}
			run := func(shared bool) result {
				env := testEnv()
				env.Rand = rand.New(rand.NewSource(7))
				items := map[string]Traffic{}
				env.AddItemTraffic = func(col *colstore.Column, _ int, tr Traffic) {
					cur := items[col.Name]
					cur.Bytes += tr.Bytes
					cur.IVBytes += tr.IVBytes
					cur.DeltaBytes += tr.DeltaBytes
					items[col.Name] = cur
				}
				tbl, column := tc.setup(env)
				cols := ResolveColumns(tbl, column)
				var regions []Region
				if shared {
					op := &SharedScanOp{Column: cols[0], Selectivities: []float64{tc.sel}}
					drainPipeline(t, env, op)
					regions = op.MemberRegions(0)
				} else {
					op := &ScanOp{Table: tbl, Selectivity: tc.sel, Parallel: true, Cols: cols}
					drainPipeline(t, env, op)
					regions = op.Regions()
				}
				return result{metrics.Fingerprint(env.Counters), regions, items, env.Rand.Float64()}
			}
			private, pass := run(false), run(true)
			if private.fingerprint != pass.fingerprint {
				t.Fatalf("counters differ:\n--- private ---\n%s--- pass ---\n%s", private.fingerprint, pass.fingerprint)
			}
			if !reflect.DeepEqual(private.regions, pass.regions) {
				t.Fatalf("regions differ:\nprivate %+v\npass    %+v", private.regions, pass.regions)
			}
			if !reflect.DeepEqual(private.items, pass.items) {
				t.Fatalf("item traffic differs:\nprivate %v\npass    %v", private.items, pass.items)
			}
			if private.next != pass.next {
				t.Fatalf("next RNG draw differs: private %v, pass %v", private.next, pass.next)
			}
			if got := private.items["D"].DeltaBytes; (tc.name == "delta rows") != (got > 0) {
				t.Fatalf("delta bytes %v: the delta union did not run as the case intends", got)
			}
		})
	}
}
