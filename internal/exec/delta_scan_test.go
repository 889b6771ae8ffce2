package exec

// Tests for the delta-union side of the find phase: scans of a written
// column plan extra per-fragment tasks, attribute their traffic as delta
// bytes, and contribute analytic matches — while an unwritten column's plan
// is untouched.

import (
	"math/rand"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/delta"
	"numacs/internal/placement"
)

// deltaScanSetup builds a placed 2-column synthetic table and an Env wired
// with item-traffic accounting.
func deltaScanSetup(t *testing.T) (*Env, *colstore.Table, map[string]Traffic) {
	t.Helper()
	env := testEnv()
	p := placement.New(env.Machine)
	tbl := colstore.NewTable("TBL", []*colstore.Column{
		colstore.NewSynthetic("COL000", 20_000, 1<<12, false),
		colstore.NewSynthetic("COL001", 20_000, 1<<13, false),
	})
	p.PlaceRR(tbl)
	env.Rand = rand.New(rand.NewSource(1))
	traffic := map[string]Traffic{}
	env.AddItemTraffic = func(col *colstore.Column, _ int, tr Traffic) {
		cur := traffic[col.Name]
		cur.Bytes += tr.Bytes
		cur.IVBytes += tr.IVBytes
		cur.DictBytes += tr.DictBytes
		cur.DeltaBytes += tr.DeltaBytes
		cur.WriteBytes += tr.WriteBytes
		traffic[col.Name] = cur
	}
	return env, tbl, traffic
}

func runScanPipeline(env *Env, tbl *colstore.Table, column string) *ScanOp {
	scan := &ScanOp{Table: tbl, Selectivity: 0.01, Parallel: true,
		Cols: ResolveColumns(tbl, column)}
	done := false
	p := &Pipeline{Env: env, Strategy: Bound, HomeSocket: 0, Ops: []Operator{scan},
		OnDone: func(float64) { done = true }}
	p.Start()
	for i := 0; i < 200_000 && !done; i++ {
		env.Sim.Step()
	}
	if !done {
		panic("exec test: scan pipeline never drained")
	}
	return scan
}

// TestScanUnionsVisibleDelta: a written column's find phase must include one
// task per non-empty fragment, add the analytic delta matches to the
// regions, and attribute the streamed bytes as delta traffic on the
// fragment's socket.
func TestScanUnionsVisibleDelta(t *testing.T) {
	env, tbl, traffic := deltaScanSetup(t)
	col := tbl.Parts[0].Columns[0]
	col.Delta = delta.New(env.Machine.Sockets, true)
	const perFrag = 1000
	for s := 0; s < 3; s++ { // three non-empty fragments, one empty
		for i := 0; i < perFrag; i++ {
			col.Delta.Insert(s, 0)
		}
	}

	scan := runScanPipeline(env, tbl, col.Name)

	mainMatches, deltaMatches := 0, 0
	deltaRegions := 0
	for _, r := range scan.Regions() {
		if r.Col != col {
			t.Fatalf("region for unexpected column %s", r.Col.Name)
		}
		if r.Part != 0 {
			t.Fatal("region lost its part")
		}
		if r.Socket >= 0 && r.Socket < 3 && r.Matches == perFrag/100 {
			deltaRegions++
			deltaMatches += r.Matches
		} else {
			mainMatches += r.Matches
		}
	}
	if deltaRegions != 3 {
		t.Fatalf("expected 3 delta regions (one per non-empty fragment), classified %d; regions: %+v",
			deltaRegions, scan.Regions())
	}
	if deltaMatches != 3*perFrag/100 {
		t.Fatalf("delta matches %d, want %d (selectivity x visible rows, no jitter)", deltaMatches, 3*perFrag/100)
	}
	if mainMatches == 0 {
		t.Fatal("main scan contributed no matches")
	}
	it := traffic[col.Name]
	wantDelta := float64(3*perFrag) * delta.RowBytes
	if it.DeltaBytes < wantDelta*0.99 || it.DeltaBytes > wantDelta*1.01 {
		t.Fatalf("delta bytes %.0f, want ~%.0f", it.DeltaBytes, wantDelta)
	}
	if it.IVBytes <= 0 {
		t.Fatal("main IV bytes not attributed")
	}
}

// TestUnwrittenColumnPlansNoDeltaTasks: a nil Delta (never written) must
// leave the plan untouched — same regions, no delta traffic — so read-only
// workloads execute exactly as before the write path existed.
func TestUnwrittenColumnPlansNoDeltaTasks(t *testing.T) {
	env, tbl, traffic := deltaScanSetup(t)
	col := tbl.Parts[0].Columns[1]

	scan := runScanPipeline(env, tbl, col.Name)

	for _, r := range scan.Regions() {
		if r.Matches == 0 {
			t.Fatal("empty region planned for an unwritten column")
		}
	}
	if it := traffic[col.Name]; it.DeltaBytes != 0 || it.WriteBytes != 0 {
		t.Fatalf("unwritten column attributed delta/write traffic: %+v", it)
	}
}
