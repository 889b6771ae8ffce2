package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/topology"
)

// planOutputRef is the slot-by-slot output.plan: every one of the machine's
// output slots is sized, resolved to its producing region by a cursor, and
// coalesced with the previous non-empty slot. It is the oracle the
// per-region walk is checked against.
func planOutputRef(p *Pipeline, regions []Region, parallel bool, project [][]*colstore.Column, disableCoalesce bool) []outTask {
	env := p.Env
	total := 0
	for _, reg := range regions {
		total += reg.Matches
	}
	if total == 0 {
		return nil
	}
	nRegions := env.Machine.TotalThreads()
	if !parallel {
		nRegions = 1
	}
	var parts []outPart
	ri := 0
	consumed := 0
	for i := 0; i < nRegions; i++ {
		lo := total * i / nRegions
		hi := total * (i + 1) / nRegions
		m := hi - lo
		if m == 0 {
			continue
		}
		for ri < len(regions)-1 && consumed+regions[ri].Matches <= lo {
			consumed += regions[ri].Matches
			ri++
		}
		reg := &regions[ri]
		if n := len(parts); !disableCoalesce && n > 0 &&
			parts[n-1].socket == reg.Socket && parts[n-1].col == reg.Col {
			parts[n-1].matches += m
			parts[n-1].weight++
		} else {
			parts = append(parts, outPart{col: reg.Col, part: reg.Part, socket: reg.Socket, matches: m, weight: 1})
		}
	}
	hint := p.Hint()
	if !parallel {
		hint = 1
	}
	if hint < len(parts) {
		hint = len(parts)
	}
	totalWeight := 0
	for _, p := range parts {
		totalWeight += p.weight
	}
	var tasks []outTask
	for _, p := range parts {
		targets := []*colstore.Column{p.col}
		if p.part < len(project) {
			targets = append(targets, project[p.part]...)
		}
		n := hint * p.weight / totalWeight
		if n < 1 {
			n = 1
		}
		if n > p.matches {
			n = p.matches
		}
		for _, target := range targets {
			for t := 0; t < n; t++ {
				f := p.matches * t / n
				tt := p.matches * (t + 1) / n
				if tt == f {
					continue
				}
				tasks = append(tasks, outTask{col: target, socket: p.socket, matches: tt - f})
			}
		}
	}
	return tasks
}

// TestPlanOutputMatchesSlotWalk: on random region sets — zero-match
// regions, fewer matches than output slots, a single region, runs of
// same-socket regions, projections — the per-region output.plan emits
// exactly the slot walk's tasks, with and without parallelism and with
// coalescing on and off, on machines of 120 and 640 hardware contexts.
func TestPlanOutputMatchesSlotWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	machines := []*topology.Machine{topology.FourSocketIvyBridge(), topology.ThirtyTwoSocketIvyBridge()}
	a := colstore.NewSynthetic("A", 1000, 1<<10, false)
	b := colstore.NewSynthetic("B", 1000, 1<<10, false)
	proj := colstore.NewSynthetic("P", 1000, 1<<10, false)
	parts := []*colstore.Part{
		{Columns: []*colstore.Column{a, proj}},
		{Columns: []*colstore.Column{b}},
	}
	small, fewer := 0, 0
	for c := 0; c < 20000; c++ {
		m := machines[rng.Intn(len(machines))]
		hint := 1 + rng.Intn(2*m.TotalThreads())
		env := &Env{Machine: m, ConcurrencyHint: func() int { return hint }}
		p := &Pipeline{Env: env}
		if rng.Intn(4) == 0 {
			p.MaxFanout = 1 + rng.Intn(16)
		}
		regions := make([]Region, 1+rng.Intn(12))
		if rng.Intn(4) == 0 {
			regions = regions[:1]
		}
		scale := []int{1, 3, 40, 1000, 100000}[rng.Intn(5)]
		total := 0
		for i := range regions {
			pi := rng.Intn(len(parts))
			regions[i] = Region{
				Col: parts[pi].Columns[0], Part: pi,
				Socket: rng.Intn(3), Matches: rng.Intn(scale + 1),
			}
			if rng.Intn(4) == 0 {
				regions[i].Matches = 0
			}
			total += regions[i].Matches
		}
		if len(regions) == 1 {
			small++
		}
		if total > 0 && total < m.TotalThreads() {
			fewer++
		}
		// Part 0 projects P; part 1 has no projected column.
		var project [][]*colstore.Column
		if rng.Intn(3) == 0 {
			project = [][]*colstore.Column{{proj}, nil}
		}
		parallel := rng.Intn(4) != 0
		disable := rng.Intn(4) == 0
		want := planOutputRef(p, regions, parallel, project, disable)
		got := new(output).plan(p, regions, parallel, project, disable)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (threads %d, hint %d, parallel %v, disableCoalesce %v, regions %+v):\ngot  %v\nwant %v",
				c, m.TotalThreads(), p.Hint(), parallel, disable, regions, got, want)
		}
	}
	if small < 1000 || fewer < 1000 {
		t.Fatalf("coverage: %d single-region and %d fewer-matches-than-slots cases", small, fewer)
	}
}
