package harness

import (
	"os"
	"path/filepath"
	"testing"
)

// TestPlanGoldens pins every experiment's EXPLAIN rendering (the text
// `scanbench -explain <id>` prints) to its committed golden under
// testdata/plans/. A failure here means a planner change moved an optimized
// plan; regenerate deliberately with
//
//	go run ./cmd/scanbench -explain <id> > testdata/plans/<id>.txt
//
// and review the diff like any other behavior change.
func TestPlanGoldens(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "plans")
	checked := 0
	for _, id := range IDs() {
		e, _ := ByID(id)
		if e.Explain == nil {
			continue
		}
		checked++
		want, err := os.ReadFile(filepath.Join(dir, id+".txt"))
		if err != nil {
			t.Errorf("%s: missing golden (regenerate with scanbench -explain %s): %v", id, id, err)
			continue
		}
		if got := e.Explain(); got != string(want) {
			t.Errorf("%s: EXPLAIN drifted from testdata/plans/%s.txt\n--- got ---\n%s--- want ---\n%s",
				id, id, got, want)
		}
	}
	if checked < 2 {
		t.Fatalf("only %d experiments expose Explain; expected planner and starjoin at least", checked)
	}
}
