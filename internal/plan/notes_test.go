package plan

import (
	"strings"
	"testing"

	"numacs/internal/exec"
)

// TestNotesFormattedOnlyByExplain pins the lazy EXPLAIN notes: planning a
// plain statement (the Submit path) records the pushdown decision as its
// format and raw arguments, and only rendering the plan formats it.
func TestNotesFormattedOnlyByExplain(t *testing.T) {
	hot, _, _, _ := testSchema()
	costs := exec.DefaultCosts()
	p := Optimize(BuildQuery(Statement{Table: hot, Column: "H_VAL", Selectivity: 1e-5, Parallel: true}), nil, &costs)
	if len(p.Notes) != 1 {
		t.Fatalf("plain plan has %d notes, want 1", len(p.Notes))
	}
	n := p.Notes[0]
	if n.format != "pushdown: folded %d predicate(s) into scan %s" || len(n.args) != 2 || n.args[0] != 1 || n.args[1] != "HOT" {
		t.Fatalf("note holds %q %v, want the unformatted pushdown note", n.format, n.args)
	}
	const want = "  - pushdown: folded 1 predicate(s) into scan HOT\n"
	if out := p.Explain(); !strings.HasSuffix(out, "notes:\n"+want) {
		t.Fatalf("Explain does not end with the rendered note:\n%s", out)
	}
}
