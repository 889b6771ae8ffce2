package plan

import (
	"testing"

	"numacs/internal/exec"
)

// BenchmarkPlanLower measures the full per-statement planner cost —
// Build -> Optimize -> Lower — alternating the plain-scan and two-dimension
// star shapes. It reports ns/row where a "row" is one planned-and-lowered
// statement, putting the planner on the same benchdiff regression gate as the
// chunk kernels: Submit pays this cost on every statement, so a planner
// slowdown is a hot-path regression.
func BenchmarkPlanLower(b *testing.B) {
	hot, dim1, dim2, fact := testSchema()
	stats := Collect(hot, dim1, dim2, fact)
	costs := exec.DefaultCosts()
	plain := Statement{Table: hot, Column: "H_VAL", Selectivity: 1e-5, Parallel: true}
	star, dims := star2(dim1, dim2, fact)
	deps := Deps{}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			// The Submit hot path plans without stats.
			Optimize(BuildQuery(plain), nil, &costs).Lower(deps)
		} else {
			Optimize(BuildStar(star, dims...), stats, &costs).Lower(deps)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}
