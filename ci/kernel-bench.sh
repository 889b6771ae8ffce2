#!/usr/bin/env bash
# Kernel microbenchmark suite for the perf-regression gate. The bench job
# (baseline recording) and the perf-gate job (current measurement) both run
# this script, so the two sides of cmd/benchdiff always come from the same
# invocation: same benchmark set, same -benchtime, same repeat count (the
# diff takes the per-benchmark minimum over the repeats). Add a benchmark
# here — it must b.ReportMetric(..., "ns/row") — and it is gated on both
# sides automatically.
set -euo pipefail

go test -bench '^(BenchmarkScanPositions|BenchmarkCountRange|BenchmarkMaterialize|BenchmarkSharedPred)$' \
  -benchtime=0.2s -count=3 -run '^$' ./internal/colstore

# The planner rides the same gate: Submit plans every statement, so a
# Build->Optimize->Lower slowdown is a hot-path regression like any kernel.
go test -bench '^BenchmarkPlanLower$' -benchtime=0.2s -count=3 -run '^$' ./internal/plan

# The statement path rides the gate as well: the PSM lookup every scan task
# makes (one call over one partition of a 100k-row column per "row"), and
# the per-statement find and output planning (one ScanOp.Open +
# MaterializeOp.Open per "row").
go test -bench '^BenchmarkSocketBytes$' -benchtime=0.2s -count=3 -run '^$' ./internal/psm
go test -bench '^BenchmarkScanOpen$' -benchtime=0.2s -count=3 -run '^$' ./internal/exec
