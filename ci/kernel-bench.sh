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

# The planner rides the same gate: Submit plans each statement shape, and
# replans it when its statistics change, so a Build->Optimize->Lower slowdown
# is a hot-path regression like any kernel.
go test -bench '^BenchmarkPlanLower$' -benchtime=0.2s -count=3 -run '^$' ./internal/plan

# The statement path rides the gate as well: the PSM lookup every scan task
# makes (one call over one partition of a 100k-row column per "row"), and
# the per-statement find and output planning (one ScanOp.Open +
# MaterializeOp.Open per "row").
go test -bench '^BenchmarkSocketBytes$' -benchtime=0.2s -count=3 -run '^$' ./internal/psm
go test -bench '^BenchmarkScanOpen$' -benchtime=0.2s -count=3 -run '^$' ./internal/exec

# And the whole statement path: one plain statement submitted and stepped to
# completion on an idle engine per "row" (the statement core's allocation pin
# runs), with its allocations per statement alongside. Its Query is built
# inside the timed loop, as a caller builds one per statement, so the
# allocs/op it prints reads 0 only while the engine keeps no reference to a
# caller's Query (TestCallerBuiltQueryAllocs pins that count).
go test -bench '^BenchmarkSubmit$' -benchtime=0.2s -count=3 -run '^$' ./internal/core

# The star statement path too: one single-dimension star join built,
# submitted and stepped to completion on a warm idle engine per "row" (the
# star of the Query.Plan allocation pin, planned and given operators once
# per shape and statistics), with its allocations per statement alongside.
go test -bench '^BenchmarkStarSubmit$' -benchtime=0.2s -count=3 -run '^$' ./internal/core

# The shared statement path too: one cohort pass per "row", shaped like
# shared-star's cohorts (14 members, four of them attached mid-flight and
# finished by a wrap pass), with its allocations per pass alongside.
go test -bench '^BenchmarkCohortPass$' -benchtime=0.2s -count=3 -run '^$' ./internal/core

# The admitted and write paths too, shaped like rw-burst at seed 1: one plain
# statement through an admission controller that admits it at once (no
# rw-burst statement waited in a queue) per "row", and one admitted write
# batch of 13 writes over 11 (column, socket) fragments (12.5 writes and
# 11.1 fragments per batch measured) per "row", with allocations alongside.
go test -bench '^(BenchmarkAdmittedSubmit|BenchmarkWriteBatch)$' -benchtime=0.2s -count=3 -run '^$' ./internal/core

# The simulator's step rides the gate too: its max-min allocation dominates
# the host cost of a simulated second. One "row" is one Step, on a 4-socket
# IvyBridge with the 139 active flows the benchmark's mat-skew keeps, in its
# measured mix, and on the 32-socket IvyBridge with the same mix at 256.
go test -bench '^BenchmarkSimStep$' -benchtime=0.2s -count=3 -run '^$' ./internal/sim

# And the scheduler's dispatch: pushes and pops on the keyed run-queue heaps
# (each entry carries its task's (Priority, seq) keys, and a sift moves a
# hole) and worker bookkeeping. One "row" is one dispatch round on the
# 4-socket IvyBridge, in the steady state measured at every Tick of mat-skew
# at seed 1: refill the queues to 118 tasks with affinities even over the
# sockets, one Tick that starts 84 of them on the free workers and leaves
# mat-skew's backlog of 34, and the finishes that leave 36 workers busy.
go test -bench '^BenchmarkSchedTick$' -benchtime=0.2s -count=3 -run '^$' ./internal/sched

# And the latency store every completed statement records into: one
# metrics.Histogram.Record per "row", with 328 distinct values (the closed-loop
# latencies of one second of the benchmark's shared-star) and with every value
# distinct (rw-burst's latencies, timed from an off-grid due time).
go test -bench '^BenchmarkHistogramRecord$' -benchtime=0.2s -count=3 -run '^$' ./internal/metrics
