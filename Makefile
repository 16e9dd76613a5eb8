# Developer entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: test race bench bench-smoke bench-trajectory cover golden vet clean loc

test:
	go test ./...

# Remove generated droppings (the coverage profile and compiled test
# binaries). scripts/coverage.sh also cleans up after itself, so cover.out
# never outlives the run that produced it; this target is the guard for
# anything that still leaks.
clean:
	rm -f cover.out *.test

race:
	go test -race ./...

vet:
	go vet ./...

# Per-package coverage summary over internal/... with the CI floor (75%).
cover:
	sh scripts/coverage.sh

# Refresh the committed golden report files after an intentional format
# change to cmd/statime output.
golden:
	go test ./cmd/statime -run TestGolden -update

# Full benchmark pass over every package.
bench:
	go test -run '^$$' -bench . -benchtime 100x ./...

# One-iteration compile-and-run of every benchmark, the CI rot guard.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

# Refresh BENCH_incremental.json and BENCH_timing.json (the perf
# trajectories: full-vs-incremental edits, sequential-vs-parallel chip
# slack, full-reanalyze-vs-dirty-cone ECO re-timing).
bench-trajectory:
	sh scripts/bench_trajectory.sh

# Non-test Go lines per package (blank and comment-only lines excluded) and
# the total: the complexity axis the performance work is weighed against.
loc:
	sh scripts/loc.sh
