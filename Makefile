GO ?= go

.PHONY: build test race lint vet fuzz-smoke bench bench-smoke ledger-smoke serve-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint: vet
	$(GO) run ./cmd/qolint -json qolint-report.json ./...

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/sqlparse/
	$(GO) test -run=^$$ -fuzz=FuzzBitPackRoundTrip -fuzztime=5s ./internal/colstore/
	$(GO) test -run=^$$ -fuzz=FuzzFORRoundTrip -fuzztime=5s ./internal/colstore/
	$(GO) test -run=^$$ -fuzz=FuzzRLERoundTrip -fuzztime=5s ./internal/colstore/
	$(GO) test -run=^$$ -fuzz=FuzzDictRoundTrip -fuzztime=5s ./internal/colstore/
	$(GO) test -run=^$$ -fuzz=FuzzTableZones -fuzztime=5s ./internal/storage/
	$(GO) test -run=^$$ -fuzz=FuzzPlanCacheKey -fuzztime=5s ./internal/plancache/
	$(GO) test -run=^$$ -fuzz=FuzzLoadSet -fuzztime=5s ./internal/sample/
	$(GO) test -run=^$$ -fuzz=FuzzEngineDifferential -fuzztime=10s ./internal/engine/
	$(GO) test -run=^$$ -fuzz=FuzzPlanSpaceOracle -fuzztime=5s ./internal/optimizer/
	$(GO) test -run=^$$ -fuzz=FuzzExactSum -fuzztime=5s ./internal/value/
	$(GO) test -run=^$$ -fuzz=FuzzParseDate -fuzztime=5s ./internal/value/

# bench is the benchmark of record (bench/README.md): four workloads,
# every answer checked against the reference evaluator.
bench:
	bash bench/run.sh

# bench-smoke runs each benchmark for one iteration (-benchtime=1x): it
# proves the benchmarks still run, but a single iteration carries
# first-touch costs, so its numbers cannot serve as before/after rows.
# Quote those from runs at the default benchtime. BenchmarkHashJoinProbe
# times the serial hash join's build and probe over canned inputs, once
# per table mode (dense, sparse); BenchmarkPipelineBreakers' join rows
# time the dashboard's and Experiment 2's joins over TPC-H-like data, and
# BenchmarkRidScan the two RID-list scans' index seeks and fetches.
bench-smoke:
	$(GO) test -run=^$$ -bench=BenchmarkExecStreamVsMaterialize -benchtime=1x -benchmem ./internal/engine/
	$(GO) test -run=^$$ -bench=BenchmarkHashJoinProbe -benchtime=1x -benchmem ./internal/engine/
	$(GO) test -run=^$$ -bench='BenchmarkSeqScanRows|BenchmarkSeqScanClustered|BenchmarkRidScan|BenchmarkMergeJoinUnsorted|BenchmarkMergeJoinPruned|BenchmarkPipelineBreakers' -benchtime=1x -benchmem ./internal/engine/
	$(GO) test -run=^$$ -bench=BenchmarkScanAggregate -benchtime=1x -benchmem ./internal/engine/
	$(GO) test -run=^$$ -bench=BenchmarkSynopsisCount -benchtime=1x -benchmem ./internal/sample/
	$(GO) test -run=^$$ -bench=BenchmarkEvalBatch -benchtime=1x -benchmem ./internal/expr/
	$(GO) test -run=^$$ -bench=BenchmarkOptimizeCold -benchtime=1x -benchmem ./internal/optimizer/
	$(GO) test -run=^$$ -bench=BenchmarkParse -benchtime=1x -benchmem ./internal/sqlparse/

# ledger-smoke runs the 40-query feedback corpus end to end: persists
# the cardinality ledger, a slow-query log (threshold 0 so the artifact
# always has content), and the lifecycle event log, then reloads the
# persisted file through `ledger top` to prove the round trip.
ledger-smoke:
	$(GO) run ./cmd/robustqo ledger run -lines 20000 -out ledger.bin \
		-slow-query-ms 0 -slow-log slow_queries.jsonl -events query_events.jsonl
	$(GO) run ./cmd/robustqo ledger top -in ledger.bin -n 5
	$(GO) run ./cmd/robustqo ledger drift -in ledger.bin

# serve-smoke boots the debug server with a tiny admission gate and
# asserts cache hits, prepared-statement execution, overload shedding,
# and graceful drain through the real HTTP surface (see the script).
serve-smoke:
	sh scripts/serve_smoke.sh

ci: build lint race fuzz-smoke bench-smoke ledger-smoke serve-smoke
