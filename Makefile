# Development targets. Everything is stdlib-only and offline.

GO ?= go

.PHONY: all build vet fmt-check lint test fuzz race chaos bench report cover fmt loc bench-check bench-record bench-baseline

all: build vet fmt-check lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails (listing the files) when anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The repo-specific static-analysis pass, every rule (see internal/lint
# and the "Static analysis" section of DESIGN.md). Nonzero exit on
# findings.
lint:
	$(GO) run ./cmd/tdblint ./...

# Tier-1 gate: vet plus the full test suite.
test:
	$(GO) vet ./...
	$(GO) test ./...

# The native fuzz targets (CI runs the same): relation.SortSpans against
# its sort.SliceStable reference as an exact sequence, the catalog's
# statistics fold against the event sweep and, tracked then appended to,
# against FromSpans over all the lifespans, the two page
# decoders — key-run pages and row pages — on arbitrary bytes: records or
# rows, or ErrCorruptPage, never a panic or an out-of-range index, and the
# key scan's page walk failing exactly when the row decoder does and
# agreeing with it on every lifespan and row offset, the
# packed value.Value against its three-field reference, the row-key
# codec: equal relation.AppendKey encodings exactly when Row.Equal, and the
# engine's relation index (orders and column codes): every Run over a DB
# that took Register, Append and StoreRelation returns what a fresh
# DB's Run of the tree returns, the /v1/append decoder: rows of the
# schema's kinds or a typed bad_request error for any body, never a panic,
# the /v1/subscribe decoder and resume arithmetic: a typed bad_request, or
# replaySince's events contiguous up to the head or a typed error, the
# /v1/query and /v1/execute parameter path: values or a typed bad_request
# or bind_error, never a panic, the /v1/session, /v1/session/close and
# /v1/prepare handlers: an answer or a typed error, never a panic, the
# row codec's writer: json.Marshal's exact bytes for strings and rows, the
# driver's response decoder: what encoding/json with UseNumber and a
# per-cell conversion accepts, with the same cells, and nothing else,
# the driver's event stream: readEvent returns an event or an error on any
# bytes, and decodeDeltas accepts exactly what encoding/json with a
# per-cell kind check accepts, with the same seq and cells, the quel parser: a program it accepts prints, reparses and prints again
# to the same text, and the driver's DSN parser: a connector with positive
# retry durations or an error.
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzSortSpans -fuzztime=20s ./internal/relation
	$(GO) test -run '^$$' -fuzz=FuzzStatsFold -fuzztime=10s ./internal/catalog
	$(GO) test -run '^$$' -fuzz=FuzzKeyRunPage -fuzztime=10s ./internal/storage
	$(GO) test -run '^$$' -fuzz=FuzzDecodePage -fuzztime=10s ./internal/storage
	$(GO) test -run '^$$' -fuzz=FuzzPageKeys -fuzztime=10s ./internal/storage
	$(GO) test -run '^$$' -fuzz=FuzzValue -fuzztime=10s ./internal/value
	$(GO) test -run '^$$' -fuzz=FuzzRowKey -fuzztime=10s ./internal/relation
	$(GO) test -run '^$$' -fuzz=FuzzOrderIndex -fuzztime=10s ./internal/engine
	$(GO) test -run '^$$' -fuzz=FuzzAppendRequest -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz=FuzzSubscribeRequest -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz=FuzzQueryRequest -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz=FuzzSessionRequest -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz=FuzzPrepareRequest -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz=FuzzWireString -fuzztime=10s ./internal/wire
	$(GO) test -run '^$$' -fuzz=FuzzWireRows -fuzztime=10s ./internal/wire
	$(GO) test -run '^$$' -fuzz=FuzzQueryResponse -fuzztime=10s ./driver
	$(GO) test -run '^$$' -fuzz=FuzzEventStream -fuzztime=10s ./driver
	$(GO) test -run '^$$' -fuzz=FuzzQuelRoundTrip -fuzztime=10s ./internal/quel
	$(GO) test -run '^$$' -fuzz=FuzzDSN -fuzztime=10s ./driver

race:
	$(GO) test -race ./...

# The robustness drills: fault-injection, governor, breaker, resume,
# retry and seq-contract suites under the race detector (CI's chaos job
# runs the same pattern over the same packages).
chaos:
	$(GO) test -race -run 'Chaos|Fault|Torn|Breaker|Governor|Leak|Resume|Retry|Seq' ./internal/engine/ ./internal/live/ ./internal/storage/ ./internal/fault/ ./internal/testutil/ ./internal/server/ ./driver/

# One benchmark per paper table/figure (see DESIGN.md's experiment index).
bench:
	$(GO) test -bench=. -benchmem .

# The benchmark regression gate. BENCH_CONFIG must match the committed
# baseline exactly — a mismatch is a hard error, not a comparison.
BENCH_CONFIG = -n 256 -faculty 32 -seed 1

# Compare this machine's run against BENCH_BASELINE.json; nonzero exit
# on regression (CI runs this with -record too).
bench-check:
	$(GO) run ./cmd/tdbbench $(BENCH_CONFIG) -check

# Append a structured run record (git SHA, GOMAXPROCS, per-experiment
# wall times) to BENCH_HISTORY.jsonl.
bench-record:
	$(GO) run ./cmd/tdbbench $(BENCH_CONFIG) -record

# Re-seed the committed baseline from this machine (after a deliberate
# performance change; commit the result).
bench-baseline:
	$(GO) run ./cmd/tdbbench $(BENCH_CONFIG) -write-baseline

# The full experiment report: every table and figure of the paper,
# regenerated with workspace measurements.
report:
	$(GO) run ./cmd/tdbbench -n 4000 -faculty 200

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

fmt:
	gofmt -w .

# Non-test Go lines per package, then the module total — the size the
# design aim tracks. Informational: it never fails on a number.
loc:
	@$(GO) list -f '{{.Dir}} {{.ImportPath}} {{join .GoFiles " "}}' ./... | \
	while read -r dir pkg files; do \
		[ -n "$$files" ] || continue; \
		printf '%7d  %s\n' "$$(cd "$$dir" && cat $$files | wc -l)" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%7d  total\n", total }'
