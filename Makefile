GO ?= go

.PHONY: all build vet fmt-check lint test race bench fuzz experiments loc bench-surface

all: build vet fmt-check lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt over every Go file outside testdata (the lint fixtures' `want` line
# numbers must not shift); any file it lists fails the target.
fmt-check:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Project-specific static analysis (DESIGN.md §7); `adhoclint -list` prints
# the rules, `-rules a,b` runs a subset.
lint:
	$(GO) run ./cmd/adhoclint ./...

test:
	$(GO) test ./...

# -tags lockcheck arms the lock validator (internal/lockcheck, DESIGN.md §7).
race:
	$(GO) test -race -tags lockcheck ./...

# The root micro-benchmarks, one iteration each (seconds); the repository's
# benchmark is bench/run.sh.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Short coverage-guided fuzz pass over the text front ends, the graph
# store's edit sequences, the keyed sub-query and the flat joins; CI runs
# the same targets as a smoke stage. Crashers land in testdata/fuzz/ and
# then run as regression seeds under plain `make test`.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/sparql
	$(GO) test -run '^$$' -fuzz FuzzReadTurtle -fuzztime $(FUZZTIME) ./internal/rdf
	$(GO) test -run '^$$' -fuzz FuzzGraphOps -fuzztime $(FUZZTIME) ./internal/rdf
	$(GO) test -run '^$$' -fuzz FuzzKeyedMatch -fuzztime $(FUZZTIME) ./internal/dqp
	$(GO) test -run '^$$' -fuzz FuzzFlatJoin -fuzztime $(FUZZTIME) ./internal/sparql/eval

# Regenerate the EXPERIMENTS.md table set (seed 0 = published tables).
experiments:
	$(GO) run ./cmd/benchmark

# The tracked size metric, ROADMAP aim 2: production Go (non-test,
# non-testdata; bench/ is its own module and not counted), the same without
# the package only tests import (internal/testutil: the alias probe and the
# wire's reference encoder), of which cmd/adhoclint, and tests.
TESTONLY := -not -path './internal/testutil/*'
loc:
	@echo "production Go:          $$(find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "  without test-only:    $$(find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './bench/*' $(TESTONLY) | xargs cat | wc -l)"
	@echo "of which cmd/adhoclint: $$(ls cmd/adhoclint/*.go | grep -v _test | xargs cat | wc -l)"
	@echo "tests:                  $$(find . -name '*_test.go' -not -path '*/testdata/*' -not -path './bench/*' | xargs cat | wc -l)"

# What a PR other than the [benchmark] one may not rename: the
# package-qualified adhocshare/internal/... identifiers the frozen bench/
# module compiles against. Methods called on values (net.SetFlightRecorder)
# are not listed; `cd bench && go vet ./...` stays the authority.
bench-surface:
	@grep -ohE '\b(algebra|chord|dqp|eval|flight|optimize|overlay|rdf|simnet|sparql|trace|workload)\.[A-Z][A-Za-z0-9_]*' bench/*.go | sort -u
