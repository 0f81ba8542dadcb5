GO ?= go

.PHONY: all build vet lint lint-fast test race bench fuzz experiments

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: concurrency and determinism
# conventions (see DESIGN.md "Concurrency & determinism conventions").
lint:
	$(GO) run ./cmd/adhoclint ./...

# Per-package rules only: skips the whole-program analyses (lock-order,
# lock-blocking's interprocedural half, rpc-protocol, payload-size,
# wireiso, vtime, alloc, codec, faultpath, racefree), which load the full
# module. Quick pre-commit check; CI and `make lint` always run everything.
lint-fast:
	$(GO) run ./cmd/adhoclint -rules guarded-field,determinism,goroutine-hygiene,discarded-error ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Short coverage-guided fuzz pass over the text front ends and the wire
# codec; CI runs the same targets as a smoke stage. Crashers land in
# testdata/fuzz/ and then run as regression seeds under plain `make test`.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/sparql
	$(GO) test -run '^$$' -fuzz FuzzReadTurtle -fuzztime $(FUZZTIME) ./internal/rdf
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/dqp

# Regenerate the EXPERIMENTS.md table set (seed 0 = published tables).
experiments:
	$(GO) run ./cmd/benchmark
