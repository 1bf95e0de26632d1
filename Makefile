GO ?= go

.PHONY: build test race bench verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench reruns the benchmarks BENCH_plan.json records (same repetition
# and duration settings) and writes benchstat-ready output to bench.txt;
# compare against a saved run with `benchstat old.txt bench.txt`.
bench:
	./scripts/bench.sh

# verify runs the gates CI runs on every push: gofmt, vet, the
# dead-exports check, the tests, and vet + test of the perfbench module
# (its own go.mod, which the root ./... never builds).
verify: build
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run scripts/deadexports.go
	$(GO) test ./...
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...
