# Standard gate: build + vet + race-enabled tests. `make check` is what CI
# and pre-merge runs; the race detector is required because event.Bus and
# internal/fleet are concurrent by design. TESTFLAGS threads extra `go test`
# flags through the gate — CI's race job uses `make check TESTFLAGS=-short`
# to keep wall time bounded (the long 120-device e2e and the shard sweep run
# in CI's smoke job instead). `make docs` is the documentation gate: vet
# plus a check that every package (and command) carries a godoc package
# comment, that ARCHITECTURE.md's frame registry and layering rule still
# describe the code, and that no exported name ships that only tests call. `make fuzz` smoke-runs the wire codec and journal reader fuzz
# targets for FUZZTIME each (default 10s) — the same invocation CI's smoke
# job uses. `make bench` runs every go-test benchmark, tests excluded;
# BENCHFLAGS threads extra `go test` flags through (CI's smoke job uses
# `-benchtime=1x` for a fast correctness pass). The repo's benchmark — the
# one a performance claim is measured on — is benchmark/, declared in
# BENCHMARK.json; these are micro-benchmarks and allocation gates. `make
# cover` writes a coverage profile to cover.out and prints the per-function
# summary. `make loc` prints non-test, non-comment, non-blank Go lines per
# package and in total, so simplicity PRs report the same number the same
# way.

GO ?= go
TESTFLAGS ?=
BENCHFLAGS ?=
FUZZTIME ?= 10s

.PHONY: check build vet test test-race bench fuzz cover docs loc experiments clean

check: build vet test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test $(TESTFLAGS) ./...

test-race:
	$(GO) test -race $(TESTFLAGS) ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCHFLAGS) ./...

# fuzz smoke-runs both native fuzz targets: the wire codec (FuzzDecode —
# random frames through both codecs must be cleanly rejected or decoded,
# never panic, and the two binary decoders must agree on every payload) and
# the journal reader (FuzzJournalReader — random segment
# bytes must classify as torn tail or CorruptError, never panic). CI's
# smoke job runs exactly this; raise FUZZTIME locally for a deeper hunt.
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -fuzz=FuzzJournalReader -fuzztime=$(FUZZTIME) ./internal/journal

# cover writes cover.out and prints the per-function coverage summary.
cover:
	$(GO) test $(TESTFLAGS) -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out

# docs fails when any package lacks a godoc package comment ("// Package x"
# for libraries, "// Command x" for mains) in any of its non-test files,
# or when ARCHITECTURE.md §2.9's wire frame registry disagrees with the
# binary codec's tag map (TestFrameRegistry in internal/wire) or its daemon
# column with the ingestion server's frame-handler table
# (TestEveryFrameTypeHasADaemonDecision in internal/fleet), or when the
# non-test import graph breaks ARCHITECTURE.md §1's layering rule
# (TestImportGraph at the module root: generic planes import no product,
# cmd/traderd links no experiment harness, cmd/tvsim no daemon plane), or
# when an exported name of a library package has no caller in any non-test
# file of the root or benchmark module and no allowlist entry with a reason
# (TestNoTestOnlyCode at the module root, type-checked with go/types).
# The failure flag is checked in its own `if` statement: chaining it as
# `[ $fail -eq 0 ] && echo ok || exit 1` would route a failed echo into the
# exit-1 branch and make the target's status depend on the chain's last
# command rather than the flag.
docs: vet
	@fail=0; \
	for dir in $$(find . -name '*.go' -not -name '*_test.go' -not -path './.git/*' | xargs -n1 dirname | sort -u); do \
		if ! find $$dir -maxdepth 1 -name '*.go' -not -name '*_test.go' \
			| xargs grep -lqE '^// (Package|Command) ' 2>/dev/null; then \
			echo "missing package comment: $$dir"; fail=1; \
		fi; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "docs: every package has a package comment"
	@$(GO) test ./internal/wire -run TestFrameRegistry >/dev/null
	@$(GO) test ./internal/fleet -run TestEveryFrameTypeHasADaemonDecision >/dev/null
	@echo "docs: ARCHITECTURE.md §2.9 frame registry matches the codec and the daemon's handler table"
	@$(GO) test . -run TestImportGraph >/dev/null
	@echo "docs: the import graph keeps ARCHITECTURE.md §1's layering rule"
	@out=$$($(GO) test . -run TestNoTestOnlyCode) || { echo "$$out"; exit 1; }
	@echo "docs: every exported name has a non-test caller or an allowlisted reason"

# loc counts, per package directory, the Go lines that are not in _test.go
# files, not whole-line comments and not blank.
loc:
	@total=0; \
	for d in $$(find . -name '*.go' -not -name '*_test.go' -not -path './.git/*' -not -path './.bench_build/*' | xargs -n1 dirname | sort -u); do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | grep -v '^\s*//' | grep -cv '^\s*$$'); \
		printf '%6d  %s\n' $$n $$d; total=$$((total+n)); \
	done; \
	printf '%6d  total\n' $$total

experiments:
	$(GO) run ./cmd/experiments

clean:
	$(GO) clean ./...
