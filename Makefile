GO ?= go

.PHONY: build test race bench bench-e2e soak fuzz fmt vet examples ci rib-fixture rib-measure fleet fleet-smoke fleet-corpus golden

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Single-pass microbenchmark run, the same invocation CI archives and
# diffs against the PR base (cmd/benchdiff).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... | tee bench.txt

# The end-to-end benchmark (benchmark/README.md): builds artemisd, drives
# every workload through it and prints every metric; pass harness flags
# in BENCH_ARGS, e.g. BENCH_ARGS='--workload ris-paced --trace 1'.
BENCH_ARGS ?=
bench-e2e:
	bash benchmark/run.sh $(BENCH_ARGS)

# Fetch-or-generate the full-scale RIB fixture: a deterministic
# TABLE_DUMP_V2 snapshot sized like today's global table (~1M v4 + ~220k
# v6 prefixes, ~390MB). ribgen keeps an existing non-empty file, so a
# downloaded real collector dump at the same path is never clobbered;
# RIB_FIXTURE overrides the location.
RIB_FIXTURE ?= testdata/rib-full.mrt
rib-fixture:
	@mkdir -p $(dir $(RIB_FIXTURE))
	$(GO) run ./cmd/ribgen -o $(RIB_FIXTURE)

# Measure full-RIB bootstrap (load time + resident table memory) against
# the fixture above; numbers feed docs/PERFORMANCE.md#full-rib-load.
rib-measure: rib-fixture
	ARTEMIS_RIB_FULL=1 ARTEMIS_RIB_FIXTURE=$(abspath $(RIB_FIXTURE)) \
		$(GO) test -run TestFullRIBLoadMeasured -count=1 -v ./internal/rib

# The adversarial scenario fleet (docs/SCENARIOS.md): N seeded hijack
# scenarios per taxonomy class over v4/v6/mixed owned sets, scored for
# detection latency and FP/FN accuracy. Writes fleet-scorecard.json and
# enforces the fleet.gates accuracy bounds (zero FN on origin-level
# classes, zero FP on the controls). Nightly CI archives the scorecard.
FLEET_SEEDS ?= 3
fleet:
	$(GO) run ./cmd/fleet -seeds $(FLEET_SEEDS) -out fleet-scorecard.json -check fleet.gates

# PR-CI subset: full taxonomy, v4 only, one seed — a few seconds.
fleet-smoke:
	$(GO) run ./cmd/fleet -smoke -out '' -check fleet.gates

# Rewrite the behaviour goldens (testdata/golden: the E1–E6 figures and
# the fleet smoke scorecard) after an intended behaviour change; the
# tier-1 tests diff against them.
golden:
	$(GO) test -run '^TestGolden' -count=1 -update .

# Regenerate the checked-in detector-level replay corpus
# (internal/fleet/testdata) after an intentional behavior change.
fleet-corpus:
	$(GO) run ./cmd/fleet -testdata internal/fleet/testdata

# Soak the ingest supervisor against flapping in-process RIS/BGPmon
# servers under the race detector (the short-mode version of this test
# runs in every `make test`).
soak:
	ARTEMIS_SOAK=10s $(GO) test -race -run TestSoakFlappingFeeds -count=1 -v ./internal/ingest

# Fuzz the wire-facing parsers: the dual-stack parse/format core, the
# BMP message layer, the JSON scanner, the three JSON decoders (event
# envelopes, RIS-Live messages and ROA exports, each against its
# encoding/json reference) and the TABLE_DUMP_V2 bootstrap (against the
# decode-whole reference it replaced). Each target runs for
# FUZZTIME (default 30s); new inputs that fail land in the package's
# testdata/fuzz/ directory.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseAddr -fuzztime=$(FUZZTIME) ./internal/prefix
	$(GO) test -run='^$$' -fuzz=FuzzParsePrefix -fuzztime=$(FUZZTIME) ./internal/prefix
	$(GO) test -run='^$$' -fuzz=FuzzPrefixString -fuzztime=$(FUZZTIME) ./internal/prefix
	$(GO) test -run='^$$' -fuzz=FuzzBMPMessage -fuzztime=$(FUZZTIME) ./internal/bgp/bmp
	$(GO) test -run='^$$' -fuzz=FuzzScanner -fuzztime=$(FUZZTIME) ./internal/jsonscan
	$(GO) test -run='^$$' -fuzz=FuzzEventJSON -fuzztime=$(FUZZTIME) ./internal/feeds/eventlog
	$(GO) test -run='^$$' -fuzz=FuzzRISMessage -fuzztime=$(FUZZTIME) ./internal/feeds/ris
	$(GO) test -run='^$$' -fuzz=FuzzRIBLoad -fuzztime=$(FUZZTIME) ./internal/rib
	$(GO) test -run='^$$' -fuzz=FuzzRIBApply -fuzztime=$(FUZZTIME) ./internal/rib
	$(GO) test -run='^$$' -fuzz=FuzzROAParse -fuzztime=$(FUZZTIME) ./internal/rpki

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Build every example/command, run the public-API Example tests and run
# live-feeds end to end over real sockets (about 4 s; it exits non-zero
# unless the hijack is detected and mitigated) — the same gate CI's
# examples job applies.
examples:
	$(GO) build ./examples/... ./cmd/...
	$(GO) test -run Example -v ./pkg/...
	$(GO) run ./examples/live-feeds

ci: fmt build vet race examples
