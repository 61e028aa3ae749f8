# KShot simulation build targets. `make check` is the tier-1 gate;
# `make race` adds the data-race detector over the full suite.

GO ?= go

.PHONY: all build vet test race short bench benchsmoke benchjson benchmark-test check fuzz cover api apicheck corpus corpussmoke adversary-smoke

# Per-target budget for the fuzz smoke pass (see `fuzz` below).
FUZZTIME ?= 30s

# Statement-coverage ratchet for `make cover`: the build fails if total
# coverage drops below this. Raise it when coverage improves; never
# lower it to make a change pass.
COVERMIN ?= 75.0

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One iteration of every benchmark in the tree — catches benchmarks
# that bit-rot without paying for statistically meaningful timings.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Machine-readable evaluation results (JSON) for dashboards and diffing
# runs; see cmd/kshot-bench -json.
BENCHJSON ?= bench.json
benchjson:
	$(GO) run ./cmd/kshot-bench -json -table2 -table3 -table5 -pipeline -fleet -rollout -provision -dispatch -detect -detect-trials 5 -detect-ops 5000 -iters 1 -o $(BENCHJSON) > /dev/null

# The repo benchmark (benchmark/) is its own Go module, so the root
# `go test ./...` never builds it; this vets it and runs its smoke and
# unit tests against the current tree.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Public API surface snapshot. `make api` regenerates api.txt from the
# package's exported declarations; `make apicheck` fails when the
# surface drifted from the committed snapshot — regenerate and review
# the diff to change the API deliberately.
api:
	$(GO) doc -all . > api.txt

apicheck:
	@$(GO) doc -all . > api.txt.got; \
	if ! diff -u api.txt api.txt.got; then \
		rm -f api.txt.got; \
		echo "public API surface changed: run 'make api' and commit the reviewed api.txt"; \
		exit 1; \
	fi; \
	rm -f api.txt.got; echo "api surface matches api.txt"

# Statement coverage with a ratchet: prints the per-package breakdown
# and fails if the total drops below COVERMIN.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	awk -v total="$$total" -v min="$(COVERMIN)" 'BEGIN { \
		if (total + 0 < min + 0) { \
			printf "coverage %.1f%% is below the %.1f%% ratchet\n", total, min; exit 1 } \
		printf "coverage %.1f%% >= %.1f%% ratchet\n", total, min }'

# Short coverage-guided fuzzing pass over every fuzz target, starting
# from the committed seed corpora. CI runs this as a smoke test; bump
# FUZZTIME for a real campaign.
fuzz:
	$(GO) test -fuzz=FuzzAsmDisasmRoundTrip -fuzztime=$(FUZZTIME) -run '^$$' ./internal/isa/
	$(GO) test -fuzz=FuzzBlockDecode -fuzztime=$(FUZZTIME) -run '^$$' ./internal/isa/
	$(GO) test -fuzz=FuzzKSBTParse -fuzztime=$(FUZZTIME) -run '^$$' ./internal/smmpatch/
	$(GO) test -fuzz=FuzzSparseMemAccess -fuzztime=$(FUZZTIME) -run '^$$' ./internal/mem/
	$(GO) test -fuzz=FuzzForkMem -fuzztime=$(FUZZTIME) -run '^$$' ./internal/mem/
	$(GO) test -fuzz=FuzzServerFrame -fuzztime=$(FUZZTIME) -run '^$$' ./internal/patchserver/
	$(GO) test -fuzz=FuzzECallEnvelope -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sgxprep/
	$(GO) test -fuzz=FuzzCorpusCase -fuzztime=$(FUZZTIME) -run '^$$' ./internal/corpusgen/
	$(GO) test -fuzz=FuzzEventChannel -fuzztime=$(FUZZTIME) -run '^$$' ./internal/introspect/
	$(GO) test -fuzz=FuzzPatchDecode -fuzztime=$(FUZZTIME) -run '^$$' ./internal/patch/

# Generated-corpus differential verification. `corpussmoke` is the CI
# gate: a fixed-seed 64-case sweep under -race. `corpus` is the full
# acceptance sweep — 256 cases, every one driven end-to-end.
corpussmoke:
	$(GO) test -race -run TestGeneratedCorpusSmoke ./internal/evalharness/

corpus:
	$(GO) run ./cmd/kshot-corpus verify -seed 0xC0DE -count 256 -e2e -1

# Adversary simulation smoke: the three seeded attacker archetypes
# plus a fixed-seed subset of the campaign, under -race. The full
# 200-seed campaign ("attacker never wins silently") runs in `test`;
# reproduce any campaign failure with KSHOT_ADV_SEED=<seed>.
adversary-smoke:
	$(GO) test -race -short -run 'TestReinfectDetected|TestReplayDetected|TestGroomDetected|TestAdversaryCampaign' ./internal/adversary/

check: build vet test
