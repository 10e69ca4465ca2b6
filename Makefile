# Tier-1 verification targets. `make check` is the full gate: vet,
# build, and the test suite under the race detector.

GO ?= go

.PHONY: check vet build test race soak

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# Bounded chaos soak: the seeded chaos scheduler drives compound fault
# episodes, correctable-error storms, and CXL offline/online cycles
# through a GUPS run under the race detector, with the invariant
# auditor checking conservation every quantum. CHAOS_LOG names the
# replayable episode-log artifact.
CHAOS_LOG ?= chaos-episodes.log
soak:
	CHAOS_LOG=$(CHAOS_LOG) $(GO) test -race -run Chaos -timeout 10m -v ./internal/bench/
