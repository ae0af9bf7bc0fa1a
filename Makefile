# Mirrors .github/workflows/ci.yml so local runs and CI stay in lockstep.

GO ?= go

.PHONY: all build test test-nosimd test-arm64 race torture replication-torture cluster-e2e bench bench-verify bench-candidates bench-segment bench-corpus fuzz-smoke equivalence-guard lint ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The portable scalar path must stay green on its own: the nosimd build
# tag compiles the vector kernel out entirely, exactly like a non-AVX2
# host.
test-nosimd:
	$(GO) test -tags nosimd ./...

# Cross-compile everything (tests included) for arm64 to prove the
# build-tag fences hold off-amd64; when a qemu-aarch64 user-mode
# emulator is on PATH (CI's arm64 leg) the test binaries run under it,
# otherwise they are compiled and discarded via -exec /bin/true.
test-arm64:
	CGO_ENABLED=0 GOOS=linux GOARCH=arm64 $(GO) build ./...
	CGO_ENABLED=0 GOOS=linux GOARCH=arm64 $(GO) vet ./...
	@qemu=$$(command -v qemu-aarch64-static || command -v qemu-aarch64); \
	if [ -n "$$qemu" ]; then \
		echo "arm64 tests under $$qemu"; \
		CGO_ENABLED=0 GOOS=linux GOARCH=arm64 $(GO) test -exec "$$qemu" -count=1 ./... && \
		out=$$(CGO_ENABLED=0 GOOS=linux GOARCH=arm64 $(GO) test -exec "$$qemu" -v -run TestNEONKernelLive -count=1 ./internal/strdist/simd/ 2>&1) || { echo "$$out"; exit 1; }; \
		if ! echo "$$out" | grep -q -- "--- PASS: TestNEONKernelLive"; then \
			echo "$$out"; echo "TestNEONKernelLive did not pass — NEON kernel never executed"; exit 1; fi; \
		echo "NEON kernel liveness: ok"; \
	else \
		echo "qemu-aarch64 absent: arm64 compile-only (tests built, not run; CI's arm64 leg executes them)"; \
		CGO_ENABLED=0 GOOS=linux GOARCH=arm64 $(GO) test -exec /bin/true -count=1 ./... >/dev/null; \
	fi

# Bounded coverage-guided exploration of the distance-kernel fuzz
# targets; their seed corpora also run in every plain `go test`.
fuzz-smoke:
	$(GO) test -fuzz FuzzLevenshteinSIMDEquivalence -fuzztime 30s ./internal/strdist/simd/
	$(GO) test -fuzz FuzzLevenshteinBoundedU16 -fuzztime 30s ./internal/strdist/
	$(GO) test -fuzz FuzzSigLowerBound -fuzztime 30s ./internal/strdist/

race:
	$(GO) test -race ./internal/token/... ./internal/mapreduce/... ./internal/massjoin/... ./internal/stream/... ./internal/tsj/... ./internal/core/... ./internal/assignment/... ./internal/corpus/... ./internal/histo/... ./internal/replica/... ./internal/backoff/... ./internal/httpx/... ./internal/distrib/... ./internal/serve/...

# Storage fault-injection suite under the race detector: the op-sweep
# torture test (every WAL/snapshot/compact I/O operation failed in turn,
# then reopen + invariant check), degraded-mode sealing and recovery,
# and the bit-rot loud-failure contract — plus the serving layer's
# degraded-mode end-to-end test. -short strides the sweep; the full
# sweep runs in the plain `test` target.
torture:
	$(GO) test -race -short -run 'Torture|Degraded|BitRot' -count=1 ./internal/corpus/ ./internal/serve/

# Replication torture under the race detector: every shipped WAL frame
# failed in turn (drop, torn write, delay, standby crash, primary
# crash), plus promotion and restart equivalence, and the serving
# layer's failover end-to-end test. -short strides the frame sweep; the
# full sweep runs in the plain `test` target.
replication-torture:
	$(GO) test -race -short -run 'Replication|Promotion|Failover' -count=1 ./internal/replica/ ./internal/serve/

# Cluster end-to-end under the race detector: one coordinator over two
# real internal/serve workers (worker 0 with a warm replication standby) —
# add/join/query/distributed-selfjoin traffic byte-compared against a
# single node, then kill worker 0 and require hedged reads, heartbeat
# detection, real standby promotion, and a repointed partition map. The
# guard fails if the test is skipped or has gone missing.
cluster-e2e:
	@out=$$($(GO) test -race -v -run TestClusterE2E -count=1 ./internal/serve/ 2>&1) || { echo "$$out"; exit 1; }; \
	if ! echo "$$out" | grep -q -- "--- PASS: TestClusterE2E"; then \
		echo "$$out"; echo "TestClusterE2E did not run (missing or skipped)"; exit 1; fi; \
	echo "cluster e2e (kill-worker failover + single-node equivalence): ok"

bench:
	$(GO) test -run='^$$' -bench=BenchmarkShardedAdd -benchtime=1x .

bench-verify:
	$(GO) test -run='^$$' -bench='SLD|Verify' -benchtime=1x -benchmem .

bench-candidates:
	$(GO) test -run='^$$' -bench='Candidates|Prefix' -benchtime=1x -benchmem .

bench-segment:
	$(GO) test -run='^$$' -bench=SegmentProbe -benchtime=1x -benchmem ./internal/stream/

bench-corpus:
	$(GO) test -run='^$$' -bench='CorpusAdd|SnapshotLoad|WALReplay' -benchtime=1x -benchmem ./internal/corpus/

equivalence-guard:
	@out=$$($(GO) test -v -run 'TestBoundedEquivalence|TestPrefixEquivalence|TestSegmentPrefixEquivalence|TestRestartEquivalence|TestSIMDEquivalence|TestTortureOpSweep|TestReplicationTortureSweep|TestPromotionEquivalence|TestJoinCorpusEquivalence|TestJoinSelfJoinEquivalence|TestClusterEquivalence|TestClusterE2E|TestPipelineAccountingGolden|TestFingerprintCollisionsAreHarmless|TestBuildCorpusMatchesReference' ./internal/... 2>&1) || { echo "$$out"; exit 1; }; \
	for pat in TestBoundedEquivalence TestBoundedEquivalenceSigBound TestPrefixEquivalence TestSegmentPrefixEquivalence TestRestartEquivalence TestSIMDEquivalence TestSIMDEquivalenceAllBatched TestTortureOpSweep TestReplicationTortureSweep TestPromotionEquivalence TestJoinCorpusEquivalence TestJoinSelfJoinEquivalence TestClusterEquivalence TestClusterE2E TestPipelineAccountingGolden TestFingerprintCollisionsAreHarmless TestBuildCorpusMatchesReference; do \
		if ! echo "$$out" | grep -q -- "--- PASS: $$pat"; then \
			echo "no $$pat tests ran"; exit 1; fi; \
		if echo "$$out" | grep -q -- "--- SKIP: $$pat"; then \
			echo "$$pat tests were skipped"; exit 1; fi; \
	done; \
	echo "equivalence guard (bounded + prefix + segment-prefix + restart + simd + torture + replication + corpus-join + join-is-self-join + cluster + job accounting + fingerprint collisions + corpus build): ok"

# vet + gofmt always; staticcheck and govulncheck when installed (CI
# installs both — locally they degrade to a notice, never a failure).
lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

ci: build lint test test-nosimd race torture replication-torture cluster-e2e equivalence-guard bench bench-verify bench-candidates bench-segment bench-corpus
