# Mirrors .github/workflows/ci.yml so local runs and CI stay in lockstep.

GO ?= go

.PHONY: all build bench-build test test-arm64 race torture replication-torture cluster-e2e bench bench-verify bench-candidates bench-segment bench-corpus fuzz-smoke equivalence-guard lint ci

all: build

build:
	$(GO) build ./...

# bench/ is its own module over this one (replace repro => ../): it must
# keep compiling against the packages it calls. Builds and vets only; it
# does not run the benchmark's smoke test.
bench-build:
	$(GO) -C bench build ./... && $(GO) -C bench vet ./...

test:
	$(GO) test ./...

# Cross-compile and vet everything for linux/arm64, and compile its test
# binaries (-exec /bin/true builds them without running them).
test-arm64:
	CGO_ENABLED=0 GOOS=linux GOARCH=arm64 $(GO) build ./...
	CGO_ENABLED=0 GOOS=linux GOARCH=arm64 $(GO) vet ./...
	CGO_ENABLED=0 GOOS=linux GOARCH=arm64 $(GO) test -exec /bin/true -count=1 ./... >/dev/null

# Bounded coverage-guided exploration of the distance-kernel fuzz targets,
# of the WAL-record, WAL-replay and snapshot decoder ones, of the
# standby-apply and worker-probe handlers, of a corpus build on a
# released build's recycled slabs, and of the shuffle's radix sort
# against a stable sort; their seed corpora also run in every plain
# `go test`.
fuzz-smoke:
	$(GO) test -fuzz FuzzLevenshteinSIMDEquivalence -fuzztime 30s ./internal/strdist/simd/
	$(GO) test -fuzz FuzzLevenshteinBoundedU16 -fuzztime 30s ./internal/strdist/
	$(GO) test -fuzz FuzzSigLowerBound -fuzztime 30s ./internal/strdist/
	$(GO) test -fuzz FuzzDecodeRecord -fuzztime 30s ./internal/corpus/
	$(GO) test -fuzz FuzzReplayWAL -fuzztime 30s ./internal/corpus/
	$(GO) test -fuzz FuzzReadSnapshot -fuzztime 30s ./internal/corpus/
	$(GO) test -fuzz FuzzServeApply -fuzztime 30s ./internal/replica/
	$(GO) test -fuzz FuzzServeProbe -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz FuzzBuildCorpusRecycled -fuzztime 30s ./internal/token/
	$(GO) test -fuzz FuzzRadixSort -fuzztime 30s ./internal/radix/

# The second line stresses, ten times over, what many goroutines share:
# the process-wide slab free lists (concurrent joins, slabs handed
# between goroutines), one HTTP client's connection pool, the shared
# worker pool, and the coordinator under concurrent /add and /query.
race:
	$(GO) test -race ./internal/token/... ./internal/mapreduce/... ./internal/massjoin/... ./internal/stream/... ./internal/tsj/... ./internal/core/... ./internal/assignment/... ./internal/corpus/... ./internal/histo/... ./internal/replica/... ./internal/backoff/... ./internal/httpx/... ./internal/distrib/... ./internal/serve/... ./internal/iofault/... ./internal/prefilter/... ./internal/slab/... ./internal/workpool/... .
	$(GO) test -race -count=10 -run 'TestSelfJoinConcurrentRecycled|TestSlabReuseAcrossGoroutines|TestTransportConcurrentCalls|TestEachConcurrent|TestCoordinatorConcurrentAddQuery' . ./internal/slab ./internal/httpx ./internal/workpool ./internal/distrib

# Storage fault-injection suite under the race detector: the op-sweep
# torture tests (every WAL/snapshot/compact I/O operation, and every
# operation of a snapshot install, failed in turn, then reopen +
# invariant check), degraded-mode sealing and recovery,
# and the bit-rot loud-failure contract — plus the serving layer's
# degraded-mode end-to-end test. -short strides the sweep; the full
# sweep runs in the plain `test` target.
torture:
	$(GO) test -race -short -run 'Torture|Degraded|BitRot' -count=1 ./internal/corpus/ ./internal/serve/

# Replication torture under the race detector: every shipped WAL frame
# and snapshot install failed in turn (drop, torn write, delay, standby
# crash, primary crash), plus promotion and restart equivalence, the
# install handler's rejection of bad snapshots, and the serving layer's
# failover, install and old-RESYNC-directory tests. -short strides the
# frame sweep; the full sweep runs in the plain `test` target.
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
	$(GO) test -run='^$$' -bench='^BenchmarkSharded(Add|Query)$$' -benchtime=1x .

bench-verify:
	$(GO) test -run='^$$' -bench='SLD|Verify' -benchtime=1x -benchmem .

bench-candidates:
	$(GO) test -run='^$$' -bench='Candidates|Prefix' -benchtime=1x -benchmem .

bench-segment:
	$(GO) test -run='^$$' -bench=SegmentProbe -benchtime=1x -benchmem ./internal/stream/

bench-corpus:
	$(GO) test -run='^$$' -bench='CorpusAdd|SnapshotLoad|WALReplay' -benchtime=1x -benchmem ./internal/corpus/

equivalence-guard:
	@out=$$($(GO) test -v -run 'TestOracleEquivalence|TestBoundedEquivalence|TestPrefixEquivalence|TestSegmentPrefixEquivalence|TestRestartEquivalence|TestInstallEquivalence|TestSIMDEquivalence|TestTortureOpSweep|TestReplicationTortureSweep|TestPromotionEquivalence|TestJoinCorpusEquivalence|TestJoinSelfJoinEquivalence|TestClusterEquivalence|TestClusterE2E|TestPipelineAccountingGolden|TestFingerprintCollisionsAreHarmless|TestBuildCorpusMatchesReference|TestBuildCorpusRecycled|TestReleasedCorpusKeepsNoTokens|TestUseAfterReleaseFails|TestCorpusAddMatchesReference|TestNewIndexMatchesSortOrder|TestStoredSigEquivalence|TestSharedTokenCancelEquivalence|TestPipelineDeterministicUnderOverlap|TestSharedTokenLengthWindow|TestAttachedCorpusRefusesDirectWrites|TestAttachedMatcherSharesTokenSpace|TestCutoff|TestSlabReuse|TestSelfJoinAllocations|TestU16Row|TestJob1OwnershipSignatureCollisions|TestSortMatchesStableSort|FuzzLevenshteinBoundedU16' ./internal/... 2>&1) || { echo "$$out"; exit 1; }; \
	for pat in TestOracleEquivalence TestOracleEquivalenceDeletes TestBoundedEquivalence TestBoundedEquivalenceSigBound TestPrefixEquivalence TestSegmentPrefixEquivalence TestRestartEquivalence TestRestartEquivalenceDeletes TestInstallEquivalence TestSIMDEquivalence TestOracleEquivalenceOrientation TestTortureOpSweep TestReplicationTortureSweep TestPromotionEquivalence TestJoinCorpusEquivalence TestJoinSelfJoinEquivalence TestClusterEquivalence TestClusterE2E TestPipelineAccountingGolden TestFingerprintCollisionsAreHarmless TestBuildCorpusMatchesReference TestBuildCorpusRecycledMatchesFresh TestReleasedCorpusKeepsNoTokens TestUseAfterReleaseFails TestBuildCorpusRecycledAllocations TestCorpusAddMatchesReference TestNewIndexMatchesSortOrder TestStoredSigEquivalence TestSharedTokenCancelEquivalence TestPipelineDeterministicUnderOverlap TestSharedTokenLengthWindow TestAttachedCorpusRefusesDirectWrites TestAttachedMatcherSharesTokenSpace TestCutoff TestSlabReuseAcrossJobs TestSlabReuseAcrossGoroutines TestSlabReuseReleasesPointers TestSelfJoinAllocations TestU16RowEquivalence TestU16RowEquivalenceLong TestU16RowOverflowFallback TestJob1OwnershipSignatureCollisions TestSortMatchesStableSort FuzzLevenshteinBoundedU16; do \
		if ! echo "$$out" | grep -q -- "--- PASS: $$pat"; then \
			echo "no $$pat tests ran"; exit 1; fi; \
		if echo "$$out" | grep -q -- "--- SKIP: $$pat"; then \
			echo "$$pat tests were skipped"; exit 1; fi; \
	done; \
	echo "equivalence guard (naive-join oracle + stream frequencies under deletes + pair orientation + bounded + prefix + segment-prefix + restart + one frequency rule across restart/ship/install + snapshot install + simd kernels + torture + replication + corpus-join + join-is-self-join + cluster + job accounting + fingerprint collisions + corpus build + recycled corpus build, its release and its allocation bound + grown token corpus + prefix order + stored signatures + shared-token cancellation + candidate-generator overlap + shared-token length window + attached corpus refuses direct writes + one token space per durable node + finite-M cutoff oracle + recycled job slabs + slabs handed between goroutines + join allocation bound + banded DP at both row widths + Job 1 ownership under signature collisions (TestJob1OwnershipSignatureCollisions) + radix sort against a stable sort (TestSortMatchesStableSort)): ok"

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

ci: build bench-build lint test race torture replication-torture cluster-e2e equivalence-guard bench bench-verify bench-candidates bench-segment bench-corpus
