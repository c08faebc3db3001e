# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet fmt-check hogvet simvet certify lint bench bench-compare examples experiments tenants tiering verify golden trace chaos fuzz clean

build:
	go build ./...

vet:
	go vet ./...

# Formatting gate: every tracked Go file, testdata fixtures included,
# must be gofmt-clean. Lists the offenders before failing.
fmt-check:
	@gofmt -l $$(git ls-files '*.go')
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# Static hint-safety gate: hogc -vet exits non-zero on error-severity
# findings, over both the .hog sources in the tree and the built-in
# benchmarks.
hogvet: build
	@for f in examples/*.hog internal/compiler/testdata/*.hog; do \
		echo "hogc -vet $$f"; \
		go run ./cmd/hogc -vet -stats=false $$f >/dev/null || exit 1; \
	done
	@for b in `go run ./cmd/memhog list`; do \
		echo "hogc -vet -bench $$b"; \
		go run ./cmd/hogc -vet -stats=false -bench $$b >/dev/null || exit 1; \
	done

# Simulator-source invariants: the seven SV passes (determinism,
# map-order, emit pairing, nil-safe recorders, dropped errors,
# hot-path allocations, stale suppressions) over the whole module.
# Exits non-zero on any diagnostic.
simvet: build
	go run ./cmd/simvet ./...

# hogflow residency certificates: every benchmark's `certify` report
# must match its 1:0 golden listing, its `certify -far` report must
# match the listings at every DRAM:far ratio, and neither may depend on
# the campaign worker count.
certify: build
	@for b in `go run ./cmd/memhog list`; do \
		echo "memhog certify $$b"; \
		go run ./cmd/memhog certify $$b > /tmp/memhog-cert-got.txt; \
		{ echo "==== $$b ===="; cat internal/footprint/testdata/$$b.tier1-0.cert.golden; echo; } \
			| diff -u - /tmp/memhog-cert-got.txt || exit 1; \
		echo "memhog certify -far $$b"; \
		go run ./cmd/memhog certify -far $$b > /tmp/memhog-tiercert-got.txt; \
		for r in 1:0 3:1 1:1 1:3; do \
			f=`echo $$r | tr : -`; \
			echo "==== $$b @ $$r ===="; \
			cat internal/footprint/testdata/$$b.tier$$f.cert.golden; \
			echo; \
		done | diff -u - /tmp/memhog-tiercert-got.txt || exit 1; \
	done
	@go run ./cmd/memhog -j 1 certify > /tmp/memhog-cert-j1.txt
	@go run ./cmd/memhog -j 8 certify > /tmp/memhog-cert-j8.txt
	@cmp /tmp/memhog-cert-j1.txt /tmp/memhog-cert-j8.txt
	@go run ./cmd/memhog -j 1 certify -far > /tmp/memhog-tiercert-j1.txt
	@go run ./cmd/memhog -j 8 certify -far > /tmp/memhog-tiercert-j8.txt
	@cmp /tmp/memhog-tiercert-j1.txt /tmp/memhog-tiercert-j8.txt
	@echo "certify: 24 tier goldens match, worker-count independent"

lint: build vet fmt-check hogvet simvet certify

test: build vet
	go test ./...

# Scaled-machine campaign + ablations; minutes. BenchmarkSimMatrix
# also writes BENCH_sim.json (events/sec and virtual-seconds per wall
# second for every benchmark × version) for regression tracking.
bench:
	go test -run XXX -bench=. -benchmem ./...
	@test -f BENCH_sim.json || { echo "bench: BenchmarkSimMatrix never wrote BENCH_sim.json" >&2; exit 1; }
	@echo "bench: wrote BENCH_sim.json"

# Perf regression gate: rerun the simulator-throughput matrix once per
# cell and diff it against the committed baseline. Fails on any cell
# more than 25% below BENCH_baseline.json; refresh the baseline (copy
# BENCH_sim.json over it) only with a justification in the PR.
bench-compare: build
	@rm -f BENCH_sim.json
	go test -run XXX -bench BenchmarkSimMatrix -benchtime 1x .
	@test -f BENCH_sim.json || { echo "bench-compare: BenchmarkSimMatrix never wrote BENCH_sim.json" >&2; exit 1; }
	go run ./cmd/benchdiff -baseline BENCH_baseline.json -fresh BENCH_sim.json -max-regress 0.25

examples:
	go run ./examples/quickstart
	go run ./examples/interactive
	go run ./examples/stencil
	go run ./examples/indirect
	go run ./examples/timeline

# Full Table-1 platform; 10-15 minutes serial. `-j 0` runs the
# campaign's independent simulations on one worker per CPU with
# byte-identical output.
experiments:
	go run ./cmd/memhog -j 0 all

# Multi-tenant smoke: the NUMA-sharded campaign on the scaled machine
# must produce byte-identical tables at any worker count.
tenants: build
	@go run ./cmd/memhog -quick -quiet -j 1 tenants > /tmp/memhog-tenants-j1.txt
	@go run ./cmd/memhog -quick -quiet -j 4 tenants > /tmp/memhog-tenants-j4.txt
	@cmp /tmp/memhog-tenants-j1.txt /tmp/memhog-tenants-j4.txt
	@cat /tmp/memhog-tenants-j1.txt
	@echo "tenants: deterministic at any -j"

# Memory-tiering smoke: the DRAM:far sweep on the scaled machine must
# produce byte-identical tables at any worker count (the command also
# fails if Buffered ever takes more hard faults than Original).
tiering: build
	@go run ./cmd/memhog -quick -quiet -j 1 tiering > /tmp/memhog-tiering-j1.txt
	@go run ./cmd/memhog -quick -quiet -j 4 tiering > /tmp/memhog-tiering-j4.txt
	@cmp /tmp/memhog-tiering-j1.txt /tmp/memhog-tiering-j4.txt
	@cat /tmp/memhog-tiering-j1.txt
	@echo "tiering: deterministic at any -j"

# Check the paper's claims at full scale; exits non-zero on failure.
verify:
	go run ./cmd/memhog verify

# Regenerate the compiler's golden listings after intentional analysis
# changes.
golden:
	go run ./cmd/gen-golden

# Flight-recorder smoke test: the Chrome trace export must be valid
# JSON and byte-identical at any worker-pool setting.
trace: build
	@go run ./cmd/memhog -quick -quiet -j 1 trace matvec B > /tmp/memhog-trace-j1.json
	@go run ./cmd/memhog -quick -quiet -j 4 trace matvec B > /tmp/memhog-trace-j4.json
	@cmp /tmp/memhog-trace-j1.json /tmp/memhog-trace-j4.json
	@python3 -m json.tool /tmp/memhog-trace-j1.json > /dev/null
	@echo "trace: deterministic, valid JSON ($$(wc -c < /tmp/memhog-trace-j1.json) bytes)"

# Fault injection: the chaos property harness and the quick chaos
# matrix (benchmarks × versions × fault classes, continuously audited)
# under the race detector, plus a byte-identical replay check.
chaos: build
	go test -race -run 'TestChaos|TestMetamorphic' ./internal/chaostest/ ./internal/experiments/
	@go run ./cmd/memhog -quick -quiet -json chaos matvec B -seed 7 > /tmp/memhog-chaos-a.json
	@go run ./cmd/memhog -quick -quiet -json chaos matvec B -seed 7 > /tmp/memhog-chaos-b.json
	@cmp /tmp/memhog-chaos-a.json /tmp/memhog-chaos-b.json
	@echo "chaos: replay deterministic"

# Short fuzz sessions over the language front end and the chaos plan
# codec; `go test -fuzz=<name> -fuzztime=0` explores indefinitely.
fuzz:
	go test -fuzz=FuzzParse -fuzztime=10s ./internal/lang/
	go test -fuzz=FuzzVet -fuzztime=10s ./internal/lang/
	go test -fuzz=FuzzChaosPlan -fuzztime=10s ./internal/chaos/

clean:
	go clean ./...
