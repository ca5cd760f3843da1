GO ?= go

.PHONY: build vet fmt test race fuzz bench bench-scale bench-gate profile cover docs golden golden-check golden-parallel ci

# The end-to-end benchmark (perfbench/) is its own module importing the
# internal packages, so build and vet cover it too: a change that breaks
# its compile fails here. Its build output is discarded (-o /dev/null),
# so nothing lands in perfbench/.
build:
	$(GO) build ./...
	$(GO) -C perfbench build -o /dev/null ./...

vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

# Formatting gate: every Go file in the tree must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz smokes, 10 s each: the timer queue against its sorted-slice
# reference model (internal/sim FuzzClockOrder), the scheduler's
# dirty-set repair against the rebuild oracle (internal/cfs
# FuzzRepairMirror), ns_monitor's marks and flush against the
# full-recompute reference (internal/sysns FuzzMonitorMirror), fsd's
# HTTP routes against arbitrary paths (internal/fsd FuzzRoutes), and the
# scenario interpreter against arbitrary script lines (internal/scenario
# FuzzLine). The committed seed corpora under each package's
# testdata/fuzz run in every plain `go test` as well.
fuzz:
	$(GO) test -run xxx -fuzz FuzzClockOrder -fuzztime 10s -parallel 2 ./internal/sim
	$(GO) test -run xxx -fuzz FuzzRepairMirror -fuzztime 10s -parallel 2 ./internal/cfs
	$(GO) test -run xxx -fuzz FuzzMonitorMirror -fuzztime 10s -parallel 2 ./internal/sysns
	$(GO) test -run xxx -fuzz FuzzRoutes -fuzztime 10s -parallel 2 ./internal/fsd
	$(GO) test -run xxx -fuzz FuzzLine -fuzztime 10s -parallel 2 ./internal/scenario

bench:
	$(GO) test -run xxx -bench . -benchtime=1x .

# Container-scale benchmark family: regenerate BENCH_scale.json (the
# committed trajectory, best-of-3 per point; see SCALING.md) and gate
# the steady-state hot paths at 0 allocs/op. Use the default settings
# when refreshing the committed baseline; CI runs the shorter bench-gate
# instead.
bench-scale:
	$(GO) run ./cmd/arvbench -scalebench 64,256,1024,4096,16384 -scalebench-reps 3 -json BENCH_scale.json
	$(GO) test -run xxx -bench ScaleSteady -benchmem -benchtime=50x . | tee bench-steady.txt
	$(GO) run ./internal/tools/benchgate -match ScaleSteady -max-allocs 0 bench-steady.txt
	rm -f bench-steady.txt

# Allocation gate only (short benchtime, no baseline regeneration):
# proves the steady-state scheduler tick (SchedulerTick: ten groups on
# the eager walk, one team callback each), the test oracle's full
# rebuild tick (SchedulerRebuild in internal/cfs: 4096 groups with pods,
# binding quotas and team callbacks), the production scheduler's worst
# case on that fleet (SchedulerRepairStorm: every group queued for
# repair every tick), the timer queue under churn (TimerChurn
# in internal/sim: 16 384 self-re-arming timers), the churn driver
# (ChurnFire in internal/faults: one tick of 16 384 churn rules firing
# and re-arming their embedded alarms) and view-update rounds
# stay allocation-free, as does the whole kernel loop of a churning host
# (ScaleSteadyChurn: churn timers re-arm in place), snapshot reads allocate nothing, a snapshot
# publication costs exactly its three buffers (header + two slices;
# DESIGN.md §11), a steady-state cluster step — four host steps plus a
# no-move rebalance round (DESIGN.md §12) — amortizes to zero, and a
# converged autoscaler control round (DESIGN.md §13) reads, decides,
# and holds without allocating. The final step is the regression gate
# (SCALING.md), run against two references. (1) The parent revision:
# the working tree's scalebench at n=1024 and n=16384 must stay within
# 25% of the parent's on both ns_per_sim_second and allocs_per_tick,
# so the large-n tail and the alloc budget are gated alongside the
# mid-size wall number. The parent is HEAD when the tree has changes
# and HEAD^ when it is clean (a commit is gated against the one before
# it), checked out in a temporary git worktree; both trees are built
# first, then run interleaved on the same machine, three best-of-3
# passes each with the order swapped on the middle pass, so host speed
# and noise fall on both sides alike, and each side's best is gated.
# (2) The committed BENCH_scale.json rows: allocs_per_tick within 25%,
# and ns_per_sim_second within 2x — loose enough for host-to-host
# speed differences, but a drift that slips past (1) a little at a
# time still fails once it adds up. Part of `make ci`.
bench-gate:
	$(GO) test -run xxx -bench 'SchedulerTick|ScaleSteady|Snapshot|ClusterSteady|AutoscaleSteady' -benchmem -benchtime=20x . | tee bench-steady.txt
	$(GO) test -run xxx -bench 'SchedulerRebuild|SchedulerRepairStorm' -benchmem -benchtime=20x ./internal/cfs | tee -a bench-steady.txt
	$(GO) test -run xxx -bench TimerChurn -benchmem -benchtime=20x ./internal/sim | tee -a bench-steady.txt
	$(GO) test -run xxx -bench ChurnFire -benchmem -benchtime=20x ./internal/faults | tee -a bench-steady.txt
	$(GO) run ./internal/tools/benchgate -match 'SchedulerTick|SchedulerRebuild|SchedulerRepairStorm|TimerChurn|ChurnFire|ScaleSteady|SnapshotRead|ClusterSteady|AutoscaleSteady' -max-allocs 0 bench-steady.txt
	$(GO) run ./internal/tools/benchgate -match SnapshotPublish -max-allocs 3 bench-steady.txt
	rm -f bench-steady.txt
	set -e; \
	if [ -n "$$(git status --porcelain)" ]; then rev=HEAD; else rev=HEAD^; fi; \
	git rev-parse --quiet --verify "$$rev^{commit}" >/dev/null || \
		{ echo "bench-gate: no $$rev to compare against (a shallow clone needs at least two commits)" >&2; exit 1; }; \
	echo "bench-gate: wall step compares the working tree against $$rev ($$(git rev-parse --short $$rev))"; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"; git worktree prune' EXIT; \
	git worktree add --quiet --detach "$$tmp/base" "$$rev"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/arvbench-base" ./cmd/arvbench); \
	$(GO) build -o "$$tmp/arvbench-work" ./cmd/arvbench; \
	base=; work=; \
	for i in 1 2 3; do \
		if [ $$i = 2 ]; then order="work base"; else order="base work"; fi; \
		for side in $$order; do \
			GOMAXPROCS=1 "$$tmp/arvbench-$$side" -scalebench 1024,16384 -scalebench-reps 3 -json "$$tmp/$$side-$$i.json" >/dev/null; \
		done; \
		base="$$base$${base:+,}$$tmp/base-$$i.json"; work="$$work$${work:+,}$$tmp/work-$$i.json"; \
	done; \
	$(GO) run ./internal/tools/benchgate -scale-baseline "$$base" -scale-fresh "$$work" -scale-n 1024,16384 -max-regress 0.25 -max-alloc-drift 0.25; \
	$(GO) run ./internal/tools/benchgate -scale-baseline BENCH_scale.json -scale-fresh "$$work" -scale-n 1024,16384 -max-regress 1.0 -max-alloc-drift 0.25

# CPU + heap profiles of the dominant scale point (pprof text top also
# printed for a quick look). Adjust N for other sizes and SPAN for the
# simulated span (0 = the scalebench default, 2 s); a longer span gives
# more samples on the steady churn path:
#   make profile N=4096
#   GOMAXPROCS=1 make profile SPAN=60s
N ?= 16384
SPAN ?= 0
profile:
	$(GO) run ./cmd/arvbench -scalebench $(N) -scalebench-span $(SPAN) -cpuprofile cpu.pprof -memprofile mem.pprof
	$(GO) tool pprof -top -nodecount 15 cpu.pprof
	@echo "profiles written: cpu.pprof mem.pprof (go tool pprof -http=:8080 cpu.pprof)"

# Coverage gate: the autoscaler closes a feedback loop against cgroup
# limits, so its engine must stay near-fully covered by the behavioral,
# property, and differential layers. Part of `make ci`.
cover:
	$(GO) test -coverprofile=cover-autoscaler.out ./internal/autoscaler/
	$(GO) run ./internal/tools/covercheck -min 85 cover-autoscaler.out
	rm -f cover-autoscaler.out

# Documentation gate: every package needs a package comment, the
# public API (arv) and the core internal packages must have no
# undocumented exported symbols, and every package-qualified identifier
# in a code span of DESIGN.md or README.md (sysns.Monitor,
# cfs.(*Scheduler).Tick) must name a declaration in the module.
docs:
	$(GO) run ./internal/tools/docscheck

# Rewrite testdata/golden after an intentional model change.
golden:
	$(GO) test -run TestExperimentsMatchGolden -update-golden .

# Verify the goldens sequentially (`make test` covers the default
# width, GOMAXPROCS), so ci exercises both ends of the worker sweep.
golden-check:
	$(GO) test -count=1 -run TestExperimentsMatchGolden -golden-workers 1 .

# Prove the goldens are byte-identical with trial-level parallelism.
golden-parallel:
	$(GO) test -count=1 -run TestExperimentsMatchGolden -golden-workers 8 .

ci: build vet fmt docs test race fuzz bench bench-gate cover golden-check golden-parallel
