PYTHONPATH := src
export PYTHONPATH

.PHONY: test torture chaos chaos-loop lockdep bench bench-e2e \
	bench-e2e-smoke profile-analytic profile-oltp rss lint typecheck \
	simcheck loc compat39

test:
	python -m pytest -x -q

# The sizes every CHANGES.md / ROADMAP entry quotes (house rule: net
# src/repro LOC goes down or the PR says why not).
loc:
	@find src/repro -name '*.py' | xargs cat | wc -l \
		| xargs printf 'src/repro/**/*.py  %s lines\n'
	@wc -l < src/repro/mapper/store.py \
		| xargs printf 'mapper/store.py    %s lines\n'
	@wc -l < src/repro/mapper/mappings.py \
		| xargs printf 'mapper/mappings.py %s lines\n'
	@wc -l < src/repro/mapper/read_cache.py \
		| xargs printf 'mapper/read_cache.py %s lines\n'
	@wc -l < src/repro/mapper/versions.py \
		| xargs printf 'mapper/versions.py %s lines\n'
	@cat benchmarks/*.py | wc -l \
		| xargs printf 'benchmarks/*.py    %s lines (outside e2e/)\n'

# Static analysis lanes.  ruff adds style checks when installed
# (configured in pyproject.toml); tools/dev_lint.py (AST hygiene +
# SIM3xx concurrency lint) and the standalone concurrency gate always
# run — they are dependency-free.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro tools; \
	fi
	python tools/dev_lint.py src/repro tools
	python -m repro lint --concurrency --strict

# Import every repro module under Python 3.9, the oldest version the
# repository supports: syntax newer than 3.9 fails the import, and so
# does a newer regex construct, since every static pattern is compiled
# at import.  pyenv picks its 3.9 by PYENV_VERSION; elsewhere it is
# ignored.  CI runs the same sweep with each matrix interpreter
# (PYTHON39=python).
PYTHON39 ?= python3.9
compat39: export PYENV_VERSION ?= 3.9.18
compat39:
	$(PYTHON39) -c "import importlib, pkgutil, sys, repro; \
	modules = pkgutil.walk_packages(repro.__path__, 'repro.'); \
	count = sum(1 for m in modules if importlib.import_module(m.name)); \
	print(count, 'modules import under Python', sys.version.split()[0])"

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; falling back to compileall"; \
		python -m compileall -q src/repro; \
	fi

# simcheck over the UNIVERSITY schema (the repo's own dogfood lane).
simcheck:
	python -c "from repro.workloads import UNIVERSITY_DDL; \
	open('/tmp/university.ddl', 'w').write(UNIVERSITY_DDL)"
	python -m repro lint /tmp/university.ddl --strict

# The seeded fault-injection crash-torture lane (fixed seed): a crash at
# every page write, log force and log append of four scripts (~1 000
# crash points), and the same matrix again with the write-ahead log
# compacting every few statements; see tests/test_torture.py.
torture:
	python -m pytest -q -m torture tests/test_torture.py

# The multi-session contention/fault chaos lane (seeded writer fleets,
# deadlock-prone mixes, committed-prefix oracle; see tests/test_chaos.py).
# Runs with runtime lockdep on: any lock-order violation fails the lane.
chaos:
	REPRO_LOCKDEP=1 python -m pytest -q -m chaos tests/test_chaos.py

# The tier-1 chaos scenarios, the forced-interleaving cache-fill tests,
# the writer forced inside a snapshot find, the writer that aborts
# inside a snapshot read, the plan cache's shared-entry sessions, two
# traced sessions (and two traced server connections) switched every
# 0.1 ms, a statement forced inside another's run, and a Database
# statement parked on (and reading beside) a Session's open write
# twenty times over: they assert invariants, a constructed deadlock, a
# constructed stale fill, a constructed stale probe, a constructed dirty
# read, one span tree per statement, one tally per statement and one
# transaction path, never scheduler luck, so every round must pass.
chaos-loop:
	for round in $$(seq 1 20); do \
		python -m pytest -q -p no:cacheprovider tests/test_chaos.py \
			tests/test_sessions.py::TestOneTransactionPath \
			tests/test_read_cache.py::TestValidatedFills \
			tests/test_read_protocol.py::TestFindBesideARacingWriter \
			tests/test_read_protocol.py::TestWriterThatAbortsBetweenTheProbes \
			tests/test_plan_cache.py::test_sessions_share_entries_but_never_per_run_state \
			tests/test_trace.py::TestTracingBesideASecondSession \
			tests/test_read_cache.py::TestPerfAccounting \
			|| exit 1; \
	done

# Runtime lock-order validation lane: lockdep unit tests plus the
# lock-heavy suites (sessions/mvcc/server), the plan cache — the one
# structure every session shares that takes no lock — the temporal
# suite (an as-of pin on one thread beside a committing Session on
# another), the read protocol over every mapping (a snapshot find
# beside a writer probes under a unit latch) and the two statement-
# accounting thread tests (a statement folds its tally under the
# counters' plain lock, holding no ranked one) — and the transaction
# and constraint suites, whose Database statements take class and
# entity locks and the commit latch — under REPRO_LOCKDEP=1.
lockdep:
	REPRO_LOCKDEP=1 python -m pytest -q tests/test_lockdep.py \
		tests/test_sessions.py tests/test_mvcc.py tests/test_server.py \
		tests/test_transactions.py tests/test_constraints.py \
		tests/test_plan_cache.py tests/test_history.py \
		tests/test_read_protocol.py \
		tests/test_trace.py::TestTracingBesideASecondSession \
		tests/test_read_cache.py::TestPerfAccounting

# The paper's experiments E3-E12 (benchmarks/bench_*.py): which mapping
# wins which operation, in deterministic block counts.  Each measured
# function runs once and only the counts are asserted (~5 s); for the
# indicative wall times EXPERIMENTS.md tabulates, run
# `pytest benchmarks/ --ignore=benchmarks/e2e --benchmark-only
# --benchmark-json=bench.json` and `python benchmarks/make_report.py
# bench.json`.  A time the repository claims comes from bench-e2e only.
bench:
	python -m pytest -q benchmarks/ --ignore=benchmarks/e2e --benchmark-disable

# The end-to-end benchmark BENCHMARK.json declares (benchmarks/e2e/):
# four workloads, both passes, results under benchmarks/e2e/out/.
bench-e2e:
	python3 benchmarks/e2e/run.py

# Its smoke test: every workload at a tenth of the data emits exactly
# the declared metric names (~20 s; the numbers mean nothing).
bench-e2e-smoke:
	python -m pytest benchmarks/e2e -q

# Where an analytic round spends its time: cProfile of three warm
# scale_queries rounds at 10 000 entities, then one cold round's
# physical reads per statement and file and two profiled cold rounds
# (analytic_cold's 104-frame pool, cold_cache() before each), top 25 by
# self time each.
profile-analytic:
	python tools/profile_analytic.py

# Where the analytic_cold database's memory goes: bytes per entity by
# owner (disk image, frames, log, caches, memos, versions, indexes),
# measured under tracemalloc after two cold rounds.
rss:
	python tools/rss_by_owner.py

# Where an OLTP operation spends its time: cProfile of 3 000 warm
# oltp_session operations, the statement front end row by row, then the
# top 25 by self time.
profile-oltp:
	python tools/profile_oltp.py
