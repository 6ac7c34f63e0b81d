"""One workload of the serving benchmark, run in a fresh interpreter.

``perfbench/run.py`` starts this script once per repetition and reads the
JSON object it prints last. The workloads call only the surface that
outlives planned refactors of the serving core: ``QueryServer(registry)``,
``ClusterServer(registry, n_shards, executor, seed)``, ``register``,
``deregister``, ``register_population``, ``run_batch(1)`` and ``close``,
plus the input generators. They pass no engine or plan options and read
only public attributes.

Usage (normally through run.py)::

    python3 perfbench/workloads.py --workload serve-1k --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import time
from collections import deque
from typing import Any, Callable, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from repro.cluster import ClusterServer  # noqa: E402
from repro.cluster.cluster import default_oracle_factory  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.generators import clustered_registry, overlap_clustered_population  # noqa: E402
from repro.service import QueryServer, synthetic_population, synthetic_registry  # noqa: E402

#: Rounds of each query's life whose TRUE outcomes are replayed outside the
#: timed phases and compared.
PREFIX_ROUNDS = 3
#: Relative tolerance of the report-total-equals-per-query-sum check.
SUM_RTOL = 1e-9
#: Host-speed probe: timed at least every PROBE_EVERY_S of timed calls.
#: PROBE_REF_S is about its time on a quiet 2-core x86 host with Python
#: 3.11, so normalized times read like raw times there.
PROBE_EVERY_S = 0.025
PROBE_REF_S = 5e-4
PROBE_ITEMS = 4000


def probe_work() -> int:
    """Fixed pure-Python work: dictionary updates, as the serving loop does."""
    table: dict[int, int] = {}
    for i in range(PROBE_ITEMS):
        table[i % 977] = table.get(i % 977, 0) + i
    return len(table)


class Budget:
    """Steady phase length: a wall-clock budget, or a fixed step count."""

    def __init__(self, seconds: float | None, steps: int | None) -> None:
        self.seconds = seconds
        self.steps = steps

    def run(self, step: Callable[[], None]) -> None:
        start = time.perf_counter()
        for done in itertools.count():
            if self.steps is not None and done >= self.steps:
                return
            if self.seconds is not None and time.perf_counter() - start >= self.seconds:
                return
            step()


class Session:
    """Times each call into the server and checks each batch report.

    Host noise on a shared machine comes in bursts that slow this process
    evenly, so every timed sample is paired with a fixed pure-Python probe
    run next to it: :meth:`normalized` divides each sample by the mean of
    the probes just before and just after it and scales by
    :data:`PROBE_REF_S`. Raw samples are kept as well.
    """

    def __init__(self) -> None:
        self.probe_times: list[float] = []
        self._probe_spans: list[tuple[float, float]] = []
        self._last_probe = float("-inf")
        self.samples: dict[str, list[tuple[float, int]]] = {
            "admit": [], "depart": [], "batch": [],
        }
        probe_work()  # first run warms the interpreter's specialized code
        self.probe()
        self._setup_from = len(self.probe_times) - 1
        self.setup_raw_s = 0.0
        self.setup_s = 0.0
        self.steady_evals = 0
        self.steady_cost = 0.0
        self.evals = 0
        self.query_probes = 0
        self.free_probes = 0
        self.items_fetched = 0
        self.items_saved = 0
        self.shard_seconds: dict[int, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.trees: dict[str, Any] = {}
        self.history: dict[str, list[bool]] = {}
        self._open: set[str] = set()

    def probe(self) -> None:
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.probe_times.append(end - start)
        self._probe_spans.append((start, end))
        self._last_probe = end

    def normalized(self, kind: str) -> list[float]:
        out = []
        last = len(self.probe_times) - 1
        for elapsed, i in self.samples[kind]:
            host = (self.probe_times[i] + self.probe_times[min(i + 1, last)]) / 2
            out.append(elapsed * PROBE_REF_S / host)
        return out

    def raw(self, kind: str) -> list[float]:
        return [elapsed for elapsed, _ in self.samples[kind]]

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def call(self, op: str, fn: Callable[..., Any], *args: Any,
             kind: str | None = None, **kwargs: Any) -> Any:
        if kind is not None and time.perf_counter() - self._last_probe >= PROBE_EVERY_S:
            self.probe()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except ReproError as exc:
            self.failed += 1
            self.problem(f"{op} raised {exc!r}")
            return None
        if kind is not None:
            self.samples[kind].append((time.perf_counter() - start, len(self.probe_times) - 1))
        return result

    def track(self, name: str, tree: Any) -> None:
        self.trees[name] = tree
        self.history[name] = []
        self._open.add(name)

    def register(self, server: Any, name: str, tree: Any, *, timed: bool, **kwargs: Any) -> None:
        self.track(name, tree)
        self.call("register", server.register, name, tree,
                  kind="admit" if timed else None, **kwargs)

    def deregister(self, server: Any, name: str) -> None:
        self._open.discard(name)
        self.call("deregister", server.deregister, name, kind="depart")

    def end_setup(self) -> None:
        """Set-up ends at the first steady batch.

        Each stretch between two probes is normalized by those two probes,
        as a sample is; probe time itself is not set-up.
        """
        self.probe()
        first = self._setup_from
        for k in range(first, len(self.probe_times) - 1):
            work = self._probe_spans[k + 1][0] - self._probe_spans[k][1]
            host = (self.probe_times[k] + self.probe_times[k + 1]) / 2
            self.setup_raw_s += work
            self.setup_s += work * PROBE_REF_S / host

    def phase(self) -> None:
        """Start a timed phase from a collected heap (and close the last one)."""
        gc.collect()
        self.probe()

    def batch(self, server: Any, *, steady: bool) -> None:
        report = self.call("run_batch", server.run_batch, 1,
                           kind="batch" if steady else None)
        if report is None:
            return
        per_query = report.per_query_cost
        parts = sum(per_query.values())
        if abs(report.total_cost - parts) > SUM_RTOL * max(1.0, abs(parts)):
            self.problem(f"batch total {report.total_cost!r} != per-query sum {parts!r}")
        shards = getattr(report, "shard_reports", None)
        if shards is not None:
            shard_total = sum(shard.total_cost for shard in shards.values())
            if abs(report.total_cost - shard_total) > SUM_RTOL * max(1.0, abs(shard_total)):
                self.problem(f"cluster total {report.total_cost!r} != shard sum {shard_total!r}")
            for shard_id, seconds in report.shard_seconds.items():
                self.shard_seconds[shard_id] = self.shard_seconds.get(shard_id, 0.0) + seconds
        evals = len(per_query) * report.rounds
        self.evals += evals
        self.query_probes += report.probes
        self.free_probes += report.free_probes
        self.items_fetched += report.items_fetched
        self.items_saved += report.items_saved
        if steady:
            self.steady_evals += evals
            self.steady_cost += report.total_cost
        rates = report.per_query_true_rate
        for name in list(self._open):
            if name in rates:
                self.history[name].append(rates[name] == 1.0)
                if len(self.history[name]) >= PREFIX_ROUNDS:
                    self._open.discard(name)

    def ratios(self, plan_cache: Any, substore: Any, router: Any = None) -> dict[str, float]:
        """Hit rates and per-eval counts read from public stats."""
        memo = substore.memo_hits + substore.memo_misses if substore is not None else 0
        seconds = list(self.shard_seconds.values())
        return {
            "service.plan_cache.hit_rate": plan_cache.hit_rate,
            "service.plan_cache.subtree_hit_rate": plan_cache.subtree_hit_rate,
            "service.plan_cache.evictions": plan_cache.evictions,
            "service.substore.memo_hit_rate": substore.memo_hits / memo if memo else 0.0,
            "service.server.free_probe_ratio": _ratio(self.free_probes, self.query_probes),
            "service.server.probes_per_eval": _ratio(self.query_probes, self.evals),
            "streams.cache.items_saved_ratio": _ratio(
                self.items_saved, self.items_saved + self.items_fetched
            ),
            "cluster.router.overlap_hit_rate": router.overlap_hit_rate if router else 0.0,
            "cluster.cluster.shard_skew": (
                max(seconds) / (sum(seconds) / len(seconds)) if seconds else 0.0
            ),
        }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- workloads ---------------------------------------------------------------


def serve_1k(s: Session, seed: int, budget: Budget) -> tuple[dict, Callable]:
    registry = synthetic_registry(16)
    population = synthetic_population(1000, registry, seed=seed)
    oracles = default_oracle_factory(seed)
    server = QueryServer(registry)
    for name, tree in population:
        s.register(server, name, tree, timed=True, oracle=oracles(name))
    s.batch(server, steady=False)
    s.end_setup()
    s.phase()
    budget.run(lambda: s.batch(server, steady=True))
    s.phase()
    for name, _ in population:
        s.deregister(server, name)
    ratios = s.ratios(server.plan_cache, server.substore)
    return ratios, lambda: replay_isolated(s, registry, oracles)


def distinct_queries(registry: Any, seed: int) -> Iterator[tuple[str, Any]]:
    """Long-tail queries, each drawn from a template of its own."""
    for i in itertools.count():
        [(_, tree)] = synthetic_population(1, registry, seed=seed * 1_000_003 + i)
        yield f"d{i:05d}", tree


def churn_distinct(s: Session, seed: int, budget: Budget) -> tuple[dict, Callable]:
    registry = synthetic_registry(16)
    oracles = default_oracle_factory(seed)
    fresh = distinct_queries(registry, seed)
    server = QueryServer(registry)
    resident: deque[str] = deque()

    def admit(timed: bool) -> None:
        name, tree = next(fresh)
        s.register(server, name, tree, timed=timed, oracle=oracles(name))
        resident.append(name)

    for _ in range(200):
        admit(timed=False)
    s.batch(server, steady=False)
    s.end_setup()

    def wave() -> None:
        for _ in range(10):
            s.deregister(server, resident.popleft())
        for _ in range(10):
            admit(timed=True)
        s.batch(server, steady=True)

    s.phase()
    budget.run(wave)
    ratios = s.ratios(server.plan_cache, server.substore)
    return ratios, lambda: replay_isolated(s, registry, oracles)


def cluster_2p(s: Session, seed: int, budget: Budget) -> tuple[dict, Callable]:
    registry = clustered_registry(8, 6)
    # 10 templates per cluster: the 10:1 isomorph ratio of serve-1k, and
    # every stream in use, so cost per eval does not vary with the seed.
    population = overlap_clustered_population(
        800, registry, 8, 6, templates_per_cluster=10, cross_cluster_prob=0.0, seed=seed
    )
    cluster = ClusterServer(registry, n_shards=2, executor="process", seed=seed)
    try:
        for name, tree in population:
            s.track(name, tree)
        s.call("register_population", cluster.register_population, population[:500])
        for name, tree in population[500:]:
            s.register(cluster, name, tree, timed=True)
        s.batch(cluster, steady=False)
        s.end_setup()
        s.phase()
        budget.run(lambda: s.batch(cluster, steady=True))
        s.phase()
        for name, _ in population[500:]:
            s.deregister(cluster, name)
        ratios = s.ratios(cluster.plan_cache, cluster.substore, cluster.router)
    finally:
        cluster.close()
    return ratios, lambda: replay_unsharded(s, registry, population, default_oracle_factory(seed))


WORKLOADS: dict[str, Callable[[Session, int, Budget], tuple[dict, Callable]]] = {
    "serve-1k": serve_1k,
    "churn-distinct": churn_distinct,
    "cluster-2p": cluster_2p,
}


# -- output checks -------------------------------------------------------------


def _compare(s: Session, name: str, replayed: list[bool]) -> bool:
    if replayed != s.history[name]:
        s.problem(f"{name}: TRUE outcomes {s.history[name]} but replay gave {replayed}")
        return False
    return True


def replay_isolated(s: Session, registry: Any, oracles: Any) -> int:
    """Each query alone on its own server must see the same TRUE outcomes."""
    mismatches = 0
    for name, history in s.history.items():
        if not history:
            continue
        server = QueryServer(registry)
        server.register(name, s.trees[name], oracle=oracles(name))
        replayed = []
        for _ in history:
            replayed.append(server.run_batch(1).per_query_true_rate[name] == 1.0)
        mismatches += not _compare(s, name, replayed)
    return mismatches


def replay_unsharded(s: Session, registry: Any, population: list, oracles: Any) -> int:
    """The whole population on one unsharded server must agree per query."""
    server = QueryServer(registry)
    for name, tree in population:
        server.register(name, tree, oracle=oracles(name))
    rounds = max(len(history) for history in s.history.values())
    outcomes: dict[str, list[bool]] = {name: [] for name, _ in population}
    for _ in range(rounds):
        for name, rate in server.run_batch(1).per_query_true_rate.items():
            outcomes[name].append(rate == 1.0)
    return sum(
        not _compare(s, name, outcomes[name][: len(history)])
        for name, history in s.history.items()
    )


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="steady phase wall-clock budget")
    parser.add_argument("--steps", type=int, help="steady phase rounds (or waves)")
    parser.add_argument("--trace", metavar="SPANS_FILE", help="wrap the layers, write spans here")
    parser.add_argument("--replay", action="store_true", help="run the outcome replay check")
    args = parser.parse_args(argv)
    if (args.seconds is None) == (args.steps is None):
        parser.error("give exactly one of --seconds and --steps")

    tracer = None
    if args.trace:
        tracer = layers.Tracer(run_id=f"{args.workload}:{args.seed}:{os.getpid()}")
        layers.install(tracer)
    gc.collect()
    session = Session()
    ratios, replay = WORKLOADS[args.workload](
        session, args.seed, Budget(args.seconds, args.steps)
    )
    session.phase()
    result: dict[str, Any] = {
        "setup_s": session.setup_s,
        "setup_raw_s": session.setup_raw_s,
        "probe_s": statistics.median(session.probe_times),
        "probe_ref_s": PROBE_REF_S,
        "steady_evals": session.steady_evals,
        "steady_cost": session.steady_cost,
        "attempted": session.attempted,
        "failed": session.failed,
        "peak_rss_mb": peak_rss_mb(),
        "ratios": ratios,
    }
    for kind in session.samples:
        result[f"{kind}_s"] = session.normalized(kind)
        result[f"{kind}_raw_s"] = session.raw(kind)
    if tracer is not None:
        result["layers"] = tracer.layer_table()
        result["absent"] = tracer.absent
        tracer.write(args.trace)
    if args.replay:
        result["replayed"] = sum(1 for history in session.history.values() if history)
        result["replay_mismatches"] = replay()
    result["problems"] = session.problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
