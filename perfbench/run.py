"""Serving benchmark of the repro package: one command per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-1k --seed 1 --seconds 20 --trace 0

``--workload all`` runs serve-1k, churn-distinct and cluster-2p in turn,
each printing its own table and JSON line.

Each run starts the workload several times, each time in a fresh
interpreter with ``PYTHONHASHSEED`` fixed from ``--seed``, and combines
their timed samples (perfbench/DESIGN.md says how). ``--trace 0`` splits
``--seconds`` of steady serving over the repetitions and reports the
end-to-end metrics. ``--trace 1`` runs a fixed
amount of work twice, once plain and once with every layer wrapped, and
reports per-layer call counts, self times and ratios, plus the slowdown the
wrappers cause. Either way the outputs are checked (no failed operation,
batch totals equal per-query sums, each query's TRUE outcomes equal a replay
outside the timed phase); the last line of standard output is one JSON
object, and the exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("serve-1k", "churn-distinct", "cluster-2p")
#: Fresh interpreters per timed run; set-up is timed once in each.
REPETITIONS = 3
#: Sample kinds that a repetition takes in one short phase outside the
#: steady loop (serve-1k admits its 1000 queries in well under a second).
#: Their metrics are computed per repetition and the run reports the
#: median, so a burst of host noise during one such phase moves one value
#: of three instead of a third of the pooled samples.
ONCE_PER_REPETITION = {
    "serve-1k": ("admit", "depart"),
    "churn-distinct": (),
    "cluster-2p": ("admit", "depart"),
}
#: Steady rounds (waves for churn-distinct) of the fixed-work traced run.
TRACED_STEPS = {"serve-1k": 10, "churn-distinct": 50, "cluster-2p": 50}
#: Deadline of one workload's run; a child still running then is killed
#: with its workers.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("admit_per_s", "1/s"),
    ("admit_p50_ms", "ms"),
    ("admit_p95_ms", "ms"),
    ("depart_p50_ms", "ms"),
    ("evals_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("cost_per_eval", "cost/eval"),
    ("peak_rss_mb", "MB"),
)


def quantile(values: list[float], q: int, n: int) -> float:
    """The ``q``-th of the ``n``-quantile cut points of ``values``."""
    return statistics.quantiles(values, n=n, method="inclusive")[q - 1]


def run_child(workload: str, seed: int, deadline: float, extra: list[str]) -> dict[str, Any]:
    """One repetition in a fresh interpreter; its workers die with it on timeout."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"error: {workload} repetition passed the run deadline")
    if child.returncode != 0:
        raise SystemExit(f"error: {workload} repetition exited with {child.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def hash_seed(seed: int) -> int:
    return seed % 4294967296


def checks(parts: list[dict[str, Any]]) -> list[str]:
    problems = [problem for part in parts for problem in part["problems"]]
    for part in parts:
        if part.get("replay_mismatches"):
            problems.append(f"{part['replay_mismatches']} queries failed the replay check")
    return problems


def admit_metrics(samples: list[float]) -> dict[str, float]:
    return {
        "admit_per_s": len(samples) / sum(samples),
        "admit_p50_ms": statistics.median(samples) * 1e3,
        "admit_p95_ms": quantile(samples, 19, 20) * 1e3,
    }


def depart_metrics(samples: list[float]) -> dict[str, float]:
    return {"depart_p50_ms": statistics.median(samples) * 1e3}


def end_to_end(
    workload: str, parts: list[dict[str, Any]], raw: bool = False
) -> dict[str, tuple[float, int]]:
    """Metric -> (value, samples) for one run's repetitions.

    Times are host-normalized unless ``raw`` (see workloads.Session).
    """
    suffix = "_raw_s" if raw else "_s"
    table: dict[str, tuple[float, int]] = {}
    for kind, metrics_of in (("admit", admit_metrics), ("depart", depart_metrics)):
        pooled = [x for part in parts for x in part[kind + suffix]]
        if kind in ONCE_PER_REPETITION[workload]:
            each = [metrics_of(part[kind + suffix]) for part in parts]
            values = {name: statistics.median(one[name] for one in each) for name in each[0]}
        else:
            values = metrics_of(pooled)
        table.update((name, (value, len(pooled))) for name, value in values.items())
    batch = [x for part in parts for x in part["batch" + suffix]]
    evals = sum(part["steady_evals"] for part in parts)
    cost = sum(part["steady_cost"] for part in parts)
    table["evals_per_s"] = (evals / sum(batch), len(batch))
    table["batch_p50_ms"] = (statistics.median(batch) * 1e3, len(batch))
    table["batch_p90_ms"] = (quantile(batch, 9, 10) * 1e3, len(batch))
    table["cost_per_eval"] = (cost / evals, evals)
    table["setup_s"] = (statistics.median(part["setup" + suffix] for part in parts), len(parts))
    table["peak_rss_mb"] = (statistics.median(part["peak_rss_mb"] for part in parts), len(parts))
    return table


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list]:
    parts = [
        run_child(workload, seed, deadline,
                  ["--seconds", repr(seconds / REPETITIONS)] + (["--replay"] if i == 0 else []))
        for i in range(REPETITIONS)
    ]
    table = end_to_end(workload, parts)
    raw = end_to_end(workload, parts, raw=True)
    probe_ms = statistics.median(part["probe_s"] for part in parts) * 1e3
    print(f"{workload}: seed {seed}, PYTHONHASHSEED {hash_seed(seed)}, "
          f"{REPETITIONS} fresh interpreters, {seconds:g} s steady in total, "
          f"host probe {probe_ms:.4g} ms (reference {parts[0]['probe_ref_s'] * 1e3:g} ms)")
    print(f"  {'metric':<16} {'normalized':>14} {'raw':>14} {'unit':<10} samples")
    for name, unit in END_TO_END:
        value, samples = table[name]
        print(f"  {name:<16} {value:>14.6g} {raw[name][0]:>14.6g} {unit:<10} n={samples}")
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    frac = failed / attempted
    print(f"  {'failed_frac':<16} {frac:>14.6g} {frac:>14.6g} {'ratio':<10} n={attempted}")
    metrics = {name: {"value": table[name][0], "unit": unit} for name, unit in END_TO_END}
    return metrics, parts


def traced_run(workload: str, seed: int, deadline: float) -> tuple[dict, list]:
    steps = ["--steps", str(TRACED_STEPS[workload])]
    spans = os.path.join(HERE, "out", f"spans-{workload}-{seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    plain = run_child(workload, seed, deadline, steps + ["--replay"])
    traced = run_child(workload, seed, deadline, steps + ["--trace", spans])
    values: dict[str, float] = dict(traced["layers"])
    values.update(traced["ratios"])
    slowdown = {}
    for label, key in (("evals", "batch_s"), ("admit", "admit_s")):
        # Same work in both runs, so the rate ratio is the summed-time ratio.
        slowdown[label] = sum(traced[key]) / sum(plain[key])
    values["tracing.evals_slowdown"] = slowdown["evals"]
    values["tracing.admit_slowdown"] = slowdown["admit"]
    absent = set(traced["absent"])
    print(f"{workload}: seed {seed}, PYTHONHASHSEED {hash_seed(seed)}, "
          f"{TRACED_STEPS[workload]} steady steps, spans in {os.path.relpath(spans, ROOT)}")
    for name, value in values.items():
        op = name.rsplit(".", 1)[0]
        shown = "absent" if op in absent else f"{value:.6g}"
        print(f"  {name:<52} {shown:>14} {layer_unit(name)}")
    metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}
    return metrics, [plain, traced]


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix == "self_ms":
        return "ms"
    if suffix in ("bytes_out", "bytes_in"):
        return "bytes"
    if suffix in ("calls", "evictions"):
        return "count"
    if suffix.endswith("slowdown"):
        return "x"
    return "ratio"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    """One run: table, then the JSON line; returns the exit status."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        metrics, parts = traced_run(workload, seed, deadline)
    else:
        metrics, parts = timed_run(workload, seed, seconds, deadline)
    problems = checks(parts)
    for problem in problems:
        print(f"  check failed: {problem}")
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(name, args.seed, args.seconds, args.trace) for name in workloads)


if __name__ == "__main__":
    sys.exit(main())
