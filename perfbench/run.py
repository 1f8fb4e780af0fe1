"""Benchmark of sympolar's exact workloads.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Every pass is one closed-loop caller in a
fresh child process (``child.py``) with its own empty ``SYMPOLAR_CACHE_DIR``,
one process at a time, so no in-memory or disk cache carries over between
passes.  Every operation checks its exact result; a wrong answer or an
exception counts as a failed operation.

``--trace 0`` runs timed passes for about ``--seconds``, with a few
set-up-only children before and after them, and reports the end-to-end
metrics.  ``--trace 1`` runs a traced, an untraced and a traced pass and
reports the per-layer metrics, the count invariants and the tracing
overhead.

The last line of standard output is the result object; the line before it
holds the run metadata and every per-pass figure.  See README.md here for
why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: The workloads and every reported metric's unit, as BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_PROBES = 8  # set-up-only children per untraced run, for a steady median
REF_SETUP_S = 0.1  # reference.py's spawn-to-exit time at the reference speed
DEADLINE_S = 170  # every run ends, or fails, within this many seconds


class RunError(RuntimeError):
    """The harness itself could not complete the run."""


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def run_metadata(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One child pass with a fresh empty cache directory; returns its report
    with the load average read before and after."""
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    cache = workdir / "cache"
    cache.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        SYMPOLAR_CACHE_DIR=str(cache),
        HOME=str(workdir),  # nothing can reach the user's own cache
        PYTHONHASHSEED="0",
    )
    before = loadavg()
    spawned = monotonic_ns()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, str(spawned), str(workdir)]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} pass of {workload} passed the {DEADLINE_S} s deadline") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RunError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["loadavg"] = [before, loadavg()]
    return report


def setup_probe(args, deadline: float) -> dict:
    """A set-up-only child, then ``reference.py`` timed from spawn to exit;
    the set-up time is rescaled by the reference's time to the reference
    speed, so that the slow and fast stretches of a shared machine cancel."""
    probe = spawn(args.workload, args.seed, "setup", deadline)
    start = time.perf_counter()
    try:
        subprocess.run(
            [sys.executable, str(HERE / "reference.py")], cwd=HERE, check=True,
            capture_output=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.SubprocessError as exc:
        raise RunError(f"reference.py failed: {exc}") from exc
    probe["reference_s"] = time.perf_counter() - start
    probe["setup_norm_s"] = probe["setup_s"] * REF_SETUP_S / probe["reference_s"]
    return probe


def untraced_run(args, deadline: float) -> tuple[list[dict], dict, dict]:
    # half the set-up-only children run before the timed passes and half
    # after: the machine's speed drifts over seconds, and children run back
    # to back would all land in one slow or fast stretch
    probes = [setup_probe(args, deadline) for _ in range(SETUP_PROBES // 2)]
    passes = []
    start = time.monotonic()
    # closed loop: start another pass only while it is expected to end
    # within --seconds, so a run measures about --seconds whatever the pass
    while True:
        passes.append(spawn(args.workload, args.seed, "timed", deadline))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    probes += [setup_probe(args, deadline) for _ in range(SETUP_PROBES // 2)]
    walls = [p["wall_s"] for p in passes]
    norm = [p["wall_norm_s"] for p in passes]
    setups = [p["setup_norm_s"] for p in probes]
    metrics = {
        "wall_norm_s": statistics.median(norm),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    details = {
        "samples": {"wall_s": len(walls), "setup_s": len(setups)},
        "wall_s": {"median": statistics.median(walls), "max": max(walls)},
        "wall_norm_s": {"median": metrics["wall_norm_s"], "max": max(norm)},
        "setup_s": {"median": metrics["setup_s"], "max": max(setups)},
        "probes": probes,
    }
    return passes, metrics, details


def failures(passes: list[dict]) -> tuple[int, list[str]]:
    """Operations attempted, and one message per failed operation."""
    ops = [op for p in passes for op in p["ops"]]
    return len(ops), [f"{op['op']}: {op['error']}" for op in ops if op["error"]]


def facts_total(report: dict, key: str) -> float:
    return sum(op["facts"].get(key, 0) for op in report["ops"])


def layer_metrics(report: dict) -> dict:
    """The per-layer metrics of one traced pass."""
    layers = report["layers"]
    out = {name: layers[name] for name in PER_LAYER if name in layers}
    for query in ("p2_full", "hexhex", "hexhex_lag"):
        out[f"capacity.ehz.{query}.s"] = facts_total(report, f"capacity.ehz.{query}.s")
    configs = facts_total(report, "configs")
    ehz_s = layers["capacity.ehz_brute_force.s"]
    out["capacity.configs"] = configs
    out["capacity.configs_per_s"] = configs / ehz_s if ehz_s else 0.0
    out["io.write_polytope.bytes"] = layers.get("io.write_polytope.bytes", 0)
    cliques = layers.get("pm1.maximal_cliques.items", 0)
    out["pm1.cliques"] = cliques
    out["pm1.hull_calls_per_clique"] = (
        layers["geometry.convex_hull.calls"] / cliques if cliques else 0.0
    )
    out["generate.iterations"] = facts_total(report, "iterations")
    pairs = facts_total(report, "pair_count")
    out["generate.selected_pair_frac"] = facts_total(report, "selected_pairs") / pairs if pairs else 0.0
    return out


def count_invariants(workload: str, layers: dict, report: dict) -> list[str]:
    """Exact call-count identities of each workload; returns the violations."""
    if workload == "table1":
        want = {
            "geometry.convex_hull.calls": 396,
            "geometry.volume.calls": 396,
            "pm1.cliques": 396,
        }
    elif workload == "generate":
        runs = sum(1 for op in report["ops"] if "iterations" in op["facts"])
        want = {"symplectic.expand_step.calls": layers["generate.iterations"] - runs}
    else:
        want = {"suspension.suspend_vertices.calls": 3, "capacity.ehz_brute_force.calls": 3}
    return [f"{k} = {layers[k]}, expected {v}" for k, v in want.items() if layers[k] != v]


def traced_run(args, deadline: float) -> tuple[list[dict], dict, dict]:
    first = spawn(args.workload, args.seed, "traced", deadline)
    plain = spawn(args.workload, args.seed, "timed", deadline)
    second = spawn(args.workload, args.seed, "traced", deadline)
    traced = [layer_metrics(first), layer_metrics(second)]
    problems = []
    for report, layers in zip((first, second), traced):
        problems += count_invariants(args.workload, layers, report)
    counts = [
        {k: v for k, v in layers.items() if PER_LAYER[k] in ("count", "bytes")}
        for layers in traced
    ]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append(f"counts differ between traced passes: {diff}")
    metrics = {
        name: statistics.median([layers[name] for layers in traced])
        for name in PER_LAYER if name in traced[0]
    }
    metrics.update(counts[0])
    traced_wall = statistics.median([first["wall_norm_s"], second["wall_norm_s"]])
    metrics["trace.overhead_frac"] = traced_wall / plain["wall_norm_s"] - 1
    # the raw wall time beside the rescaled one: a slowdown that also slows
    # the speed probe is divided out of wall_norm_s but shows here
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.untraced_wall_norm_s"] = plain["wall_norm_s"]
    details = {"invariant_violations": problems}
    return [first, plain, second], metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sympolar" / "__init__.py").is_file():
        print(f"no sympolar sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    meta = run_metadata(args)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            passes, metrics, details = traced_run(args, deadline)
        else:
            passes, metrics, details = untraced_run(args, deadline)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted, errors = failures(passes)
    problems = details.get("invariant_violations", [])
    for line in errors + problems:
        print(line, file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"BENCHMARK.json lists metrics this run does not measure: {missing}", file=sys.stderr)
        return 1
    details.update(
        meta,
        fail_frac=len(errors) / attempted,
        errors=errors,
        passes=[{k: v for k, v in p.items() if k != "layers"} for p in passes],
    )
    print(json.dumps(details))
    print(json.dumps({
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
