"""Tests of the benchmark harness itself: the exact gate counts a wrong
answer as a failed operation, the tracer wraps and restores, and the speed
probe gives the raw wall time when threads run.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import threading
import time
from fractions import Fraction

import child
import layers
import run
import workloads

import sympolar
from sympolar import convex_hull, geometry, symplectic


def test_wrong_pinned_value_counts_in_fail_frac(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPOLAR_CACHE_DIR", str(tmp_path / "cache"))
    pins = dict(workloads.FAMILY_PINS, volume_p3=Fraction(77, 31))
    ops = [op for op in workloads.family_ops(0, tmp_path, pins) if op.name == "volume_p3"]
    records = child.run_ops(ops)
    attempted, errors = run.failures([{"ops": records}])
    assert (attempted, len(errors)) == (1, 1)
    assert "vol(P_3)" in errors[0] and "77/31" in errors[0]


def test_wrong_generation_pin_counts_as_failed(tmp_path):
    panel = workloads.load_panel()
    seed = min(panel["ref_s"], key=panel["ref_s"].get)  # the cheapest run
    wrong = dict(panel["runs"][seed], vertex_count=panel["runs"][seed]["vertex_count"] + 2)
    panel = {"strata": [[int(seed)]], "ref_s": {seed: 1.0}, "runs": {seed: wrong}}
    ops = workloads.generate_ops(0, tmp_path, panel)
    attempted, errors = run.failures([{"ops": child.run_ops(ops)}])
    assert (attempted, len(errors)) == (1, 1)
    assert "Mismatch" in errors[0]


def test_raising_operation_is_a_failure_not_a_crash():
    def boom():
        raise RuntimeError("boom")

    ops = [workloads.Op("boom", boom), workloads.Op("fine", lambda: {"n": 1})]
    records = child.run_ops(ops)
    assert run.failures([{"ops": records}]) == (2, ["boom: RuntimeError: boom"])
    assert records[1]["facts"] == {"n": 1}


def test_generate_seeds_draw_one_per_stratum():
    panel = workloads.load_panel()
    seeds = workloads.generate_seeds(7, panel)
    assert seeds == workloads.generate_seeds(7, panel)
    assert [s in stratum for s, stratum in zip(seeds, panel["strata"])] == [True] * len(seeds)
    assert sorted(int(s) for s in panel["runs"]) == sorted(s for st in panel["strata"] for s in st)


def test_tracer_wraps_every_binding_and_restores():
    original = geometry.convex_hull
    tracer = layers.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        for module in (geometry, symplectic, sympolar, workloads):
            assert module.convex_hull is not original
        workloads.convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    finally:
        tracer.restore()
    for module in (geometry, symplectic, sympolar, workloads):
        assert module.convex_hull is original
    assert convex_hull is original
    report = tracer.report()
    assert report["geometry.convex_hull.calls"] == 1
    assert report["geometry.vertex_enumeration.calls"] == 1
    assert report["geometry.convex_hull.self_s"] <= report["geometry.convex_hull.s"]


def test_probe_gives_raw_wall_time_when_threads_run():
    worker = threading.Thread(target=time.sleep, args=(0.3,))
    worker.start()
    try:
        with child.SpeedProbe() as probe:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
    finally:
        worker.join()
    assert probe.slices and probe.max_threads >= 2
    assert probe.normalize(0.2) == 0.2
