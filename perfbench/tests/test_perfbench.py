"""Tests of the benchmark itself: tracer arithmetic, rebinding, checks,
seeded inputs. Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import iharazeta  # noqa: E402
from iharazeta import cli, families, multigraph, polydet, ranktwo, zeta  # noqa: E402
from iharazeta.intpoly import IntPoly  # noqa: E402
from iharazeta.multigraph import build_multigraph, parse_edge_list_text  # noqa: E402

import layers  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, install, rebind  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CliResult,
    class_fingerprint,
    coeff_digest,
    load_references,
    random_multigraph_text,
)


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_times_of_nested_spans():
    clock = ManualClock()
    tracer = Tracer(clock=clock)

    def c():
        clock.advance(4.0)

    def b():
        clock.advance(0.5)
        c()
        clock.advance(0.25)

    def a():
        clock.advance(1.0)
        b()
        clock.advance(2.0)
        b()
        clock.advance(3.0)

    c = tracer.wrap("c", c)
    b = tracer.wrap("b", b)
    a = tracer.wrap("a", a)
    a()
    clock.advance(100.0)  # time outside every span is not traced
    c()

    assert tracer.self_times == {"c": [4.0, 4.0, 4.0], "b": [0.75, 0.75], "a": [6.0]}
    assert tracer.root_time == 19.5
    assert tracer.self_time_sum() == tracer.root_time


def test_a_span_that_raises_is_closed():
    clock = ManualClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.advance(2.0)
        raise ValueError("boom")

    def outer():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            inner()
        clock.advance(1.0)

    inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    assert tracer.self_times == {"inner": [2.0], "outer": [2.0]}
    assert tracer.root_time == 4.0


def test_excluded_probe_time_leaves_the_spans():
    clock = ManualClock()
    tracer = Tracer(clock=clock)

    def work():
        clock.advance(3.0)
        clock.advance(0.5)  # a probe sample taken inside the span
        tracer.exclude(0.5)

    tracer.wrap("work", work)()
    tracer.exclude(1.0)  # outside every span: nothing to take out
    assert tracer.self_times["work"] == [3.0]
    assert tracer.root_time - tracer.excluded == tracer.self_time_sum() == 3.0


def test_rebind_reaches_every_lookup_site_and_restores():
    originals = (zeta.zeta_bass, polydet.lagrange_interpolate, multigraph.bareiss_int_det)
    restore, absent = install(Tracer(), [
        ("iharazeta.zeta", "zeta_bass", "bass"),
        ("iharazeta.intpoly", "lagrange_interpolate", "lagrange"),
        ("iharazeta.polydet", "bareiss_int_det", "bareiss"),
        ("iharazeta.polydet", "no_such_function", "gone"),
        ("iharazeta.no_such_module", "f", "gone_too"),
    ])
    try:
        assert absent == ["gone", "gone_too"]
        bass = zeta.zeta_bass
        assert bass is not originals[0] and bass.__wrapped__ is originals[0]
        assert cli._ENGINES["bass"] is bass
        assert cli.zeta_bass is bass and ranktwo.zeta_bass is bass
        assert families.zeta_bass is bass and iharazeta.zeta_bass is bass
        assert polydet.lagrange_interpolate.__wrapped__ is originals[1]
        assert multigraph.bareiss_int_det.__wrapped__ is originals[2]
    finally:
        restore()
    assert cli._ENGINES["bass"] is originals[0] and cli.zeta_bass is originals[0]
    assert polydet.lagrange_interpolate is originals[1]
    assert multigraph.bareiss_int_det is originals[2]


def test_absent_function_is_reported_not_raised():
    tracer, counter = Tracer(), layers.ResultCounter()
    values, absent = layers.layer_metrics(
        tracer, counter, passes=1, absent_spans=["intpoly.lagrange_interpolate"], speed=1.0
    )
    assert absent == ["intpoly.lagrange_s", "intpoly.lagrange_calls"]
    assert values["intpoly.lagrange_s"] == {"value": 0.0, "unit": "s"}


def _one_wrong_coefficient(engine):
    def corrupted(*args, **kwargs):
        report = engine(*args, **kwargs)
        cs = [report.poly.coeff(k) for k in range(report.degree + 1)]
        cs[len(cs) // 2] += 1
        return dataclasses.replace(report, poly=IntPoly(cs))

    return corrupted


def test_fail_ratio_counts_a_corrupted_engine():
    sweep = WORKLOADS["sweep"]
    inputs = sweep.setup(seed=0, workdir=None)
    clean = worker.measure(sweep, inputs, None, seconds=0, traced_too=False)
    assert (clean["attempted"], clean["failed"]) == (sweep.items, 0)

    restore = rebind(zeta.zeta_enum, _one_wrong_coefficient(zeta.zeta_enum))
    try:
        bad = worker.measure(sweep, inputs, None, seconds=0, traced_too=False)
    finally:
        restore()
    assert bad["failed"] / bad["attempted"] == 1.0  # every graph's enum result is off
    assert "enum != bass" in bad["notes"][0]


def test_large_check_counts_each_bad_call():
    large = WORKLOADS["large"]
    reference = {"k40": coeff_digest([1, 2]), "k9": coeff_digest([3]), "random10": coeff_digest([5])}
    good = [
        ("k40", CliResult(0, json.dumps({"coeffs": ["1", "2"]}), "")),
        ("k9", CliResult(0, json.dumps({"coeffs": ["3"]}), "")),
        ("trees", CliResult(0, json.dumps({"agree": True, "methods": {"zeta-derivative": "1", "kirchhoff": "1"}}), "")),
        ("random10", CliResult(0, json.dumps({"coeffs": ["5"]}), "")),
    ]
    assert large.check(good, reference) == (0, [])
    bad = list(good)
    bad[0] = ("k40", CliResult(0, json.dumps({"coeffs": ["1", "3"]}), ""))
    bad[2] = ("trees", CliResult(1, json.dumps({"agree": False, "methods": {}}), ""))
    bad[3] = ("random10", CliResult(None, "", "Traceback"))
    assert large.check(bad, reference)[0] == 3


def test_rank2_and_classes_checks_reject_changed_output():
    rank2 = WORKLOADS["rank2"]
    ref = {"stdout_sha256": "0" * 64}
    assert rank2.check(CliResult(0, "{}", ""), ref)[0] == rank2.items

    classes = WORKLOADS["classes"]
    triangle = build_multigraph([(0, 1), (1, 2), (2, 0)], 3)
    bouquet = build_multigraph([(0, 0), (0, 0)], 1)
    ref = {
        "per_edges": {"3": 1, "2": 1},
        "fingerprints": [class_fingerprint(triangle), class_fingerprint(bouquet)],
    }
    assert classes.check([bouquet, triangle], ref) == (0, [])
    assert classes.check([triangle, triangle], ref)[0] == 1
    assert classes.check("Traceback", ref)[0] == classes.items


def test_class_fingerprint_ignores_labels_but_separates_classes():
    g = build_multigraph([(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (2, 2)], 4)
    perm = [2, 0, 3, 1]
    h = build_multigraph([(perm[u], perm[v]) for u, v in g.edge_list()], 4)
    assert g != h and class_fingerprint(g) == class_fingerprint(h)
    refs = load_references()["classes"]
    assert refs["distinct_fingerprints"] == refs["count"] == 489


def _connected(g):
    seen, queue = {0}, deque([0])
    while queue:
        v = queue.popleft()
        for w in range(g.n):
            if g.mult[v][w] and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


@pytest.mark.parametrize("n,e", [(40, 780), (10, 36), (3, 5)])
def test_seeded_graphs_are_deterministic_connected_min_degree_two(n, e):
    texts = [random_multigraph_text(random.Random(seed), n, e) for seed in (7, 7, 8)]
    assert texts[0] == texts[1] != texts[2]
    for text in texts:
        g = parse_edge_list_text(text)
        assert (g.n, g.edge_count) == (n, e)
        assert _connected(g) and min(g.degrees()) >= 2
        assert any(g.loops)
        assert any(g.mult[i][j] >= 2 for i in range(n) for j in range(i + 1, n))


def test_large_inputs_depend_only_on_the_seed(tmp_path):
    large = WORKLOADS["large"]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()

    def files(d, seed):
        large.setup(seed, str(d))
        return {p.name: p.read_text() for p in sorted(d.iterdir())}

    assert files(tmp_path / "a", 3) == files(tmp_path / "b", 3)
    assert files(tmp_path / "a", 4) != files(tmp_path / "b", 3)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == [(n, u) for n, u, _, _ in layers.METRICS] + list(layers.TRACE_METRICS)
    spans = {span for _, _, span in layers.TARGETS}
    assert {span for _, _, span, _ in layers.METRICS} <= spans


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_speed_probe_samples_and_restores_the_signal_state():
    import signal
    import time

    from speed import timed

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    before = signal.getsignal(signal.SIGALRM)
    result, wall, scaled, speed = timed(busy, 0.2)
    assert result == "done" and wall >= 0.2
    assert speed > 0 and scaled > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
