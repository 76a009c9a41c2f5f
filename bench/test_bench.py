"""Tests of the benchmark itself (not part of tier 1).

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(tracer.ALL)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "verdict_s", "setup_s", "cpu_s", "peak_rss_mb"]
    assert spec["per_layer"] == [
        {"name": n, "unit": tracer.metric_unit(n), "better": tracer.metric_better(n)}
        for n in tracer.metric_names()]


def test_children_are_timed_at_reference_speed():
    def child(verdict, cpu, reference):
        return run.Child("c", [], verdict_s=verdict, cpu_s=cpu, reference=reference)
    rounds = [[child(1.0, 3.0, [(0.1, 0.1), (0.2, 0.2), (0.9, 0.4)]),
               child(3.0, 1.0, [(0.3, 0.5)])],
              [child(2.0, 2.0, [(0.2, 0.25), (0.2, 0.25)]),
               child(6.0, 6.0, [])]]   # died before reporting: the run's median slice
    unit = run.reference.NOMINAL_S
    assert run.scaled(rounds, run.verdict_time, 0) == pytest.approx([15 * unit, 40 * unit])
    # CPU time leaves out the child's own slices
    assert run.scaled(rounds, run.main_cpu, 1) == pytest.approx([12.5 * unit, 30 * unit])


@pytest.mark.parametrize("exponents, coxeter, count", [
    ((1, 2, 3), 4, 14),                  # A3
    ((1, 2, 3, 4, 5), 6, 132),           # A5
    ((1, 3, 5, 3), 6, 50),               # D4
    ((1, 3, 5, 7, 4), 8, 182),           # D5
    ((1, 4, 5, 7, 8, 11), 12, 833),      # E6
])
def test_w_catalan_numbers(exponents, coxeter, count):
    assert workloads.w_catalan(exponents, coxeter) == count


def test_checks_reject_wrong_verdicts():
    good_a3 = {"class_count": 14, "edge_count": 21, "is_lattice": True,
               "hasse_edges": [[i, (i + k) % 14] for i in range(14) for k in (1, 7)
                               if k != 7 or i < 7]}
    check = workloads.tors_check("A3")
    assert check(good_a3) is None
    assert "W-Catalan" in check(dict(good_a3, class_count=13))
    assert "regular" in check(dict(good_a3, hasse_edges=good_a3["hasse_edges"][1:] + [[0, 3]]))
    knit = workloads.knit_check("D4", [(1, 2), (1, 3), (1, 4)])
    assert "positive roots" in knit({"modules": [{"dim": [1, 0, 0, 0]}] * 11})
    assert workloads.field_check("verified", True)({"verified": False})


def test_a_missing_function_fails_loudly():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        with pytest.raises(tracer.TracerError, match="no_such_function"):
            tracer.install([tracer.Layer("linalg", "no_such_function", ("calls",), tracer.ALL)])
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_tracer_leaves_no_unwrapped_binding():
    code = (
        "import json, sys\n"
        "import ftors.cli, tracer\n"
        "originals = {id(getattr(sys.modules['ftors.' + l.module], l.function)): l.name\n"
        "             for l in tracer.LAYERS}\n"
        "t = tracer.install()\n"
        "left = sorted(f'{n}.{a}' for n, m in sys.modules.items()\n"
        "              if n == 'ftors' or n.startswith('ftors.')\n"
        "              for a, v in vars(m).items() if id(v) in originals)\n"
        "print(json.dumps({'left': left, 'bindings': t.bindings}))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench", env=run.Runner(0).env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout)
    assert out["left"] == []
    # modules, tors, ar_quiver and the package each bind hom_basis
    assert out["bindings"]["modules.hom_basis"] >= 4


@pytest.fixture(scope="module")
def traced_twice():
    run.WORK.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(float("inf"))
    out = {}
    for workload in tracer.ALL:
        cmds = workloads.commands(workload, 0, run.WORK)
        out[workload] = runner.round(cmds, ("trace", "trace"))
    return out


@pytest.mark.parametrize("workload", tracer.ALL)
def test_traced_rounds_repeat_byte_for_byte(traced_twice, workload):
    first, second = traced_twice[workload]
    assert [c.failure for c in first + second] == [None] * (len(first) * 2)
    counters = [json.dumps(tracer.split_counters(run.sum_layers(r)), sort_keys=True)
                for r in (first, second)]
    assert counters[0] == counters[1]
    assert [c.report_sha256 for c in first] == [c.report_sha256 for c in second]
    assert all(c.report_sha256 for c in first)


def test_every_layer_is_called_where_it_is_listed(traced_twice):
    seen = set()
    for workload, (first, _) in traced_twice.items():
        raw = run.sum_layers(first)
        assert tracer.unused(raw, workload) == []
        seen |= {layer.name for layer in tracer.LAYERS if raw.get(f"{layer.name}.calls")}
    assert seen == {layer.name for layer in tracer.LAYERS}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "certificates",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
