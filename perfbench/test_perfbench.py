"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import canonica
import canonica.cli  # noqa: F401  (cli_mix ops look it up in sys.modules)
import check
import layers
import planted as pl
import worker
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n", [5, 6, 9, 12, 17])
@pytest.mark.parametrize("singular", [False, True])
def test_canon_recovers_planted_star_form(n, singular):
    rng = np.random.default_rng(n)
    form = pl.star_layout(rng, n, singular=singular)
    a = pl.hide(form, pl.haar_unitary(n, rng))
    f, t = canonica.canon_star(a)
    assert check.canon_mismatch(a, form, f.one_by_one, f.two_by_two, t) is None


@pytest.mark.parametrize("n", [5, 6, 9, 12, 17])
@pytest.mark.parametrize("singular", [False, True])
def test_canon_recovers_planted_congruence_form(n, singular):
    rng = np.random.default_rng(100 + n)
    form = pl.congruence_layout(rng, n, singular=singular)
    a = pl.hide(form, pl.haar_unitary(n, rng))
    f, t = canonica.canon_congruence(a)
    assert check.canon_mismatch(a, form, f.one_by_one, f.two_by_two, t) is None


def test_moved_parameter_is_detected():
    rng = np.random.default_rng(7)
    form = pl.star_layout(rng, 9)
    a = pl.hide(form, pl.haar_unitary(9, rng))
    f, t = canonica.canon_star(a)
    moved = pl.nudge(form, 4, 1e-4 * form.norm2)
    assert check.canon_mismatch(a, moved, f.one_by_one, f.two_by_two, t) is not None


def test_cli_mix_answers_match_construction_but_for_the_known_defect(tmp_path):
    ops = workloads.build("cli_mix", 3, tmp_path)
    assert len({op.label for op in ops}) == len(workloads.CLI_CASES)
    assert sorted(op.label for op in ops if op.known_defect) == sorted(workloads.KNOWN_DEFECT)
    for op in ops:
        if not op.known_defect:
            assert op.check(op.run()) is None, (op.index, op.label)


def _untraced(ops):
    return [worker.answer_digest(op, *worker.run_op(op)) for op in ops]


def _traced(ops, workload):
    tracer = Tracer()
    passes = worker.traced_pass(tracer, ops, workload)
    digests = [worker.answer_digest(op, result, err) for op, (result, err, _) in zip(ops, passes)]
    return digests, layers.per_layer(tracer)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_answers_and_lapack_counts_repeat(workload, tmp_path):
    limit = len(workloads.CLI_CASES) if workload == "cli_mix" else 1
    ops = workloads.build(workload, 5, tmp_path, limit=limit)
    untraced = _untraced(ops)
    first, layers_1 = _traced(ops, workload)
    second, layers_2 = _traced(ops, workload)
    assert first == untraced and second == untraced
    calls = [k for k in layers_1 if k.startswith("lapack.") and k.endswith(".calls")]
    assert {k: layers_1[k] for k in calls} == {k: layers_2[k] for k in calls}
    assert sum(layers_1[k] for k in calls) > 0


@pytest.mark.parametrize("workload", ["congruence_compare", "cli_mix"])
def test_lapack_counts_do_not_depend_on_the_seed(workload, tmp_path):
    limit = 4 if workload == "congruence_compare" else None
    counts = []
    for seed in (5, 6):
        (tmp_path / str(seed)).mkdir()
        ops = workloads.build(workload, seed, tmp_path / str(seed), limit=limit)
        layer = _traced(ops, workload)[1]
        counts.append({k: v for k, v in layer.items() if k.startswith("lapack.") and k.endswith(".calls")})
    assert counts[0] == counts[1]


def test_uninstall_restores_every_binding():
    before = {name: getattr(canonica, name) for name in dir(canonica)}
    svd = np.linalg.svd
    tracer = Tracer()
    tracer.install()
    assert canonica.canon_star is not before["canon_star"]
    assert np.linalg.svd is not svd
    tracer.uninstall()
    assert {name: getattr(canonica, name) for name in dir(canonica)} == before
    assert np.linalg.svd is svd


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0, 6)
        canonica.canon_star(pl.hide(pl.star_layout(np.random.default_rng(1), 6),
                                    pl.haar_unitary(6, np.random.default_rng(2))))
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    top = totals["canon_star.canon_star"]
    assert 0.0 <= top["self_s"] < top["total_s"]
    assert totals["lapack.eigh"]["calls"] >= 1


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
