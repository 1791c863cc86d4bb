"""The three benchmark workloads.

build() turns (workload, seed) into a list of Op: a call into the
library, the size of its input, and a check of its answer against the
planted construction.  Inputs come only from the seed; the library sees
only the generated matrices (or, for cli_mix, the JSON files holding
them).

star_canon_large    canon_star on squared-normal matrices, n = 256, with
                    a singular part, 1-by-1 blocks on a few rays and
                    pair blocks on a small palette of mu.  The dense
                    LAPACK path: regularization, cosquare, eig_normal.
congruence_compare  decide_unitary_congruence on nonsingular
                    congruence-normal pairs, n = 128; half equivalent,
                    half with one parameter moved by 1e-4 * scale.  Runs
                    Takagi, Hua, per-pair SVDs and the equivalence layer;
                    regularize takes its nonsingular shortcut.
cli_mix             cli.run in process on JSON files, n in [2, 48],
                    every subcommand but selftest, inputs scaled by c
                    on a log-spaced grid over [1e-3, 1e3].  Small, scaled and
                    out-of-class input through the CLI and JSON layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import check
import planted as pl

WORKLOADS = ("star_canon_large", "congruence_compare", "cli_mix")

STAR_N = 256
STAR_POOL = 8
CONGRUENCE_N = 128
CONGRUENCE_POOL = 16
# A parameter move of this size, relative to the spectral norm, makes a
# pair inequivalent.  cli_mix moves further, so that even at its
# smallest scale the move stays well above the absolute block
# tolerance of the equivalence layer (1e-7) and the construction, not
# that tolerance, decides the verdict.
MOVE = 1e-4
CLI_MOVE = 1e-3
CLI_SIZES = (5, 6, 9, 12, 17, 24, 33, 48)
CLI_SCALE_DECADES = (-3.0, 3.0)
# The cli_mix cases whose generic input, at the smallest scale, the
# floor max(1, ...) in rel_residual pushes into the normality classes:
# classify reports class flags the matrix does not have, and compare
# exits 2 where it should return unsupported.  These ops fail on every
# seed; no other op may fail.
KNOWN_DEFECT = ("classify_generic", "compare_congruence_generic", "compare_star_generic")


@dataclass
class Op:
    """One library call with its expected answer.

    run() performs the call and returns its result; check(result)
    returns None or the reason the answer is wrong; digest(result) gives
    bytes that identify the answer exactly.  known_defect marks the
    ops that the library answers wrongly on every seed because of the
    absolute floor max(1, ...) in rel_residual (see KNOWN_DEFECT).
    """

    index: int
    n: int
    label: str
    run: Callable
    check: Callable
    digest: Callable
    known_defect: bool = False


def _lib():
    return sys.modules["canonica"]


def _rng(seed: int, workload: str, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])


def build(workload: str, seed: int, workdir: Path, stream: int = 0,
          limit: int | None = None) -> list[Op]:
    """The op list of a workload.  stream 0 is the measured pool;
    another stream gives independent instances, used to warm up.
    cli_mix writes its input files to workdir."""
    rng = _rng(seed, workload, stream)
    if workload == "star_canon_large":
        return _star_ops(rng, limit or STAR_POOL)
    if workload == "congruence_compare":
        return _congruence_ops(rng, limit or CONGRUENCE_POOL)
    if workload == "cli_mix":
        return _cli_ops(rng, workdir, limit)
    raise ValueError(f"unknown workload {workload!r}")


# ----- star_canon_large --------------------------------------------------


def _star_ops(rng, count: int) -> list[Op]:
    ops = []
    for i in range(count):
        # 4 rays x 25 + 5 mu values x 15 pair blocks + 2 elementary
        # blocks + 2 zeros = 256; nullity 4.
        form = pl.star_form(rng, [25] * 4, [15] * 5, n_elementary=2, n_zero=2)
        a = pl.hide(form, pl.haar_unitary(STAR_N, rng))
        ops.append(Op(i, STAR_N, "canon_star", _canon_star_call(a),
                      _canon_star_check(a, form), _canon_digest))
    return ops


def _canon_star_call(a):
    return lambda: _lib().canon_star(a)


def _canon_star_check(a, form):
    def run_check(result):
        f, t = result
        return check.canon_mismatch(a, form, f.one_by_one, f.two_by_two, t)
    return run_check


def _canon_digest(result) -> bytes:
    f, t = result
    return repr((f.one_by_one, f.two_by_two)).encode() + t.tobytes()


# ----- congruence_compare ------------------------------------------------


def _congruence_form(rng) -> pl.Form:
    # +1 group: 4 values x 4 and 24 distinct sigma (40); -1 group: one
    # tau twice and 10 single (24); unimodular mu: 3 x 4 blocks (24);
    # interior mu: 4 x 5 blocks (40).  n = 128.
    return pl.congruence_form(rng, [4] * 4 + [1] * 24, [2] + [1] * 10, [4] * 3, [5] * 4)


def _congruence_ops(rng, count: int) -> list[Op]:
    ops = []
    for i in range(count):
        form_a = _congruence_form(rng)
        equivalent = i % 2 == 0
        form_b = form_a if equivalent else pl.nudge(form_a, 37 * (i // 2), MOVE * form_a.norm2)
        a = pl.hide(form_a, pl.haar_unitary(CONGRUENCE_N, rng))
        b = pl.hide(form_b, pl.haar_unitary(CONGRUENCE_N, rng))
        expected = "equivalent" if equivalent else "not_equivalent"
        ops.append(Op(i, CONGRUENCE_N, expected, _decide_call(a, b),
                      _decide_check(form_a, form_b, expected), _verdict_digest))
    return ops


def _decide_call(a, b):
    return lambda: _lib().decide_unitary_congruence(a, b)


def _decide_check(form_a, form_b, expected):
    def run_check(v):
        reason = check.verdict_mismatch(v.verdict, v.method, expected, "canonical_form")
        reason = reason or check.detail_mismatch(v.detail, "a", form_a)
        return reason or check.detail_mismatch(v.detail, "b", form_b)
    return run_check


def _verdict_digest(v) -> bytes:
    return json.dumps(v.to_json(), sort_keys=True).encode()


# ----- cli_mix -----------------------------------------------------------


@dataclass
class Case:
    argv: list[str]
    mats: list[np.ndarray]
    expected: dict


def _hidden(form, rng):
    return pl.hide(form, pl.haar_unitary(form.n, rng))


def _layout(kind: str):
    return pl.star_layout if kind == "star" else pl.congruence_layout


# Case constructors.  The table below binds the leading arguments; the rest,
# (rng, n, c, r), are the generator, the size, the scale and the rep.


def _classify_case(kind: str, rng, n: int, c: float, r: int) -> Case:
    if kind == "star":
        # A pair block with |mu| < 1 is not normal, and normality is
        # invariant under unitary *congruence.
        a = _hidden(pl.star_layout(rng, n).scaled(c), rng)
        flags = {"squared_normal": True, "normal": False, "range_hermitian": True}
    elif kind == "congruence":
        # An interior-mu block is not conjugate normal, an invariant of
        # unitary congruence.
        a = _hidden(pl.congruence_layout(rng, n).scaled(c), rng)
        flags = {"congruence_normal": True, "conjugate_normal": False, "range_hermitian": True}
    else:
        a = c * pl.generic_matrix(n, rng)
        flags = {"normal": False, "conjugate_normal": False, "congruence_normal": False,
                 "squared_normal": False, "range_hermitian": True}
    return Case(["classify"], [a], {"exit": 0, "check": "flags", "flags": flags})


def _canon_case(kind: str, flags: list[str], singular_rep: int, rng, n, c, r) -> Case:
    """Canon on a planted form; reps of parity singular_rep get a
    singular part."""
    form = _layout(kind)(rng, n, singular=r % 2 == singular_rep).scaled(c)
    a = _hidden(form, rng)
    exp = {"exit": 0, "check": "canon", "form": form, "a": a,
           "triangular": "--triangular" in flags, "verify": "--verify" in flags}
    return Case(["canon", f"--{kind}", *flags], [a], exp)


def _pair_case(kind: str, equivalent: bool, rng, n: int, c: float, r: int) -> Case:
    form = _layout(kind)(rng, n).scaled(c)
    other = form if equivalent else pl.nudge(form, 3 * r + 1, CLI_MOVE * form.norm2)
    verdict = "equivalent" if equivalent else "not_equivalent"
    return Case(["compare", f"--{kind}"], [_hidden(form, rng), _hidden(other, rng)],
                {"exit": 0, "check": "verdict", "verdict": verdict, "method": "canonical_form"})


def _pearcy_case(equivalent: bool, rng, n: int, c: float, r: int) -> Case:
    x = c * pl.gaussian(n, rng)
    # A multiple of the identity changes the trace, a *congruence
    # invariant, so the moved matrix is not *congruent to x.
    y = x if equivalent else x + CLI_MOVE * np.linalg.norm(x, 2) * np.eye(n)
    u = pl.haar_unitary(n, rng)
    verdict = "equivalent" if equivalent else "not_equivalent"
    return Case(["compare", "--star"], [x, u @ y @ u.conj().T],
                {"exit": 0, "check": "verdict", "verdict": verdict, "method": "pearcy"})


def _generic_pair_case(kind: str, rng, n: int, c: float, r: int) -> Case:
    mats = [c * pl.generic_matrix(n, rng), c * pl.generic_matrix(n, rng)]
    return Case(["compare", f"--{kind}"], mats,
                {"exit": 0, "check": "verdict", "verdict": "unsupported", "method": "none"})


def _generic_canon_case(kind: str, rng, n: int, c: float, r: int) -> Case:
    return Case(["canon", f"--{kind}"], [c * pl.generic_matrix(n, rng)], {"exit": 2})


def _regularize_case(kind: str, rng, n: int, c: float, r: int) -> Case:
    form = _layout(kind)(rng, n, singular=True).scaled(c)
    a = _hidden(form, rng)
    return Case(["regularize", f"--{kind}"], [a],
                {"exit": 0, "check": "regularize", "form": form, "a": a})


def _simulate_case(kind: str, bounded: bool, rng, n: int, c: float, r: int) -> Case:
    if kind == "star":
        form = pl.star_layout(rng, n, pairs=not bounded)
    else:
        form = pl.congruence_layout(rng, n, interior=not bounded)
    # bounded iff the cosquare spectrum is unimodular; otherwise some
    # |eigenvalue| >= 1 / 0.7 and 200 steps pass the 1e6 growth verdict.
    if form.cosquare_unimodular() != bounded:
        raise RuntimeError("simulate layout does not have the planted growth")
    return Case(["simulate", f"--{kind}", "--steps", "200"], [_hidden(form.scaled(c), rng)],
                {"exit": 0, "check": "growth", "growth": "bounded" if bounded else "unbounded"})


def _singular_simulate_case(rng, n: int, c: float, r: int) -> Case:
    form = _layout("star" if r % 2 == 0 else "congruence")(rng, n, singular=True).scaled(c)
    return Case(["simulate", f"--{form.kind}", "--steps", "200"], [_hidden(form, rng)],
                {"exit": 2})


CLI_CASES: tuple[tuple[str, Callable], ...] = (
    ("classify_star", partial(_classify_case, "star")),
    ("classify_congruence", partial(_classify_case, "congruence")),
    ("classify_generic", partial(_classify_case, "generic")),
    ("canon_star", partial(_canon_case, "star", [], 1)),
    ("canon_star_verify", partial(_canon_case, "star", ["--verify"], 0)),
    ("canon_star_triangular", partial(_canon_case, "star", ["--triangular"], 1)),
    ("canon_congruence", partial(_canon_case, "congruence", [], 1)),
    ("canon_congruence_verify", partial(_canon_case, "congruence", ["--verify"], 0)),
    ("compare_star_equal", partial(_pair_case, "star", True)),
    ("compare_star_moved", partial(_pair_case, "star", False)),
    ("compare_congruence_equal", partial(_pair_case, "congruence", True)),
    ("compare_congruence_moved", partial(_pair_case, "congruence", False)),
    ("pearcy_equal", partial(_pearcy_case, True)),
    ("pearcy_moved", partial(_pearcy_case, False)),
    ("compare_congruence_generic", partial(_generic_pair_case, "congruence")),
    ("compare_star_generic", partial(_generic_pair_case, "star")),
    ("canon_star_generic", partial(_generic_canon_case, "star")),
    ("canon_congruence_generic", partial(_generic_canon_case, "congruence")),
    ("regularize_star", partial(_regularize_case, "star")),
    ("regularize_congruence", partial(_regularize_case, "congruence")),
    ("simulate_star_bounded", partial(_simulate_case, "star", True)),
    ("simulate_star_unbounded", partial(_simulate_case, "star", False)),
    ("simulate_congruence_bounded", partial(_simulate_case, "congruence", True)),
    ("simulate_congruence_unbounded", partial(_simulate_case, "congruence", False)),
    ("simulate_singular", _singular_simulate_case),
)


def _write_matrix(path: Path, a: np.ndarray) -> None:
    data = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    path.write_text(json.dumps({"rows": a.shape[0], "cols": a.shape[1], "data": data}))


def _cli_ops(rng, workdir: Path, limit: int | None) -> list[Op]:
    """Round-robin over the case kinds, one rep per size, so that any
    prefix of the list has about the same mix.

    Scales lie on a fixed log-spaced grid from 1e-3 to 1e3, one point
    per rep.  The smallest scale always meets the smallest size: there
    the absolute floor in rel_residual decides the class flags of
    generic input every time, so the known scale defect shows as the
    same failures on every seed.  The other reps pair sizes and scales
    by a fixed permutation that differs between kinds.  A fixed grid
    keeps the failure count, a small integer, steady across seeds.
    """
    reps = len(CLI_SIZES)
    lo, hi = CLI_SCALE_DECADES
    scales = [10.0 ** (lo + (hi - lo) * j / (reps - 1)) for j in range(reps)]
    ops: list[Op] = []
    for r in range(reps):
        for k, (label, make) in enumerate(CLI_CASES):
            if limit is not None and len(ops) >= limit:
                return ops
            c = scales[0 if r == 0 else 1 + (3 * (r - 1) + k) % (reps - 1)]
            n = 2 if label.startswith("pearcy") else CLI_SIZES[r]
            case = make(rng, n, c, r)
            paths = []
            for j, a in enumerate(case.mats):
                path = workdir / f"op{len(ops)}_{j}.json"
                _write_matrix(path, a)
                paths.append(str(path))
            ops.append(Op(len(ops), n, label, _cli_call(case.argv + paths),
                          _cli_check(case.expected), _cli_digest,
                          known_defect=r == 0 and label in KNOWN_DEFECT))
    return ops


def _cli_call(argv: list[str]):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            code = sys.modules["canonica.cli"].run(argv, out=out)
        return code, out.getvalue()
    return run


def _cli_check(expected: dict):
    return lambda result: check.cli_mismatch(expected, *result)


def _cli_digest(result) -> bytes:
    code, text = result
    return f"{code}\n{text}".encode()

