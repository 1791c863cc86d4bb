"""Built-in acceptance battery.

Ten numbered criteria exercise the canonical pipelines end to end on
seeded random families.  Each criterion runs on its own generator
derived from (seed, number), so a single failing criterion can be
reproduced in isolation.  The CLI selftest command runs the battery;
the test suite asserts it too.
"""

from __future__ import annotations

import io
import json
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blocks import antidiag_block, direct_sum, h2_to_triangular, triangular_block
from .canon_congruence import CongruenceCanonicalForm, canon_congruence
from .canon_star import canon_lambda_projection, canon_quadratic, canon_star
from .equivalence import (
    decide_unitary_star_congruence,
    forms_match,
    quadratic_invariants_equal,
    upgrade_congruence_to_unitary,
)
from .factorizations import svd
from .matrix import DEFAULT_TOL, dumps_matrix, norm, rank
from .iteration import classify_bounded, simulate
from .predicates import bar_block_dualities, verify_characterizations
from .regularization import regularize
from .sampling import (
    _hide,
    _spread,
    random_congruence_form,
    random_congruence_instance,
    random_conjugate_normal_instance,
    random_coninvolutory,
    random_involution,
    random_lambda_projection,
    random_matrix,
    random_normal,
    random_nonsingular,
    random_quadratic_instance,
    random_star_form,
    random_star_instance,
    random_unitary,
    random_vector,
)

__all__ = ["CriterionResult", "run_all", "DEFAULT_SEED"]

DEFAULT_SEED = 20260819


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number:2d} {tag} "
            f"({self.seconds:6.2f}s) {self.name}: {self.detail}"
        )

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
        }


def _fail_list(failures: list, total: int, what: str) -> tuple[bool, str]:
    if not failures:
        return True, f"{total}/{total} {what}"
    return False, (
        f"{total - len(failures)}/{total} {what}; "
        f"first failures: {failures[:5]}"
    )


def _criterion_1(gen: np.random.Generator) -> tuple[bool, str]:
    """Congruence canonical form recovers the generating block multiset."""
    failures = []
    for i in range(100):
        n = 2 + i % 7
        form, a = random_congruence_instance(n, gen, singular=(i % 4 == 3))
        got, _ = canon_congruence(a)
        ok, _ = forms_match(form, got)
        if not ok:
            failures.append(i)
    return _fail_list(failures, 100, "congruence forms recovered to 1e-7")


def _criterion_2(gen: np.random.Generator) -> tuple[bool, str]:
    """Star canonical form recovery plus the triangular rendering."""
    failures = []
    worst = 0.0
    for i in range(100):
        n = 2 + i % 7
        form, a = random_star_instance(n, gen, singular=(i % 4 == 3))
        got, _ = canon_star(a)
        ok, _ = forms_match(form, got)

        tri, t = canon_star(a, representation="triangular")
        same, _ = forms_match(got, tri)
        content = t @ a @ t.conj().T
        off = len(tri.one_by_one)
        for j, (tau, mu) in enumerate(tri.two_by_two):
            nu, r = h2_to_triangular(tau, mu)
            target = np.array([[nu, r], [0.0, -nu]], dtype=np.complex128)
            blk = content[off + 2 * j : off + 2 * j + 2, off + 2 * j : off + 2 * j + 2]
            err = float(np.max(np.abs(blk - target)))
            worst = max(worst, err)
            if err > 1e-10 * max(1.0, tau):
                ok = False
        if not (ok and same):
            failures.append(i)
    passed, detail = _fail_list(failures, 100, "star forms recovered to 1e-7")
    return passed, detail + f"; worst triangular entry error {worst:.2e}"


def _criterion_3(gen: np.random.Generator) -> tuple[bool, str]:
    """Regularization: unitary transform, zero pattern, m2 rank identity.

    The rank identity m2 = rank a - rank(conj(a) a) (resp. a^2) holds on
    the congruence-normal (resp. squared-normal) class, so the instances
    stay inside it.
    """
    failures = []
    for i in range(100):
        n = 3 + i % 5
        mode = "congruence" if i % 2 == 0 else "star"
        if mode == "congruence":
            _, a = random_congruence_instance(n, gen, singular=True)
        else:
            _, a = random_star_instance(n, gen, singular=True)

        red = regularize(a, mode)
        t = red.transform
        ok = norm(t @ t.conj().T - np.eye(n)) <= 1e-9
        adj = t.T if mode == "congruence" else t.conj().T
        z = t @ a @ adj
        k = n - red.m1
        off = z.copy()
        off[:k, :k] = 0.0
        for j in range(red.m2):
            off[k - red.m2 + j, k + j] = 0.0
        ok = ok and norm(off) <= 1e-8 * norm(a)
        gram = a.conj() @ a if mode == "congruence" else a @ a
        scale2 = norm(a, kind="spectral") ** 2
        ok = ok and red.m2 == rank(a, DEFAULT_TOL) - rank(
            gram, DEFAULT_TOL, scale=scale2
        )
        if not ok:
            failures.append(i)
    return _fail_list(failures, 100, "reductions verified")


_ZOO_KINDS = 14


def _zoo_instance(kind: int, n: int, gen: np.random.Generator) -> np.ndarray:
    if kind == 0:
        return random_congruence_instance(n, gen)[1]
    if kind == 1:
        return random_congruence_instance(n, gen, singular=True)[1]
    if kind == 2:
        return random_star_instance(n, gen)[1]
    if kind == 3:
        return random_star_instance(n, gen, singular=True)[1]
    if kind == 4:
        return random_conjugate_normal_instance(n, gen)[1]
    if kind == 5:
        return random_coninvolutory(n, gen)
    if kind == 6:
        return random_involution(n, gen)
    if kind == 7:
        return random_lambda_projection(n, gen)
    if kind == 8:
        return random_quadratic_instance(max(n, 2), gen, opposite=(n % 2 == 0))[0]
    if kind == 9:
        return random_matrix(n, gen)
    if kind == 10:
        return random_normal(n, gen)
    if kind == 11:
        x = random_matrix(n, gen)
        return x + x.T
    if kind == 12:
        x = random_matrix(n, gen)
        return x - x.T
    x = random_matrix(n, gen)
    return x + x.conj().T


def _criterion_4(gen: np.random.Generator) -> tuple[bool, str]:
    """Equivalent class characterizations agree across a mixed instance zoo."""
    families = (
        "congruence_normal_idents",
        "squared_normal_idents",
        "conjugate_normal_afd",
        "congruence_normal_afd",
    )
    failures = []
    for i in range(200):
        n = 2 + i % 5
        a = _zoo_instance(i % _ZOO_KINDS, n, gen)
        bad = [w for w in families if not verify_characterizations(a, w)["agree"]]
        if not bar_block_dualities(a)["agree"]:
            bad.append("bar_blocks")
        if bad:
            failures.append((i, bad))
    return _fail_list(failures, 200, "instances with all equivalences consistent")


def _criterion_5(gen: np.random.Generator) -> tuple[bool, str]:
    """Trace criterion for 2-by-2 pairs, both directions."""
    failures = []
    for i in range(500):
        if i % 2 == 0:
            tau = float(gen.uniform(0.3, 3.0))
            mu = complex(
                gen.uniform(0.0, 0.99) * np.exp(1j * gen.uniform(-np.pi, np.pi))
            )
            x = antidiag_block(tau, mu)
            y = triangular_block(tau, mu)
        else:
            x = random_matrix(2, gen)
            y = x
        verdict = decide_unitary_star_congruence(
            _hide(x, gen, transpose=False), _hide(y, gen, transpose=False)
        )
        if verdict.method != "pearcy" or not verdict.equivalent:
            failures.append(i)
    for i in range(500):
        x = random_matrix(2, gen)
        x *= 2.0 / norm(x)
        y = _hide(x, gen, transpose=False)
        style = i % 3
        if style == 0:
            delta = 1e-3 * (1.0 + abs(np.trace(x))) * float(gen.uniform(1.0, 2.0))
            y = y + (delta / 2.0) * np.eye(2)
        elif style == 1:
            y = (1.0 + 1e-3 * float(gen.uniform(1.0, 2.0))) * y
        else:
            v = random_vector(2, gen)
            y = y + 1.5e-3 * np.outer(v, v.conj())
        verdict = decide_unitary_star_congruence(x, y)
        if verdict.method != "pearcy" or verdict.equivalent:
            failures.append(500 + i)
    return _fail_list(failures, 1000, "trace-criterion verdicts correct")


def _criterion_6(gen: np.random.Generator) -> tuple[bool, str]:
    """Involution pairs and the projection singular value identity."""
    failures = []
    for i in range(100):
        n = 2 + i % 5
        q = int(gen.integers(0, max((n - 2) // 2, 0) + 1))
        sigmas = [float(gen.uniform(1.3, 2.5)) for _ in range(q)]
        p = int(gen.integers(q, n - q + 1))
        a = random_involution(n, gen, plus=p, sigmas=sigmas)
        if i < 50:
            b = random_involution(n, gen, plus=p, sigmas=sigmas)
            want = "equivalent"
        elif q > 0 and i % 2 == 0:
            bumped = [sigmas[0] + 0.3] + sigmas[1:]
            b = random_involution(n, gen, plus=p, sigmas=bumped)
            want = "not_equivalent"
        else:
            p2 = p + 1 if p + 1 <= n - q else p - 1
            b = random_involution(n, gen, plus=p2, sigmas=sigmas)
            want = "not_equivalent"
        if decide_unitary_star_congruence(a, b).verdict != want:
            failures.append(i)

    for i in range(100):
        n = 2 + i % 6
        lam = complex(
            gen.uniform(0.5, 1.5) * np.exp(1j * gen.uniform(-np.pi, np.pi))
        )
        a = random_lambda_projection(n, gen, lam=lam)
        canon_lambda_projection(a)  # must not raise
        m1 = n - rank(a, DEFAULT_TOL)
        shared = min(m1, n - m1)
        sa = svd(a).sigma
        sb = svd(a - lam * np.eye(n)).sigma
        scale = max(1.0, float(sa[0]) if len(sa) else 1.0)
        if shared and float(np.max(np.abs(sa[:shared] - sb[:shared]))) > 1e-8 * scale:
            failures.append(100 + i)
    return _fail_list(failures, 200, "involution/projection checks passed")


def _criterion_7(gen: np.random.Generator) -> tuple[bool, str]:
    """Closed-form singular values for quadratic minimal polynomials."""
    failures = []
    for i in range(100):
        n = 2 + i % 6
        a, _ = random_quadratic_instance(n, gen, opposite=(i % 2 == 1))
        q = canon_quadratic(a)
        actual = svd(a).sigma
        predicted = np.array(q.predicted_singular_values)
        scale = max(1.0, float(actual[0]))
        if float(np.max(np.abs(predicted - actual))) > 1e-7 * scale:
            failures.append(i)

    # cross-check: invariant comparison against canonical form comparison
    # on pairs whose roots are opposite (so both routes apply)
    for i in range(20):
        n = 3 + i % 4
        a, roots = random_quadratic_instance(n, gen, opposite=True)
        if i % 2 == 0:
            b = _hide(a, gen, transpose=False)
        else:
            scaled = (roots[0] * 1.15, roots[1] * 1.15)
            b, _ = random_quadratic_instance(n, gen, roots=scaled)
        inv_ok, _ = quadratic_invariants_equal(a, b)
        form_ok, _ = forms_match(canon_star(a)[0], canon_star(b)[0])
        if inv_ok != form_ok or inv_ok != (i % 2 == 0):
            failures.append(100 + i)
    return _fail_list(failures, 120, "quadratic predictions and cross-checks")


def _criterion_8(gen: np.random.Generator) -> tuple[bool, str]:
    """Polar factor upgrade from congruence to unitary congruence."""
    failures = []
    for i in range(100):
        n = 2 + i % 5
        style = i % 4
        if style == 0:
            form = random_congruence_form(n, gen)
            b = form.assemble()
            n_twos = len(form.two_by_two)
            mode = "congruence"
        elif style == 1:
            form = random_star_form(n, gen)
            b = form.assemble()
            n_twos = len(form.two_by_two)
            mode = "star"
        else:
            n_twos = int(gen.integers(0, n // 2 + 1))
            blocks = [np.eye(n - 2 * n_twos, dtype=np.complex128)]
            if style == 3:
                flips = int(gen.integers(0, n - 2 * n_twos + 1))
                d = np.ones(n - 2 * n_twos)
                d[:flips] = -1.0
                blocks = [np.diag(d.astype(np.complex128))]
            for _ in range(n_twos):
                s0 = float(gen.uniform(1.3, 2.5))
                blocks.append(
                    np.array([[0.0, 1.0 / s0], [s0, 0.0]], dtype=np.complex128)
                )
            b = direct_sum(blocks)
            mode = "congruence" if style == 2 else "star"

        scales = [np.ones(n - 2 * n_twos)]
        for _ in range(n_twos):
            c = float(gen.uniform(1.2, 2.0))
            scales.append(np.array([c, 1.0 / c]))
        qmat = np.diag(np.concatenate(scales).astype(np.complex128))
        wtrue = random_unitary(n, gen)
        s = wtrue @ qmat
        adj = s.T if mode == "congruence" else s.conj().T
        a = s @ b @ adj
        try:
            w = upgrade_congruence_to_unitary(a, b, s, mode=mode)
        except Exception:
            failures.append(i)
            continue
        wadj = w.T if mode == "congruence" else w.conj().T
        ok = norm(w @ w.conj().T - np.eye(n)) <= 1e-9
        ok = ok and norm(a - w @ b @ wadj) <= 1e-8 * max(1.0, norm(a))
        if not ok:
            failures.append(i)
    return _fail_list(failures, 100, "polar upgrades verified")


def _criterion_9(gen: np.random.Generator) -> tuple[bool, str]:
    """Boundedness classifier against the 1000-step simulator."""
    failures = []
    for i in range(100):
        n = 2 + i % 5
        if i < 50:
            k = int(gen.integers(0, n // 2 + 1))
            thetas = _spread(gen, k, 0.3, np.pi - 0.3)
            ones = [float(gen.uniform(0.5, 3.0)) for _ in range(n - 2 * k)]
            twos = [
                (float(gen.uniform(0.5, 3.0)), complex(np.exp(1j * t)))
                for t in thetas
            ]
            form = CongruenceCanonicalForm.build(ones, twos)
            a = _hide(form.assemble(), gen, transpose=True)
            want = "bounded"
        elif i < 75:
            mu = complex(
                gen.uniform(0.15, 0.8) * np.exp(1j * gen.uniform(-np.pi, np.pi))
            )
            ones = [float(gen.uniform(0.5, 3.0)) for _ in range(n - 2)]
            form = CongruenceCanonicalForm.build(
                ones, [(float(gen.uniform(0.5, 3.0)), mu)]
            )
            a = _hide(form.assemble(), gen, transpose=True)
            want = "unbounded"
        else:
            f = direct_sum(
                [antidiag_block(1.5, 2.0), np.eye(n - 2, dtype=np.complex128)]
            )
            s = random_nonsingular(n, gen)
            a = s @ f @ s.T
            want = "unbounded"
        verdict = classify_bounded(a, mode="congruence")
        trace = simulate(a, random_vector(n, gen), 1000, mode="congruence")
        if verdict != want or trace.growth_classification != want:
            failures.append((i, verdict, trace.growth_classification))
    return _fail_list(failures, 100, "classifier and simulator agree")


def _criterion_10(gen: np.random.Generator) -> tuple[bool, str]:
    """CLI determinism and canon --verify residuals on a fixture corpus."""
    from . import cli  # imported here: cli embeds this module for selftest

    corpus = [
        ("congruence_regular", random_congruence_instance(4, gen)[1], ["canon", "--congruence", "--verify"]),
        ("congruence_singular", random_congruence_instance(5, gen, singular=True)[1], ["canon", "--congruence", "--verify"]),
        ("conjugate_normal", random_conjugate_normal_instance(4, gen)[1], ["canon", "--congruence", "--verify"]),
        ("coninvolutory", random_coninvolutory(4, gen), ["canon", "--congruence", "--verify"]),
        ("unitary", random_unitary(3, gen), ["canon", "--congruence", "--verify"]),
        ("star_regular", random_star_instance(4, gen)[1], ["canon", "--star", "--verify"]),
        ("star_singular", random_star_instance(5, gen, singular=True)[1], ["canon", "--star", "--verify"]),
        ("star_triangular", random_star_instance(4, gen)[1], ["canon", "--star", "--triangular", "--verify"]),
        ("involution", random_involution(4, gen), ["canon", "--star", "--verify"]),
        ("quadratic_opposite", random_quadratic_instance(4, gen, opposite=True)[0], ["canon", "--star", "--verify"]),
        ("lambda_projection", random_lambda_projection(4, gen), ["classify"]),
        ("generic", random_matrix(4, gen), ["regularize", "--star"]),
    ]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, a, argv in corpus:
            path = str(Path(tmp) / f"{name}.json")
            Path(path).write_text(dumps_matrix(a))
            outputs = []
            codes = []
            for _ in range(2):
                buf = io.StringIO()
                codes.append(cli.run(argv + [path], out=buf))
                outputs.append(buf.getvalue())
            ok = codes == [0, 0] and outputs[0] == outputs[1] and bool(outputs[0])
            if ok and argv[0] == "canon":
                payload = json.loads(outputs[0])
                ok = payload["verify"]["relative_residual"] <= 1e-8
            if not ok:
                failures.append(name)
    return _fail_list(failures, len(corpus), "CLI runs deterministic and verified")


_CRITERIA: tuple[tuple[str, object, float | None], ...] = (
    ("congruence canonical invariance", _criterion_1, 10.0),
    ("star canonical invariance and triangular rendering", _criterion_2, None),
    ("regularization pattern and rank identity", _criterion_3, None),
    ("characterization equivalences", _criterion_4, None),
    ("two-by-two trace criterion", _criterion_5, None),
    ("involution pairs and projection identity", _criterion_6, None),
    ("quadratic singular value prediction", _criterion_7, None),
    ("polar factor upgrade", _criterion_8, None),
    ("boundedness classification vs simulation", _criterion_9, 5.0),
    ("CLI determinism and verification", _criterion_10, None),
)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run the ten acceptance criteria and return their results."""
    results = []
    for number, (name, fn, limit) in enumerate(_CRITERIA, start=1):
        gen = np.random.default_rng([seed, number])
        t0 = time.perf_counter()
        try:
            passed, detail = fn(gen)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if passed and limit is not None and seconds > limit:
            passed = False
            detail += f"; exceeded the {limit:.0f}s budget ({seconds:.2f}s)"
        results.append(CriterionResult(number, name, passed, detail, seconds))
    return results
