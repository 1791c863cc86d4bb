"""Answer checks: compare what the library returned with the planted
construction.

Every check returns None when the answer is right and a one-line reason
when it is not.  Block parameters are compared as the entries of their
blocks, tau and tau * mu, so one absolute tolerance, FORM_RTOL times
the spectral norm of the input, covers every parameter.
"""

from __future__ import annotations

import json

import numpy as np

from planted import Form, assemble, block_h2, block_triangular

FORM_RTOL = 1e-7
# Transform checks: ||t a t^(T or *) - form||_F and ||t t* - I||_F,
# relative to ||a||_F and sqrt(n).
TRANSFORM_RTOL = 1e-7


def _match(planted: list, got: list, dist, tol: float, what: str) -> str | None:
    """Multiset match: every planted item pairs with a distinct returned
    item within tol (nearest unmatched first)."""
    if len(planted) != len(got):
        return f"{what}: {len(got)} blocks returned, {len(planted)} planted"
    free = list(range(len(got)))
    for p in planted:
        best = min(free, key=lambda j: dist(p, got[j]))
        d = dist(p, got[best])
        if d > tol:
            return f"{what}: planted {p!r} unmatched (nearest off by {d:.3e})"
        free.remove(best)
    return None


def _pair_dist(x, y) -> float:
    return max(abs(x[0] - y[0]), abs(x[0] * x[1] - y[0] * y[1]))


def form_mismatch(form: Form, ones: list, twos: list, scale: float) -> str | None:
    """ones: returned 1-by-1 entries; twos: returned (tau, mu) pairs."""
    tol = FORM_RTOL * scale
    reason = _match(
        list(form.ones), [complex(v) for v in ones], lambda x, y: abs(x - y), tol, "1x1"
    )
    if reason is None:
        reason = _match(
            list(form.twos), [(float(t), complex(m)) for t, m in twos], _pair_dist, tol, "2x2"
        )
    return reason


def transform_mismatch(
    a: np.ndarray, t: np.ndarray, target: np.ndarray, kind: str
) -> str | None:
    """t must be unitary and carry a to target."""
    n = a.shape[0]
    if t.shape != (n, n):
        return f"transform has shape {t.shape}, expected {(n, n)}"
    adj = t.conj().T if kind == "star" else t.T
    res = float(np.linalg.norm(t @ a @ adj - target))
    if res > TRANSFORM_RTOL * float(np.linalg.norm(a)):
        return f"transform misses the form by {res:.3e}"
    uni = float(np.linalg.norm(t @ t.conj().T - np.eye(n)))
    if uni > TRANSFORM_RTOL * np.sqrt(n):
        return f"transform is not unitary ({uni:.3e})"
    return None


def canon_mismatch(a: np.ndarray, form: Form, ret_ones, ret_twos, t) -> str | None:
    """A library canonical form (one_by_one, two_by_two, transform)
    against the planted form of a."""
    reason = form_mismatch(form, list(ret_ones), list(ret_twos), form.norm2)
    if reason is None:
        target = assemble(list(ret_ones), [block_h2(x, m) for x, m in ret_twos])
        reason = transform_mismatch(a, t, target, form.kind)
    return reason


def verdict_mismatch(verdict, method, expected: str, expected_method: str) -> str | None:
    if verdict != expected:
        return f"verdict {verdict!r}, expected {expected!r}"
    if method != expected_method:
        return f"method {method!r}, expected {expected_method!r}"
    return None


def detail_mismatch(detail: dict, side: str, form: Form) -> str | None:
    """The blocks a canonical-form verdict reports for one side."""
    ones = [complex(*b[side]) for b in detail["one_by_one"] if b[side] is not None]
    twos = [
        (b[side]["tau"], complex(*b[side]["mu"]))
        for b in detail["two_by_two"]
        if b[side] is not None
    ]
    reason = form_mismatch(form, ones, twos, form.norm2)
    return None if reason is None else f"side {side}: {reason}"


# ----- CLI reports --------------------------------------------------------


def matrix_from_report(obj: dict) -> np.ndarray:
    data = np.array(obj["data"], dtype=np.float64).reshape(obj["rows"], obj["cols"], 2)
    return data[..., 0] + 1j * data[..., 1]


def cli_mismatch(expected: dict, code: int, text: str) -> str | None:
    """Check one cli.run result against its expected answer.

    expected holds the exit code and, for exit 0, the kind of answer
    with what the construction fixes about it.
    """
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    if code != 0:
        return None
    report = json.loads(text)
    check = expected["check"]
    if check == "flags":
        flags = report["report"]["flags"]
        wrong = {k: flags[k] for k, v in expected["flags"].items() if flags[k] != v}
        return f"class flags {wrong} contradict the construction" if wrong else None
    if check == "canon":
        return _canon_report_mismatch(expected, report)
    if check == "verdict":
        res = report["result"]
        return verdict_mismatch(
            res["verdict"], res["method"], expected["verdict"], expected["method"]
        )
    if check == "regularize":
        return _regularize_report_mismatch(expected, report["result"])
    if check == "growth":
        got = report["result"]["growth_classification"]
        if got != expected["growth"]:
            return f"growth {got!r}, expected {expected['growth']!r}"
        return None
    raise ValueError(f"unknown check {check!r}")


def _canon_report_mismatch(expected: dict, report: dict) -> str | None:
    form: Form = expected["form"]
    a = expected["a"]
    body = report["form"]
    if form.kind == "star":
        ones = [complex(*v) for v in body["one_by_one"]]
    else:
        ones = [complex(v) for v in body["one_by_one"]]
    twos = [(b["tau"], complex(*b["mu"])) for b in body["two_by_two"]]
    reason = form_mismatch(form, ones, twos, form.norm2)
    if reason is not None:
        return reason
    if expected["triangular"]:
        if body["representation"] != "triangular":
            return f"representation {body['representation']!r}, expected triangular"
        blocks = []
        for b, (tau, mu) in zip(body["two_by_two"], twos):
            nu_exp, r_exp = block_triangular(tau, mu)
            nu, r = complex(*b["nu"]), b["r"]
            if max(abs(nu - nu_exp), abs(r - r_exp)) > FORM_RTOL * form.norm2:
                return f"triangular block ({nu}, {r}) does not render ({tau}, {mu})"
            blocks.append(np.array([[nu, r], [0.0, -nu]], dtype=np.complex128))
        target = assemble(ones, blocks)
    else:
        target = assemble(ones, [block_h2(t, m) for t, m in twos])
    reason = transform_mismatch(a, matrix_from_report(report["transform"]), target, form.kind)
    if reason is None and expected["verify"]:
        v = report["verify"]
        if v["relative_residual"] > TRANSFORM_RTOL or v["transform_unitarity"] > (
            TRANSFORM_RTOL * np.sqrt(a.shape[0])
        ):
            reason = f"verify block reports {v}"
    return reason


def _regularize_report_mismatch(expected: dict, res: dict) -> str | None:
    form: Form = expected["form"]
    a = expected["a"]
    m1, m2 = form.nullity, len(form.elementary)
    if (res["m1"], res["m2"]) != (m1, m2):
        return f"(m1, m2) = {(res['m1'], res['m2'])}, expected {(m1, m2)}"
    sigma = res["sigma"]
    tol = FORM_RTOL * form.norm2
    if any(abs(x - y) > tol for x, y in zip(sigma, form.elementary)):
        return f"sigma {sigma} differs from planted {form.elementary}"
    core = matrix_from_report(res["core"])
    k = core.shape[0]
    target = np.zeros((k + m1, k + m1), dtype=np.complex128)
    target[:k, :k] = core
    for i, s in enumerate(sigma):
        target[k - m2 + i, k + i] = s
    return transform_mismatch(a, matrix_from_report(res["transform"]), target, form.kind)
