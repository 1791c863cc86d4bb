"""Command line interface.

Subcommands operate on matrix JSON files ({"rows", "cols", "data"} with
data a row-major list of [re, im] pairs) and emit JSON reports tagged
"schema": "canonica/1".  Reports are fully deterministic: the same
invocation on the same file produces byte-identical output.

Exit codes: 0 success, 1 selftest failure, 2 precondition violation
(with residual diagnostics on stderr), 3 parse or usage error, or an
--output path that cannot be written, 4 convergence failure inside a
pipeline.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .canon_congruence import canon_congruence, canon_unitary
from .canon_star import canon_star
from .equivalence import decide_unitary_congruence, decide_unitary_star_congruence
from .errors import ConvergenceError, ParseError, PreconditionError
from .iteration import simulate
from .matrix import (
    DEFAULT_TOL,
    ToleranceConfig,
    _unit_scale,
    loads_matrix,
    matrix_to_json,
    norm,
    vector_from_json,
)
from .predicates import classify
from .regularization import regularize

__all__ = ["build_parser", "run", "main"]

SCHEMA = "canonica/1"

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3
EXIT_CONVERGENCE = 4


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rank-rtol", type=float, default=None, metavar="X")
    p.add_argument("--residual-rtol", type=float, default=None, metavar="X")
    p.add_argument("--cluster-rtol", type=float, default=None, metavar="X")
    p.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the JSON report to PATH instead of stdout",
    )


def _add_mode(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument(
        "--congruence", dest="mode", action="store_const", const="congruence",
        help="transformation a -> u a u^T",
    )
    g.add_argument(
        "--star", dest="mode", action="store_const", const="star",
        help="transformation a -> u a u*",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canonica",
        description="canonical forms under unitary congruence and *congruence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="evaluate all class memberships")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("canon", help="canonical form and unitary transform")
    _add_mode(p)
    rep = p.add_mutually_exclusive_group()
    rep.add_argument(
        "--h2", dest="representation", action="store_const", const="h2",
        help="render 2x2 blocks as tau [[0, 1], [mu, 0]] (default)",
    )
    rep.add_argument(
        "--triangular", dest="representation", action="store_const",
        const="triangular",
        help="render 2x2 blocks as [[nu, r], [0, -nu]] (star mode only)",
    )
    p.add_argument(
        "--style", choices=("h2", "real_orthogonal", "hermitian_unitary"),
        default=None,
        help="block style for a unitary input (congruence mode only)",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="re-check the reconstruction and transform unitarity",
    )
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("compare", help="decide unitary (*)congruence of two matrices")
    _add_mode(p)
    p.add_argument("file")
    p.add_argument("file2")
    _add_common(p)

    p = sub.add_parser("regularize", help="unitary reduction of a singular matrix")
    _add_mode(p)
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("simulate", help="run the congruence recurrence")
    _add_mode(p)
    p.add_argument("--steps", type=int, default=1000, metavar="N")
    p.add_argument(
        "--x0", default=None, metavar="PATH",
        help="JSON file with the start vector as [re, im] pairs "
        "(default: first basis vector)",
    )
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("selftest", help="run the built-in acceptance battery")
    p.add_argument(
        "--seed", type=int, default=None,
        help="seed of the sampled battery (default: selftest.DEFAULT_SEED)",
    )
    p.add_argument("--output", default=None, metavar="PATH")

    return parser


# run() parses every call with one parser per process.
_parser = functools.cache(build_parser)


def _tolerances(args: argparse.Namespace) -> ToleranceConfig:
    overrides = {}
    if getattr(args, "rank_rtol", None) is not None:
        overrides["rank_rtol"] = args.rank_rtol
    if getattr(args, "residual_rtol", None) is not None:
        overrides["residual_rtol"] = args.residual_rtol
    if getattr(args, "cluster_rtol", None) is not None:
        overrides["cluster_rtol"] = args.cluster_rtol
    return ToleranceConfig(**overrides) if overrides else DEFAULT_TOL


def _read_matrix(path: str) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return loads_matrix(text)


def _cmd_classify(args, tol) -> dict:
    report = classify(_read_matrix(args.file), tol)
    return {"schema": SCHEMA, "command": "classify", "report": report.to_json()}


def _cmd_canon(args, tol) -> dict:
    a = _read_matrix(args.file)
    if args.style is not None:
        if args.mode != "congruence":
            raise ValueError("--style applies to congruence mode only")
        if args.verify or args.representation:
            raise ValueError("--style excludes --verify, --h2 and --triangular")
        blocks = canon_unitary(a, style=args.style, tol=tol)
        return {
            "schema": SCHEMA,
            "command": "canon",
            "mode": args.mode,
            "style": args.style,
            "blocks": [matrix_to_json(b) for b in blocks],
        }

    if args.mode == "congruence":
        if args.representation == "triangular":
            raise ValueError("--triangular applies to star mode only")
        form, t = canon_congruence(a, tol)
        adj = t.T
    else:
        form, t = canon_star(a, tol, representation=args.representation or "h2")
        adj = t.conj().T
    # Measured at unit scale, where the norms neither overflow nor underflow.
    unit, e = _unit_scale(a)
    residual = math.ldexp(norm(t @ unit @ adj - _unit_scale(form.assemble(), e)[0]), e)
    relative = residual / max(1.0, math.ldexp(norm(unit), e))
    payload = {
        "schema": SCHEMA,
        "command": "canon",
        "mode": args.mode,
        "form": form.to_json(),
        "transform": matrix_to_json(t),
        "residual": float(residual),
        "relative_residual": float(relative),
    }
    if args.verify:
        payload["verify"] = {
            "residual": float(residual),
            "relative_residual": float(relative),
            "transform_unitarity": float(
                norm(t @ t.conj().T - np.eye(t.shape[0]))
            ),
        }
    return payload


def _cmd_compare(args, tol) -> dict:
    a = _read_matrix(args.file)
    b = _read_matrix(args.file2)
    if args.mode == "congruence":
        verdict = decide_unitary_congruence(a, b, tol)
    else:
        verdict = decide_unitary_star_congruence(a, b, tol)
    return {
        "schema": SCHEMA,
        "command": "compare",
        "mode": args.mode,
        "result": verdict.to_json(),
    }


def _cmd_regularize(args, tol) -> dict:
    reduced = regularize(_read_matrix(args.file), args.mode, tol)
    return {
        "schema": SCHEMA,
        "command": "regularize",
        "mode": args.mode,
        "result": reduced.to_json(),
    }


def _cmd_simulate(args, tol) -> dict:
    a = _read_matrix(args.file)
    if args.x0 is not None:
        try:
            obj = json.loads(Path(args.x0).read_text())
        except OSError as exc:
            raise ParseError(f"cannot read {args.x0}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {args.x0}: {exc}") from None
        x0 = vector_from_json(obj)
    else:
        # e_1, or the empty vector for a 0 x 0 matrix.
        x0 = np.zeros(a.shape[0], dtype=np.complex128)
        x0[:1] = 1.0
    trace = simulate(a, x0, args.steps, mode=args.mode, tol=tol)
    return {
        "schema": SCHEMA,
        "command": "simulate",
        "mode": args.mode,
        "steps": args.steps,
        "result": trace.to_json(),
    }


def _cmd_selftest(args) -> dict:
    # Imported here: selftest, and the sampler it draws from, load only
    # in the process that runs the battery.
    from . import selftest

    seed = selftest.DEFAULT_SEED if args.seed is None else args.seed
    results = selftest.run_all(seed)
    for r in results:
        print(r.line(), file=sys.stderr)
    return {
        "schema": SCHEMA,
        "command": "selftest",
        "seed": seed,
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
        "criteria": [r.to_json() for r in results],
    }


def _dumps(obj, level: int = 0) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) for obj nested at the
    given level, with each list of floats or of [re, im] float pairs
    rendered by one template, and each non-finite float written as null:
    JSON has no NaN or Infinity."""
    inner = "\n" + "  " * (level + 1)
    if isinstance(obj, dict) and obj:
        # A key that is not a string is written as the string of its JSON
        # text, in the order of the keys themselves, as json.dumps does.
        items = (
            json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": " + _dumps(v, level + 1)
            for k, v in sorted(obj.items())
        )
        return "{" + inner + ("," + inner).join(items) + inner[:-2] + "}"
    if isinstance(obj, (list, tuple)) and obj:
        text = _float_list(obj, inner)
        if text is None:
            items = (_dumps(x, level + 1) for x in obj)
            text = "[" + inner + ("," + inner).join(items) + inner[:-2] + "]"
        return text
    if isinstance(obj, float) and not math.isfinite(obj):
        return "null"
    # Scalars and empty containers go through the C encoder: the same
    # text as with indent, whose pure-Python encoder builds reference
    # cycles.
    return json.dumps(obj)


def _float_list(items, inner: str) -> str | None:
    """The JSON text of a nonempty list of finite floats or of [re, im]
    pairs of them, whose items start on lines beginning with inner; None
    for any other list."""
    try:
        if set(map(type, items)) == {list} and set(map(len, items)) == {2}:
            deeper = inner + "  "
            pair = "[" + deeper + "%s," + deeper + "%s" + inner + "]"
            body = ("," + inner).join([pair] * len(items)) % tuple(
                map(float.__repr__, chain.from_iterable(items))
            )
        else:
            body = ("," + inner).join(map(float.__repr__, items))
    except TypeError:  # an item that is not a float
        return None
    if "n" in body:  # nan or inf, which are written as null
        return None
    return "[" + inner + body + inner[:-2] + "]"


def run(argv=None, out=None) -> int:
    """Parse argv, execute, write the JSON report, return the exit code."""
    out = sys.stdout if out is None else out
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; we reserve 2 for
        # precondition violations, so usage maps onto the parse code
        code = exc.code if isinstance(exc.code, int) else 0
        return EXIT_PARSE if code == 2 else code

    # A matrix command allocates no reference cycles, so reference
    # counting frees all it makes (selftest's closures wait for the next
    # collection).  Left running, the collector is driven to full passes
    # by the [re, im] lists of decoding and encoding, each rescanning
    # every live object for milliseconds.  Pause it for the whole command.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _execute(args, out)
    finally:
        if enabled:
            gc.enable()


def _execute(args: argparse.Namespace, out) -> int:
    """Run the parsed command, write its report, return the exit code."""
    try:
        tol = _tolerances(args)
        if args.command == "classify":
            payload = _cmd_classify(args, tol)
        elif args.command == "canon":
            payload = _cmd_canon(args, tol)
        elif args.command == "compare":
            payload = _cmd_compare(args, tol)
        elif args.command == "regularize":
            payload = _cmd_regularize(args, tol)
        elif args.command == "simulate":
            payload = _cmd_simulate(args, tol)
        else:
            payload = _cmd_selftest(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:  # bad flag combinations and parameter values
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    text = _dumps(payload) + "\n"
    if getattr(args, "output", None):
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"parse error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        out.write(text)
    if args.command == "selftest" and payload["failed"]:
        return EXIT_SELFTEST
    return EXIT_OK


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
