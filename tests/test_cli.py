"""Command line interface: payloads, exit codes, determinism.

Fixtures under tests/fixtures are static files so these tests exercise
the same read path as a user invocation.
"""

import gc
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from canonica import cli
from canonica.blocks import antidiag_block, direct_sum
from canonica.matrix import dumps_matrix
from canonica.sampling import (
    default_rng,
    random_congruence_instance,
    random_star_instance,
    random_unitary,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fx(name):
    return str(FIXTURES / name)


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv)
    assert code == cli.EXIT_OK, text
    return json.loads(text)


def test_canon_star_nilpotent_report():
    payload = run_json("canon", "--star", "--verify", fx("j2_nilpotent.json"))
    assert payload["schema"] == "canonica/1"
    assert payload["mode"] == "star"
    assert payload["form"]["one_by_one"] == []
    assert payload["form"]["two_by_two"] == [{"tau": 1.0, "mu": [0.0, 0.0]}]
    assert payload["residual"] <= 1e-10
    assert payload["verify"]["relative_residual"] <= 1e-10
    assert payload["verify"]["transform_unitarity"] <= 1e-10


def test_canon_congruence_normalizes_the_pair():
    payload = run_json("canon", "--congruence", fx("coninvolutory.json"))
    two = payload["form"]["two_by_two"][0]
    assert two["tau"] == pytest.approx(2.0)
    assert two["mu"] == pytest.approx([0.25, 0.0])


def test_canon_star_triangular_rendering():
    payload = run_json("canon", "--star", "--triangular", fx("weighted.json"))
    two = payload["form"]["two_by_two"][0]
    assert two["tau"] == pytest.approx(2.0)
    assert two["mu"] == pytest.approx([0.5, 0.0])
    assert two["nu"] == pytest.approx([2.0**0.5, 0.0])
    assert two["r"] == pytest.approx(1.0)
    assert payload["form"]["representation"] == "triangular"


def test_canon_unitary_style():
    payload = run_json(
        "canon", "--congruence", "--style", "hermitian_unitary", fx("rotation.json")
    )
    assert payload["style"] == "hermitian_unitary"
    block = payload["blocks"][0]
    expected = [[0.0, 0.0], [0.0, -1.0], [0.0, 1.0], [0.0, 0.0]]
    assert np.allclose(block["data"], expected, atol=1e-12)


def test_classify_report():
    payload = run_json("classify", fx("j2_nilpotent.json"))
    flags = payload["report"]["flags"]
    assert flags["congruence_normal"]
    assert flags["squared_normal"]
    assert not flags["normal"]
    assert payload["report"]["lambda"] == [0.0, 0.0]


def test_compare_star_pearcy():
    payload = run_json(
        "compare", "--star", fx("j2_nilpotent.json"), fx("j2_nilpotent.json")
    )
    assert payload["result"]["verdict"] == "equivalent"
    assert payload["result"]["method"] == "pearcy"


def test_compare_congruence_not_equivalent():
    payload = run_json(
        "compare", "--congruence", fx("h2_i.json"), fx("coninvolutory.json")
    )
    assert payload["result"]["verdict"] == "not_equivalent"


def test_regularize_star():
    payload = run_json("regularize", "--star", fx("singular_mixed.json"))
    result = payload["result"]
    assert result["m1"] == 1
    assert result["m2"] == 1
    assert result["sigma"] == pytest.approx([1.0])


def test_simulate_default_start_vector():
    payload = run_json(
        "simulate", "--congruence", "--steps", "40", fx("weighted.json")
    )
    assert payload["steps"] == 40
    assert payload["result"]["growth_classification"] == "unbounded"


def test_simulate_with_start_vector_file():
    payload = run_json(
        "simulate",
        "--congruence",
        "--steps",
        "50",
        "--x0",
        fx("x0_pair.json"),
        fx("rotation.json"),
    )
    assert payload["result"]["growth_classification"] == "bounded"
    assert len(payload["result"]["norms"]) == 51


def test_simulate_honours_rank_rtol(tmp_path):
    # diag(1, 1e-12) is singular at the default rank_rtol and
    # nonsingular at 1e-14, so only the override lets the run start.
    path = tmp_path / "near_singular.json"
    path.write_text(
        json.dumps({"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0],
                                                    [0.0, 0.0], [1e-12, 0.0]]})
    )
    code, _ = run_cli("simulate", "--star", "--steps", "5", str(path))
    assert code == cli.EXIT_PRECONDITION
    code, _ = run_cli(
        "simulate", "--star", "--steps", "5", "--rank-rtol", "1e-14", str(path)
    )
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("mode", ["--star", "--congruence"])
def test_simulate_starts_a_0x0_matrix_at_the_empty_vector(tmp_path, mode):
    # The default start vector is e_1 for n >= 1 and empty for n = 0.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"rows": 0, "cols": 0, "data": []}))
    payload = run_json("simulate", mode, "--steps", "5", str(path))
    assert payload["result"]["growth_classification"] == "bounded"


@pytest.mark.parametrize("mode", ["--star", "--congruence"])
def test_gate_overflow_is_a_convergence_failure(tmp_path, mode):
    # The input is finite and in class, and the Gram matrix of its gate
    # product would overflow float64 at the input's scale.  The pipeline
    # runs at unit scale, so the canonical form comes out: 1e80 times
    # that of the unscaled input.
    sample = random_star_instance if mode == "--star" else random_congruence_instance
    a = sample(6, default_rng(5))[1]
    base = tmp_path / "base.json"
    base.write_text(dumps_matrix(a))
    path = tmp_path / "huge.json"
    path.write_text(dumps_matrix(1e80 * a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli("canon", mode, "--verify", str(path))
    assert code == cli.EXIT_OK
    payload = json.loads(text)
    assert payload["verify"]["relative_residual"] <= 1e-12
    form = run_json("canon", mode, str(base))["form"]
    taus = [block["tau"] for block in payload["form"]["two_by_two"]]
    assert taus == pytest.approx(
        [1e80 * block["tau"] for block in form["two_by_two"]], rel=1e-12
    )
    ones = np.array(payload["form"]["one_by_one"], dtype=float).reshape(-1)
    want = 1e80 * np.array(form["one_by_one"], dtype=float).reshape(-1)
    assert np.allclose(ones, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode", ["--star", "--congruence"])
def test_regularize_overflow_is_a_convergence_failure(tmp_path, mode):
    # ||a||_F^2 would overflow at the input's scale; the reduction runs at
    # unit scale and scales sigma back.
    path = tmp_path / "huge.json"
    path.write_text(dumps_matrix(np.array([[0, 1e160, 0], [0, 0, 0], [0, 0, 0]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_json("regularize", mode, str(path))
    result = payload["result"]
    assert (result["m1"], result["m2"]) == (2, 1)
    assert result["sigma"] == pytest.approx([1e160], rel=1e-15)


def test_reports_are_byte_identical():
    first = run_cli("canon", "--star", "--verify", fx("h2_i.json"))
    second = run_cli("canon", "--star", "--verify", fx("h2_i.json"))
    assert first == second
    assert first[1]


def test_output_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, text = run_cli(
        "classify", fx("rotation.json"), "--output", str(target)
    )
    assert code == cli.EXIT_OK
    assert text == ""
    assert json.loads(target.read_text())["command"] == "classify"


def test_tolerance_override_changes_the_verdict():
    # With a huge residual tolerance everything is "equal".
    payload = run_json(
        "compare",
        "--congruence",
        fx("h2_i.json"),
        fx("h2_i.json"),
        "--residual-rtol",
        "1e-2",
    )
    assert payload["result"]["verdict"] == "equivalent"


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _ = run_cli("classify", "no_such_file.json")
        assert code == cli.EXIT_PARSE
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self):
        code, _ = run_cli("classify", fx("not_json.json"))
        assert code == cli.EXIT_PARSE

    def test_shape_mismatch(self):
        code, _ = run_cli("classify", fx("bad_shape.json"))
        assert code == cli.EXIT_PARSE

    def test_precondition_out_of_class(self, capsys):
        code, _ = run_cli("canon", "--congruence", fx("upper.json"))
        assert code == cli.EXIT_PRECONDITION
        assert "precondition" in capsys.readouterr().err

    def test_precondition_singular_simulate(self):
        code, _ = run_cli("simulate", "--star", fx("j2_nilpotent.json"))
        assert code == cli.EXIT_PRECONDITION

    def test_usage_requires_mode(self):
        code, _ = run_cli("canon", fx("h2_i.json"))
        assert code == cli.EXIT_PARSE

    def test_usage_triangular_needs_star(self):
        code, _ = run_cli("canon", "--congruence", "--triangular", fx("h2_i.json"))
        assert code == cli.EXIT_PARSE

    def test_usage_style_needs_congruence(self):
        code, _ = run_cli(
            "canon", "--star", "--style", "h2", fx("rotation.json")
        )
        assert code == cli.EXIT_PARSE

    def test_usage_style_excludes_verify(self):
        code, _ = run_cli(
            "canon",
            "--congruence",
            "--style",
            "h2",
            "--verify",
            fx("rotation.json"),
        )
        assert code == cli.EXIT_PARSE

    def test_integer_beyond_float_range_in_matrix(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400))
        code, _ = run_cli("classify", str(path))
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err == "parse error: matrix entries must be finite\n"

    def test_integer_beyond_float_range_in_start_vector(self, tmp_path, capsys):
        path = tmp_path / "huge_x0.json"
        path.write_text("[[0, -1%s], [0, 0]]" % ("0" * 400))
        code, _ = run_cli(
            "simulate", "--congruence", "--x0", str(path), fx("rotation.json")
        )
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err == "parse error: vector entries must be finite\n"

    def test_bad_steps_value(self):
        code, _ = run_cli(
            "simulate", "--star", "--steps", "0", fx("rotation.json")
        )
        assert code == cli.EXIT_PARSE


def _golden(stem, slug):
    return json.loads((GOLDEN / f"{stem}.{slug}.json").read_text())


def test_one_parser_serves_a_mixed_sequence_of_runs(tmp_path, capsys):
    report = tmp_path / "report.json"
    sequence = [
        (["canon", "--star", "--verify", fx("h2_i.json")], ("h2_i", "canon-star-verify")),
        (["canon", "--star", fx("h2_i.json")], ("h2_i", "canon-star")),
        (["canon", "--star", "--triangular", fx("weighted.json")],
         ("weighted", "canon-star-triangular")),
        (["canon", fx("weighted.json")], None),
        (["canon", "--star", fx("weighted.json")], ("weighted", "canon-star")),
        (["classify", fx("rotation.json"), "--output", str(report)],
         ("rotation", "classify")),
        (["classify", fx("rotation.json")], ("rotation", "classify")),
        (["canon", "--congruence", "--style", "real_orthogonal", fx("rotation.json")],
         ("rotation", "canon-unitary-real-orthogonal")),
        (["compare", "--congruence", fx("coninvolutory.json"), fx("coninvolutory.json")],
         ("coninvolutory", "compare-congruence-self")),
        (["regularize", "--star", fx("singular_mixed.json")],
         ("singular_mixed", "regularize-star")),
        (["canon", "--congruence", fx("upper.json")], ("upper", "canon-congruence")),
        (["classify", fx("bad_shape.json")], ("bad_shape", "classify")),
        (["canon", "--congruence", fx("coninvolutory.json")],
         ("coninvolutory", "canon-congruence")),
    ]
    cli._parser.cache_clear()
    capsys.readouterr()
    for argv, golden in sequence:
        code, text = run_cli(*argv)
        err = capsys.readouterr().err
        if golden is None:
            # A usage error between runs leaves the parser as it was.
            assert code == cli.EXIT_PARSE
            assert err.startswith("usage: canonica canon")
            assert "one of the arguments --congruence --star is required" in err
            continue
        expected = _golden(*golden)
        assert (code, err) == (expected["exit"], expected["stderr"]), argv
        if "--output" in argv:
            assert text == ""
            text = report.read_text()
        assert text == expected["stdout"], argv
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, len(sequence) - 1)


def test_build_parser_returns_a_new_parser_each_call():
    first = cli.build_parser()
    assert cli.build_parser() is not first
    assert cli.build_parser() is not cli._parser()


def test_selftest_command_passes():
    out = io.StringIO()
    code = cli.run(["selftest"], out=out)
    assert code == cli.EXIT_OK
    payload = json.loads(out.getvalue())
    assert payload["passed"] == 10
    assert payload["failed"] == 0
    assert len(payload["criteria"]) == 10
    # The default seed, resolved when the battery runs.
    assert payload["seed"] == 20260819


def test_selftest_and_the_sampler_load_only_when_the_battery_runs():
    probe = (
        "import sys, canonica, canonica.cli; "
        "print([m for m in ('canonica.selftest', 'canonica.sampling') if m in sys.modules]); "
        "canonica.run_selftest; "
        "print('canonica.selftest' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def test_compare_writes_traces_past_the_float_range_as_null(tmp_path):
    # tr y^2 and tr y* y of these 2-by-2 inputs overflow: the report
    # writes them as null, which strict JSON parsers accept, not Infinity.
    paths = []
    for name, b in (("a", 2e160), ("b", 2.5e160)):
        path = tmp_path / f"{name}.json"
        path.write_text(dumps_matrix([[1e160, b], [0.0, 3e160]]))
        paths.append(str(path))
    code, text = run_cli("compare", "--star", *paths)
    assert code == cli.EXIT_OK

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    result = json.loads(text, parse_constant=refuse)["result"]
    assert result["verdict"] == "not_equivalent"
    assert result["detail"]["traces"]["a"] == [[4e160, 0.0], [None, 0.0], [None, 0.0]]


def test_console_entry_point():
    # One end-to-end run through the installed script.
    proc = subprocess.run(
        [sys.executable, "-m", "canonica.cli", "canon", "--star", fx("j2_nilpotent.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["form"]["two_by_two"][0]["tau"] == 1.0


@pytest.mark.parametrize("via", ["run", "main"])
@pytest.mark.parametrize(
    "argv",
    [["canon", "--star", fx("h2_i.json")], ["selftest"]],
    ids=["canon", "selftest"],
)
def test_unwritable_output_is_a_parse_error(tmp_path, capsys, via, argv):
    target = tmp_path / "missing" / "out.json"
    argv = [*argv, "--output", str(target)]
    code = run_cli(*argv)[0] if via == "run" else cli.main(argv)
    assert code == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(f"parse error: cannot write {target}: ")
    assert not target.parent.exists()


# ----- the cyclic collector -------------------------------------------------
# run() pauses the cyclic collector for the whole command.  That is
# safe because a matrix command allocates no reference cycles: reference
# counting frees everything it makes.


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """An n = 48 star instance, in-class input on which canon --star
    fails to converge (exit 4: two mu 4e-8 apart, as in
    test_canon_star_close_mu_fails_to_converge), and an --output path in
    a directory that does not exist (exit 3)."""
    root = tmp_path_factory.mktemp("gc_inputs")
    paths = {
        "n48": root / "n48.json",
        "close_mu": root / "close_mu.json",
        "unwritable": root / "missing" / "out.json",
    }
    paths["n48"].write_text(dumps_matrix(random_star_instance(48, default_rng(3))[1]))
    u = random_unitary(4, default_rng(1))
    b = direct_sum([antidiag_block(1.0, 0.04), antidiag_block(1.0, 0.04 * (1.0 + 1e-6))])
    paths["close_mu"].write_text(dumps_matrix(u @ b @ u.conj().T))
    return {k: str(v) for k, v in paths.items()}


# (argv, exit code); "{name}" stands for a path of the inputs fixture.
MATRIX_COMMANDS = {
    "classify": (["classify", fx("rotation.json")], cli.EXIT_OK),
    "canon-star-verify": (["canon", "--star", "--verify", "{n48}"], cli.EXIT_OK),
    "canon-star-triangular": (
        ["canon", "--star", "--triangular", fx("weighted.json")], cli.EXIT_OK),
    "canon-congruence-verify": (
        ["canon", "--congruence", "--verify", fx("singular_mixed.json")], cli.EXIT_OK),
    "canon-cluster-rtol": (
        ["canon", "--star", "--cluster-rtol", "1e-6", fx("weighted.json")], cli.EXIT_OK),
    "canon-style": (
        ["canon", "--congruence", "--style", "hermitian_unitary", fx("rotation.json")],
        cli.EXIT_OK),
    "compare-star-pearcy": (
        ["compare", "--star", fx("j2_nilpotent.json"), fx("j2_nilpotent.json")],
        cli.EXIT_OK),
    "compare-star": (["compare", "--star", "{n48}", "{n48}"], cli.EXIT_OK),
    "compare-congruence": (
        ["compare", "--congruence", fx("h2_i.json"), fx("coninvolutory.json")],
        cli.EXIT_OK),
    "compare-unsupported": (
        ["compare", "--congruence", fx("upper.json"), fx("upper.json")], cli.EXIT_OK),
    "regularize": (["regularize", "--star", fx("singular_mixed.json")], cli.EXIT_OK),
    "simulate": (["simulate", "--congruence", "--steps", "40", fx("weighted.json")],
                 cli.EXIT_OK),
    "simulate-x0": (
        ["simulate", "--congruence", "--steps", "50", "--x0", fx("x0_pair.json"),
         fx("rotation.json")], cli.EXIT_OK),
    "exit2-precondition": (["canon", "--congruence", fx("upper.json")],
                           cli.EXIT_PRECONDITION),
    "exit3-missing-file": (["classify", "no_such_file.json"], cli.EXIT_PARSE),
    "exit3-not-json": (["classify", fx("not_json.json")], cli.EXIT_PARSE),
    "exit3-bad-shape": (["classify", fx("bad_shape.json")], cli.EXIT_PARSE),
    "exit3-usage": (["canon", "--star", "--style", "h2", fx("rotation.json")],
                    cli.EXIT_PARSE),
    "exit3-x0-missing-file": (
        ["simulate", "--congruence", "--steps", "5", "--x0", "no_such_file.json",
         fx("rotation.json")], cli.EXIT_PARSE),
    "exit3-x0-not-json": (
        ["simulate", "--congruence", "--steps", "5", "--x0", fx("not_json.json"),
         fx("rotation.json")], cli.EXIT_PARSE),
    "exit3-unwritable": (["classify", fx("rotation.json"), "--output", "{unwritable}"],
                         cli.EXIT_PARSE),
    "exit4-convergence": (["canon", "--star", "{close_mu}"], cli.EXIT_CONVERGENCE),
}


def _argv(argv, inputs):
    return [arg.format(**inputs) for arg in argv]


@pytest.mark.parametrize("name", MATRIX_COMMANDS)
def test_matrix_commands_leave_no_cyclic_garbage(inputs, capsys, name):
    argv, expected = MATRIX_COMMANDS[name]
    argv = _argv(argv, inputs)
    assert run_cli(*argv)[0] == expected  # first-call caches and imports
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        code = run_cli(*argv)[0]
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        leaked = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert code == expected
    assert (unreachable, leaked) == (0, [])


COLLECTOR_CASES = {
    "exit0": ["canon", "--star", fx("h2_i.json")],
    "exit2": ["canon", "--congruence", fx("upper.json")],
    "exit3": ["classify", fx("not_json.json")],
    "exit4": ["canon", "--star", "{close_mu}"],
    "argparse-usage": ["canon", fx("h2_i.json")],
    "selftest": ["selftest"],
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("name", COLLECTOR_CASES)
def test_run_leaves_the_collector_as_it_found_it(inputs, capsys, name, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run_cli(*_argv(COLLECTOR_CASES[name], inputs))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_no_collection_starts_inside_run(inputs):
    # At a young-generation threshold far below the 2,304 [re, im] lists
    # that decoding the n = 48 input allocates, the decode alone starts
    # collections; inside run() none starts.  A collection runs where
    # an allocation triggers it, so its callback sees run()'s frame on
    # the stack exactly when it starts inside run().
    inside, outside = [], []

    def on_collect(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not cli.run.__code__:
            frame = frame.f_back
        (outside if frame is None else inside).append(info["generation"])

    text = Path(inputs["n48"]).read_text()
    out = io.StringIO()
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(100)
    gc.callbacks.append(on_collect)
    try:
        json.loads(text)
        decoded = len(outside)
        code = cli.run(["canon", "--star", inputs["n48"]], out=out)
    finally:
        gc.callbacks.remove(on_collect)
        gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()
    assert code == cli.EXIT_OK
    assert decoded > 0
    assert inside == []
