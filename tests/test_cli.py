"""Command line interface: payloads, exit codes, determinism.

Fixtures under tests/fixtures are static files so these tests exercise
the same read path as a user invocation.
"""

import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from canonica import cli
from canonica.matrix import dumps_matrix
from canonica.sampling import default_rng, random_congruence_instance, random_star_instance

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
def test_gate_overflow_is_a_convergence_failure(tmp_path, capsys, mode):
    # The input is finite and in class, but the Gram matrix of its gate
    # product overflows float64: a convergence failure that names the
    # overflow, not a parse error (exit 3).
    sample = random_star_instance if mode == "--star" else random_congruence_instance
    path = tmp_path / "huge.json"
    path.write_text(dumps_matrix(1e80 * sample(6, default_rng(5))[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run_cli("canon", mode, str(path))
    assert code != cli.EXIT_PARSE
    assert code == cli.EXIT_CONVERGENCE
    assert capsys.readouterr().err == (
        "convergence failure: the class gate overflows float64 at the "
        "input's scale\n"
    )


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


def test_console_entry_point():
    # One end-to-end run through the installed script.
    proc = subprocess.run(
        [sys.executable, "-m", "canonica.cli", "canon", "--star", fx("j2_nilpotent.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["form"]["two_by_two"][0]["tau"] == 1.0
