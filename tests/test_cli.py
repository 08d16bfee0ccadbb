import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hypertheta import checks
from hypertheta.cli import _build_parser, main, render_json
from hypertheta.hoffman import read_weighted_hypergraph
from hypertheta.hypercore import (
    DEFAULT_ALPHA_CAP,
    alpha,
    complete_hypergraph,
    cycle_graph,
    format_hypergraph,
    write_hypergraph,
)
from hypertheta.symmetry import mantel_hypergraph
from hypertheta.thetabody import theta, theta_dual, theta_membership

PROPERTIES = dict(checks._PROPERTIES)
SUBCOMMANDS = list(
    next(a for a in _build_parser()._actions if a.dest == "command").choices
)


@pytest.fixture
def mantel4_file(tmp_path):
    path = tmp_path / "mantel4.hg"
    write_hypergraph(mantel_hypergraph(4), path)
    return str(path)


@pytest.fixture
def edge3_file(tmp_path):
    path = tmp_path / "edge3.hg"
    write_hypergraph(complete_hypergraph(3, 3), path)
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRenderJson:
    def test_fixed_order_and_formats(self):
        text = render_json({"b": 1.0, "a": Fraction(1, 3), "c": [True, None]})
        assert text == '{"b":1,"a":"1/3","c":[true,null]}'

    def test_twelve_significant_digits(self):
        assert render_json(3.14159265358979) == "3.14159265359"


class TestCommands:
    def test_alpha(self, capsys, edge3_file):
        code, out, _ = run_cli(capsys, "alpha", "--file", edge3_file)
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 2

    def test_theta_mantel(self, capsys, mantel4_file):
        code, out, _ = run_cli(capsys, "theta", "--file", mantel4_file)
        assert code == 0
        data = json.loads(out)
        assert abs(data["value"] - 4.0) < 1e-5

    def test_chistar(self, capsys, edge3_file):
        code, out, _ = run_cli(capsys, "chistar", "--file", edge3_file)
        data = json.loads(out)
        assert data["value"] == "3/2"

    def test_theta_dual(self, capsys, edge3_file):
        # sandwich pins the value: alpha/(r-1) = 1 below, cover number 1 above
        code, out, _ = run_cli(capsys, "theta-dual", "--file", edge3_file)
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(1.0, abs=1e-5)

    def test_weights_file(self, capsys, tmp_path):
        hg = cycle_graph(5)
        path, wpath = tmp_path / "c5.hg", tmp_path / "w.txt"
        write_hypergraph(hg, path)
        wpath.write_text("1\n0\n1/2\n0\n2\n")
        w = [1, 0, Fraction(1, 2), 0, 2]
        want = {"alpha": alpha(hg, w)[0], "theta": float(theta(hg, w).value)}
        for command, value in want.items():
            code, out, _ = run_cli(capsys, command, "--file", str(path), "--weights", str(wpath))
            assert code == 0
            assert json.loads(out)["value"] == json.loads(render_json(value))

    def test_member(self, capsys, edge3_file, tmp_path):
        vec = tmp_path / "f.txt"
        vec.write_text("1\n1\n0\n")
        code, out, _ = run_cli(capsys, "member", "--file", edge3_file, "--vec", str(vec))
        assert code == 0
        assert json.loads(out)["member"] is True
        vec.write_text("1\n1\n1\n")
        code, out, _ = run_cli(capsys, "member", "--file", edge3_file, "--vec", str(vec))
        assert json.loads(out)["member"] is False

    def test_mantel(self, capsys):
        code, out, _ = run_cli(capsys, "mantel", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "4"
        assert data["alpha"] == "1/2" and data["beta"] == "1"
        code, out, _ = run_cli(capsys, "mantel", "--n", "5")
        assert json.loads(out)["value"] == "25/4"

    def test_hamming(self, capsys):
        code, out, _ = run_cli(capsys, "hamming", "--n", "3", "--s", "2")
        assert code == 0
        data = json.loads(out)
        assert data["theta"] == "4"
        assert data["theta_link"] == "1"
        assert data["M_K"] == "-1/3"
        assert data["M_Q"] == "-1/2"

    def test_scan_decay(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys, "scan-decay", "--c", "3,4", "--n", "20:24", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "n,c,s,log_density"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == "20" and first[1] == "3" and first[2] == "6"

    def test_hoffman(self, capsys, tmp_path):
        path = tmp_path / "edge.whg"
        path.write_text("3 3 1\n0 1 2 1\n")
        code, out, _ = run_cli(capsys, "hoffman", "--file", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["hoff"] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert data["theta"] == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert data["alpha"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert data["lambda_levels"] == pytest.approx([-0.5, -1.0], abs=1e-9)

    def test_hoffman_vertex_measure_below_double_range(self, capsys, tmp_path):
        path = tmp_path / "tiny.whg"
        path.write_text("3 4 2\n0 1 2 1e400\n1 2 3 1\n")
        code, out, err = run_cli(capsys, "hoffman", "--file", str(path))
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["lambda_levels"] == pytest.approx([-0.5, -1.0], abs=1e-12)
        assert data["hoff"] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_valid_tolerance(self, capsys, edge3_file, tmp_path):
        # a valid --tol reaches the library: each command prints what the
        # library returns at that tol, not at the default
        tol = 1e-3
        hg = complete_hypergraph(3, 3)
        vec = tmp_path / "f.txt"
        vec.write_text("1\n1\n0\n")
        whg = tmp_path / "edge.whg"
        whg.write_text("3 3 1\n0 1 2 1\n")
        wh = read_weighted_hypergraph(whg)
        res = theta(hg, tol=tol)
        member, cert = theta_membership(hg, [1, 1, 0], tol=tol)
        want = {
            ("theta", "--file", edge3_file): {
                "value": float(res.value),
                "iterations": res.diagnostics["iterations"],
            },
            ("theta-dual", "--file", edge3_file): {"value": float(theta_dual(hg, None, tol=tol).value)},
            ("member", "--file", edge3_file, "--vec", str(vec)): {
                "member": member,
                "certificate_scale": float(cert.scale),
            },
            ("hoffman", "--file", str(whg)): {
                "theta": float(theta(wh.hyper, [float(v) for v in wh.vertex_measure()], tol=tol).value)
            },
        }
        assert res.value != theta(hg).value  # the tol changes what is printed
        for argv, fields in want.items():
            code, out, err = run_cli(capsys, *argv, "--tol", str(tol))
            assert (code, err) == (0, ""), argv
            data = json.loads(out)
            for key, value in fields.items():
                assert data[key] == json.loads(render_json(value)), (argv, key)

    def test_hoffman_alpha_above_the_cap(self, capsys, tmp_path):
        # past DEFAULT_ALPHA_CAP vertices the exact alpha is not computed
        n = DEFAULT_ALPHA_CAP + 1
        path = tmp_path / "cycle.whg"
        edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
        path.write_text(f"2 {n} {n}\n" + "".join(f"{a} {b} {a % 3 + 1}\n" for a, b in edges))
        code, out, err = run_cli(capsys, "hoffman", "--file", str(path))
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["alpha"] is None
        assert data["theta"] <= data["hoff"] + 1e-6

    def test_mantel_beyond_the_double_range(self, capsys):
        n = 10**160
        code, out, err = run_cli(capsys, "mantel", "--n", str(n))
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert Fraction(data["value"]) == Fraction(n * n, 4)
        assert data["value_decimal"] is None

    def test_hamming_beyond_the_double_range(self, capsys):
        code, out, err = run_cli(capsys, "hamming", "--n", "1100", "--s", "2")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert Fraction(data["theta"]) > 2**1024
        assert data["theta_decimal"] is None
        assert data["theta_link"] == "550" and data["theta_link_decimal"] == 550

    def test_hamming_decimal_at_the_top_of_the_double_range(self, capsys):
        code, out, err = run_cli(capsys, "hamming", "--n", "1023", "--s", "2")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert isinstance(data["theta_decimal"], float)
        assert data["theta_decimal"] == pytest.approx(float(Fraction(data["theta"])), rel=1e-11)

    def test_scan_decay_single_dimension(self, capsys):
        code, out, _ = run_cli(capsys, "scan-decay", "--c", "3", "--n", "30")
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "n,c,s,log_density"
        assert [row.split(",")[:3] for row in rows] == [["30", "3", "10"]]


class TestHelpAndReadme:
    def test_readme_names_the_subcommands(self):
        # the command block under "## Command line" shows each command once
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        shown = [line.split()[1] for line in block.splitlines() if line.startswith("hypertheta ")]
        assert sorted(shown) == sorted(SUBCOMMANDS)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_exits_0(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert out.startswith(f"usage: hypertheta {command}")


class TestErrors:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "alpha", "--file", "/nonexistent.hg")
        assert code == 2
        assert "error" in err

    def test_bad_format_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("2 3 1\n1 0\n")
        code, _, err = run_cli(capsys, "alpha", "--file", str(path))
        assert code == 2
        assert "line 2" in err

    def test_unknown_flag(self, capsys):
        code, *_ = run_cli(capsys, "alpha", "--nope")
        assert code == 2

    def test_empty_scan_range(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        cases = [("2", "30:20", "30:20"), (",", "20:30", "','"), ("", "20:30", "''")]
        for ratios, ns, named in cases:
            code, out, err = run_cli(
                capsys, "scan-decay", "--c", ratios, "--n", ns, "--out", str(out_path)
            )
            assert code == 2
            assert out == ""
            assert named in json.loads(err)["error"]
            assert not out_path.exists()

    def test_hamming_without_triangles(self, capsys):
        for n, s in (("3", "1"), ("2", "4")):
            code, out, err = run_cli(capsys, "hamming", "--n", n, "--s", s)
            assert code == 2
            assert out == ""
            assert f"no {s}-triangles in the {n}-cube" in json.loads(err)["error"]

    def test_weight_beyond_the_double_range(self, capsys, tmp_path):
        graph, numbers = tmp_path / "g.hg", tmp_path / "w.txt"
        graph.write_text("2 3 1\n0 1\n")
        numbers.write_text("1e400\n1\n1\n")
        for argv in (
            ["theta", "--weights", str(numbers)],
            ["theta-dual", "--weights", str(numbers)],
            ["member", "--vec", str(numbers)],
        ):
            code, out, err = run_cli(capsys, *argv, "--file", str(graph))
            assert code == 2, argv
            assert out == ""
            assert "weight 0 lies beyond the double range" in json.loads(err)["error"]

    def test_bad_tolerance(self, capsys, edge3_file):
        for tol in ("-1", "0", "inf", "nan"):
            code, out, _ = run_cli(capsys, "theta", "--file", edge3_file, "--tol", tol)
            assert code == 2, tol
            assert out == ""

    def test_solver_failure_exits_3(self, capsys, monkeypatch, edge3_file):
        from hypertheta import thetabody
        from hypertheta.numlin import SdpSolution

        failed = SdpSolution(status="numerical-failure", iterations=7)
        monkeypatch.setattr(thetabody, "solve_sdp", lambda problem, tol: failed)
        code, out, err = run_cli(capsys, "theta", "--file", edge3_file)
        assert code == 3
        assert out == ""
        assert "numerical-failure" in json.loads(err)["error"]

    def test_check_reports_raising_block_and_continues(self, capsys, monkeypatch):
        # every property is reported under its own name, also when theta raises
        calls_theta = {
            "numlin.sdp_weak_duality",
            "thetabody.sandwich",
            "thetabody.scaling",
            "thetabody.duality_product",
            "thetabody.negative_weights",
            "thetabody.graph_duality",
            "symmetry.transitive_agreement",
            "symmetry.group_averaging",
            "hoffman.sandwich",
            "hoffman.transitive_tightness",
        }

        def raising(*args, **kwargs):
            raise RuntimeError("theta unavailable")

        monkeypatch.setattr(checks, "theta", raising)
        code, out, err = run_cli(capsys, "check")
        lines = out.splitlines()
        assert code == 1
        assert "Traceback" in err
        failed = "FAIL {}: RuntimeError: theta unavailable"
        assert lines[:-1] == [
            failed.format(name) if name in calls_theta else f"ok {name}" for name in PROPERTIES
        ]
        assert json.loads(lines[-1])["failures"] == len(calls_theta)


class TestPropertySuite:
    @pytest.mark.parametrize("name", list(PROPERTIES))
    def test_property_holds(self, name):
        # the unpatched properties behind `hypertheta check`, at its default seed
        assert PROPERTIES[name](random.Random(42)) is None


class TestDeterminism:
    def test_byte_identical_runs(self, capsys, mantel4_file):
        _, out1, _ = run_cli(capsys, "theta", "--file", mantel4_file)
        _, out2, _ = run_cli(capsys, "theta", "--file", mantel4_file)
        assert out1 == out2

    def test_hamming_repeatable(self, capsys):
        _, out1, _ = run_cli(capsys, "hamming", "--n", "6", "--s", "4")
        _, out2, _ = run_cli(capsys, "hamming", "--n", "6", "--s", "4")
        assert out1 == out2

    def test_shared_parser_matches_a_fresh_process(self, capsys, fresh_python):
        # main reuses one parser; an error and a help exit on it leave later
        # calls printing what a fresh interpreter prints
        assert _build_parser() is _build_parser()
        assert run_cli(capsys, "mantel", "--nope")[0] == 2
        assert run_cli(capsys, "mantel", "--help")[0] == 0
        for argv in (["hamming", "--n", "8", "--s", "4"], ["mantel", "--n", "6"]):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out.encode() == fresh_python("-m", "hypertheta.cli", *argv), argv


# sha256 of the stdout of the Hamming closed forms.  The values are exact
# rationals, so any way of evaluating the columns must reproduce these bytes.
SCAN_DIGEST = "f8f509c2ed0e961fb0b438c8433828be965b29218b2356c93a7136734c17e7b8"
HAMMING_DIGESTS = {
    (40, 10): "c6a18ddedec96d96d8316972a525d0cfbb74d0b5fdf9626f45c538aaf5ea07e3",
    (150, 50): "948ab4a98d17a5dffc96d97cd9358be586e2c16a73918e8af567d3296c76b8f3",
    (150, 76): "da3e0793ec700e11fbf915902cf7d68f81fc766a1456e06fdf3878472741985c",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutput:
    def test_scan_decay_digest(self, capsys):
        code, out, _ = run_cli(capsys, "scan-decay", "--c", "2,3,4", "--n", "20:150")
        assert code == 0
        assert len(out.splitlines()) == 394
        assert _digest(out) == SCAN_DIGEST

    @pytest.mark.parametrize("n, s", sorted(HAMMING_DIGESTS))
    def test_hamming_digest(self, capsys, n, s):
        code, out, _ = run_cli(capsys, "hamming", "--n", str(n), "--s", str(s))
        assert code == 0
        assert _digest(out) == HAMMING_DIGESTS[n, s]


# Each case is an error, with the start of its message, or the exit code.
@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: render_json(object()), TypeError("cannot render"), id="render-object"),
        pytest.param(
            lambda: main(["scan-decay", "--c", "2", "--n", "1:2:3"]), 2, id="scan-three-part-range"
        ),
    ],
)
def test_input_checks(call, expected, capsys):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=str(expected)):
            call()
    else:
        assert call() == expected
        assert "cannot parse range '1:2:3'" in json.loads(capsys.readouterr().err)["error"]
