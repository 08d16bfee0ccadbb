"""The worker, command line and comparison rule that the comparison tools
share (tools/_sources.py), and the --rel rule of tools/solve_digest.py, on
synthetic records.  Both files are loaded by path with bytecode off, so
that nothing is written under tools/."""

import argparse
import importlib.util
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


def _load(name):
    """tools/<name>.py loaded by file path, leaving tools/ and sys.path as they were."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location(f"tools_{name}", os.path.join(TOOLS, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


SOURCES = _load("_sources")
DIGEST = _load("solve_digest")


def _against(theirs, ours, *argv, **hooks):
    """The exit code of a tool whose sources "theirs" and "ours" give these
    records, run with --against."""
    records = {"theirs": theirs, "ours": ours}
    hooks = {"closing": lambda args, a, b: ["closing"], **hooks}
    return SOURCES.main(
        "doc", work=None, collect=lambda args, src: records[src], show=None,
        argv=["--src", "ours", "--against", "theirs", *argv], **hooks,
    )


class TestCompare:
    def test_identical_records_print_only_the_closing_lines(self, capsys):
        assert _against(["a", "b"], ["a", "b"]) == 0
        assert capsys.readouterr().out == "closing\n"

    def test_a_differing_record_prints_its_pair(self, capsys):
        assert _against(["a", "b", "c"], ["a", "x", "c"]) == 1
        assert capsys.readouterr().out == "b → x\nclosing\n"

    @pytest.mark.parametrize("theirs, ours", [(["a"], ["a", "b"]), (["a", "b"], ["a"]), ([], ["a"])])
    def test_different_record_counts_fail(self, capsys, theirs, ours):
        assert _against(theirs, ours) == 1
        assert capsys.readouterr().out == f"{len(theirs)} records → {len(ours)} records\nclosing\n"

    def test_records_compare_by_their_lines(self, capsys):
        theirs = [{"line": "a", "x": 1}, {"line": "b", "x": 2}]
        ours = [{"line": "a", "x": 3}, {"line": "c", "x": 4}]
        closing = lambda args, a, b: [f"{sum(r['x'] for r in a)} → {sum(r['x'] for r in b)}"]
        assert _against(theirs, ours, line=lambda r: r["line"], closing=closing) == 1
        assert capsys.readouterr().out == "b → c\n3 → 7\n"

    def test_plain_output_and_worker(self, capsys, monkeypatch):
        hooks = dict(collect=lambda args, src: [src], show=lambda records: f"shown {records}", closing=None)
        assert SOURCES.main("doc", work=None, argv=["--src", "here"], **hooks) == 0
        assert capsys.readouterr().out == "shown ['here']\n"
        monkeypatch.setattr(sys, "path", list(sys.path))
        assert SOURCES.main("doc", work=lambda args: [{"a": args.src}], argv=["--worker", "--src", "here"], **hooks) == 0
        assert capsys.readouterr().out == '[{"a": "here"}]\n'
        assert sys.path[0] == "here"

    def test_a_flag_that_needs_against(self, capsys):
        hooks = dict(work=None, collect=None, show=None, closing=None, flags={"--rel": dict(type=float)})
        with pytest.raises(SystemExit) as exc:
            SOURCES.main("doc", needs_against=("rel",), argv=["--rel", "1"], **hooks)
        assert exc.value.code == 2
        assert "--rel needs --against" in capsys.readouterr().err


def _digest(program="6be87b7f", rows=27, status="optimal", stop="optimal", iters=10, value=12.25):
    return f"ladder | theta_transitive mantel(7) | {program} rows {rows} {status} {stop} {iters} {value.hex()}"


class TestDigestRel:
    RULE = dict(closing=DIGEST._closing, differs=DIGEST._differs, flags={"--rel": dict(type=DIGEST._bound)})

    def test_program_and_value_within_the_bound_pass_and_are_counted(self, capsys):
        theirs = [_digest(), _digest(value=3.0)]
        ours = [_digest(program="cd87ab1f", value=12.25 * (1 + 1e-12)), _digest(value=3.0)]
        assert _against(theirs, ours, "--rel", "1e-10", **self.RULE) == 0
        assert capsys.readouterr().out == (
            "within 1e-10: 2 solves, 1 values differ, largest relative difference 1e-12, 1 programs differ\n"
        )

    def test_a_value_beyond_the_bound_fails(self, capsys):
        theirs, ours = [_digest()], [_digest(value=12.25 * (1 + 1e-8))]
        assert _against(theirs, ours, "--rel", "1e-10", **self.RULE) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"{theirs[0]} → {ours[0]}"
        assert out[1] == "within 1e-10: 1 solves, 1 values differ, largest relative difference 1e-08, 0 programs differ"

    @pytest.mark.parametrize("rel", [None, 0.0, 1e-10, 1.0, 1e300])
    @pytest.mark.parametrize(
        "change", [dict(rows=28), dict(status="numerical-failure"), dict(stop="stalled"), dict(iters=11)]
    )
    def test_rows_status_stop_or_iterations_fail_at_any_bound(self, rel, change):
        assert DIGEST._differs(argparse.Namespace(rel=rel), _digest(), _digest(**change))

    def test_without_rel_the_program_must_match(self, capsys):
        theirs, ours = [_digest(), _digest()], [_digest(), _digest(program="cd87ab1f")]
        assert _against(theirs, ours, **self.RULE) == 1
        assert capsys.readouterr().out == f"{theirs[1]} → {ours[1]}\nidentical: 1 solves\n"

    @pytest.mark.parametrize("text", ["nan", "inf", "-1e-3"])
    def test_the_bound_is_finite_and_not_negative(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            DIGEST._bound(text)


class TestSpawn:
    WORKER = (
        "import json, os, sys\n"
        "import helper\n"
        "names = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')\n"
        "print(json.dumps({'argv': sys.argv[1:], 'threads': [os.environ[k] for k in names]}))\n"
    )

    @pytest.mark.parametrize("threads", [1, 3])
    def test_worker_sees_the_thread_count_and_writes_no_bytecode(self, tmp_path, monkeypatch, threads):
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(name, "7")
        (tmp_path / "helper.py").write_text("")
        (tmp_path / "tool.py").write_text(self.WORKER)
        record = SOURCES.spawn(str(tmp_path / "tool.py"), "SRC", "--seed", "5", threads=threads)
        assert record == {"argv": ["--worker", "--src", "SRC", "--seed", "5"], "threads": [str(threads)] * 3}
        assert sorted(os.listdir(tmp_path)) == ["helper.py", "tool.py"]
