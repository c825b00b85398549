"""Golden output of the whole `indsat` command.

Each case runs ``main`` in process with ``time.perf_counter`` fixed, so
every timing field reads 0, and pins its stdout, stderr and exit code
against ``tests/golden/cli.json``.  Paths under the test's temporary
directory read ``<tmp>`` there.  Usage errors are pinned only where the
top-level parser reports them: a subcommand's usage line lists its
options in declaration order, which is not part of the interface.

To rewrite the golden file after a deliberate change of output, run
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import indsat.trigraph as tri
from indsat import __version__, dnf
from indsat.cli import main
from indsat.constructions import construct_tn
from indsat.patterns import P4

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

CASES = {
    "construct": ["construct", "--n", "6"],
    "construct-alt": ["construct", "--n", "9", "--variant", "alt"],
    "construct-above-cap": ["construct", "--n", "65"],
    "verify": ["verify", "--file", "{tmp}/t6.tri", "--pattern", "p4"],
    "verify-expect-indsat-fails": ["verify", "--file", "{tmp}/white4.tri", "--expect-indsat"],
    "verify-pattern-file": ["verify", "--file", "{tmp}/white4.tri", "--pattern-file", "{tmp}/p3.pat"],
    "verify-missing-file": ["verify", "--file", "{tmp}/nope.tri"],
    "verify-bad-file": ["verify", "--file", "{tmp}/bad.tri"],
    "search": ["search", "--n", "4", "--pattern", "p4"],
    "search-naive": ["search", "--n", "4", "--naive"],
    "search-progress": ["search", "--n", "5", "--pattern", "c4", "--progress"],
    "search-kmax": ["search", "--n", "5", "--kmax", "1"],
    "search-pattern-file": ["search", "--n", "3", "--pattern-file", "{tmp}/p3.pat"],
    "search-above-cap": ["search", "--n", "9"],
    "search-naive-kmax": ["search", "--n", "4", "--naive", "--kmax", "0"],
    "enumerate": ["enumerate", "--n", "4", "--k", "2", "--outdir", "{tmp}/wit"],
    "enumerate-above-cap": ["enumerate", "--n", "9", "--k", "2", "--outdir", "{tmp}/big"],
    "encode": ["encode", "--n", "4", "--pattern", "p4"],
    "encode-below-pattern": ["encode", "--n", "3", "--pattern", "p4"],
    "encode-above-cap": ["encode", "--n", "9", "--pattern", "p4"],
    "formula": ["formula", "--family", "p4", "--n", "8"],
    "formula-unknown": ["formula", "--family", "c4", "--n", "4"],
    "formula-bad-size": ["formula", "--family", "p4", "--n", "2"],
    "facts": ["facts", "--n", "4"],
    "facts-not-p4": ["facts", "--n", "4", "--pattern", "k3"],
    "saturate": ["saturate", "--formula", "{tmp}/p4.dnf", "--assignment", "{tmp}/a.txt"],
    "saturate-mismatch": ["saturate", "--formula", "{tmp}/p4.dnf", "--assignment", "{tmp}/short.txt"],
    "no-subcommand": [],
    "verify-pretty": ["verify", "--file", "{tmp}/t6.tri", "--pretty"],
    "search-pretty": ["search", "--n", "4", "--pretty"],
    "enumerate-pretty": ["enumerate", "--n", "4", "--k", "2", "--outdir", "{tmp}/wit", "--pretty"],
    "formula-pretty": ["formula", "--family", "p3", "--n", "7", "--pretty"],
    "facts-pretty": ["facts", "--n", "3", "--pretty"],
    "saturate-pretty": ["saturate", "--formula", "{tmp}/p4.dnf", "--assignment", "{tmp}/a.txt",
                        "--pretty"],
}


def _inputs(tmp: Path) -> None:
    """The files the cases read, written without the command under test."""
    (tmp / "t6.tri").write_text(tri.dumps(construct_tn(6)[0]), encoding="utf-8")
    (tmp / "white4.tri").write_text("trigraph 4\n", encoding="utf-8")
    (tmp / "bad.tri").write_text("trigraph 4\n0 1 G\n# c\n0 4 B\n", encoding="utf-8")
    (tmp / "p3.pat").write_text("pattern 3\n0 1\n1 2\n", encoding="utf-8")
    (tmp / "p4.dnf").write_text(dnf.dumps(dnf.encode_pattern(4, P4)), encoding="utf-8")
    (tmp / "a.txt").write_text(dnf.assignment_of(construct_tn(4)[0]).to_string(), encoding="utf-8")
    (tmp / "short.txt").write_text("1-0", encoding="utf-8")


def run_case(argv: list[str], tmp: Path) -> dict:
    """Run one command; its output with the temporary directory masked."""
    out, err = io.StringIO(), io.StringIO()
    args = [a.replace("{tmp}", str(tmp)) for a in argv]
    with mock.patch("time.perf_counter", lambda: 0.0), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code,
            "stdout": out.getvalue().replace(str(tmp), "<tmp>"),
            "stderr": err.getvalue().replace(str(tmp), "<tmp>")}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture
def tmp(tmp_path):
    _inputs(tmp_path)
    return tmp_path


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_command_output_is_golden(golden, tmp, case):
    assert run_case(CASES[case], tmp) == golden[case]


@pytest.mark.parametrize(
    "argv",
    [["construct", "--n", "9", "--variant", "alt"], ["encode", "--n", "5", "--pattern", "k3"]],
    ids=["construct", "encode"],
)
def test_out_file_equals_stdout(tmp, argv):
    shown = run_case(argv, tmp)
    written = run_case([*argv, "--out", "{tmp}/out.txt"], tmp)
    assert (shown["code"], written["code"]) == (0, 0)
    assert written["stdout"] == written["stderr"] == shown["stderr"] == ""
    assert (tmp / "out.txt").read_text(encoding="utf-8") == shown["stdout"]


def test_version_prints_the_package_version(tmp):
    assert run_case(["--version"], tmp) == {
        "argv": ["--version"], "code": 0, "stdout": f"{__version__}\n", "stderr": ""
    }


if __name__ == "__main__":  # rewrite the golden file
    with tempfile.TemporaryDirectory() as name:
        root = Path(name)
        _inputs(root)
        cases = {case: run_case(argv, root) for case, argv in CASES.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
