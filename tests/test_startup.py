"""numpy serves only the search and DNF kernels and loads on their first call.

Each check runs in a fresh interpreter: the parent test process has long
since imported numpy.  With ``sys.modules["numpy"] = None`` every
``import numpy`` raises ImportError, so the blocked script passes only if
the saturation check, the constructions, the file readers, the clause-local
DNF check and the numpy-free commands never reach for it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLOCKED = r"""
import io, json, sys, tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.modules["numpy"] = None
import indsat, indsat.cli, indsat.dnf, indsat.search, indsat.facts
from indsat import P4, construct_alternative, construct_tn, is_indsat
from indsat import dnf, patterns, trigraph

assert is_indsat(construct_tn(16)[0], P4).is_indsat
assert is_indsat(construct_alternative(15), P4).is_indsat
f = dnf.encode_pattern(5, P4)
assert dnf.is_saturated(f, dnf.assignment_of(construct_tn(5)[0]))
assert trigraph.loads("trigraph 3\n0 1 G\n").gray_count == 1
assert dnf.loads("dnf 3 1\n1 -2\n").clauses == ((1, 2),)
assert patterns.loads("pattern 4\n0 1\n1 2\n2 3\n") == P4

def run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = indsat.cli.main(list(argv))
    assert code == 0, argv
    return out.getvalue()

assert json.loads(run("formula", "--family", "p4", "--n", "8"))["result"]
with tempfile.TemporaryDirectory() as tmp:
    tri, formula = str(Path(tmp, "t.tri")), str(Path(tmp, "f.dnf"))
    assignment = Path(tmp, "a.txt")
    run("construct", "--n", "9", "--out", tri)
    assert json.loads(run("verify", "--file", tri, "--pattern", "p4"))["result"]["is_indsat"]
    run("encode", "--n", "5", "--pattern", "p4", "--out", formula)
    assignment.write_text(dnf.assignment_of(construct_tn(5)[0]).to_string(), encoding="utf-8")
    run("saturate", "--formula", formula, "--assignment", str(assignment))
assert sys.modules["numpy"] is None
print("ok")
"""

KERNELS = r"""
import sys
from indsat import P4, isat_formula, isat_min, parse_family
from indsat.dnf import encode_pattern, min_unassigned

assert "numpy" not in sys.modules
expected = isat_formula(parse_family("p4"), 4)
assert isat_min(4, P4).min_gray == expected
assert min_unassigned(encode_pattern(4, P4)) == expected
print("numpy" in sys.modules)
"""


def run_python(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_numpy_free_paths_run_with_numpy_blocked():
    assert run_python(BLOCKED) == "ok\n"


def test_kernels_load_numpy_on_first_call():
    assert run_python(KERNELS) == "True\n"
