import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import indsat.trigraph as tri
from indsat.cli import main
from indsat.search import canonical_form


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_construct_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "t6.tri"
    code, out, _ = run(capsys, "construct", "--n", "6", "--out", str(path))
    assert code == 0
    original = tri.load(path)

    code, report, _ = run_json(capsys, "verify", "--file", str(path), "--pattern", "p4")
    assert code == 0
    assert report["subcommand"] == "verify"
    assert report["result"]["is_indsat"] is True
    assert report["result"]["gray_count"] == 3
    assert report["version"]

    # the round trip reproduces the identical canonical form
    assert canonical_form(tri.loads(tri.dumps(original))) == canonical_form(original)


def test_construct_stdout_and_alt_variant(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "--n", "9", "--variant", "alt")
    assert code == 0
    t = tri.loads(out)
    assert t.n == 9 and t.gray_count == 4


def test_verify_expectation_failure_sets_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.tri"
    path.write_text("trigraph 4\n", encoding="utf-8")  # all white, not saturated
    code, report, _ = run_json(capsys, "verify", "--file", str(path), "--pattern", "p4",
                               "--expect-indsat")
    assert code == 1
    assert report["result"]["is_indsat"] is False
    assert report["result"]["failing_flip"] == [0, 1]
    # all four vertices are twins, so one search decides all six flips
    assert (report["result"]["flips_searched"], report["result"]["flip_pairs"]) == (1, 6)


def test_search_json(capsys):
    code, report, _ = run_json(capsys, "search", "--n", "4", "--pattern", "p4")
    assert code == 0
    assert report["result"]["min_gray"] == 2
    assert report["result"]["witness_count"] == 3


def test_search_naive_flag_agrees(capsys):
    _, fast, _ = run_json(capsys, "search", "--n", "4", "--pattern", "p4")
    _, naive, _ = run_json(capsys, "search", "--n", "4", "--pattern", "p4", "--naive")
    assert fast["result"]["min_gray"] == naive["result"]["min_gray"]
    assert fast["result"]["witnesses"] == naive["result"]["witnesses"]


def test_search_progress_leaves_stdout_unchanged(capsys, monkeypatch):
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)  # equal timings in both reports
    code, plain, quiet = run(capsys, "search", "--n", "6", "--pattern", "p4")
    assert (code, quiet) == (0, "")
    code, out, err = run(capsys, "search", "--n", "6", "--pattern", "p4", "--progress")
    assert code == 0
    assert out == plain
    lines = err.splitlines()
    assert [line.split()[1] for line in lines] == ["k=0", "k=1", "k=2", "k=3"]
    assert lines[-1] == (
        "search: k=3 gray_classes=5 saturated_rows=29 peak_rows=112"
        " witness_classes=11 seconds=0.000"
    )


def test_search_resource_cap_exit_code(capsys):
    code, out, err = run(capsys, "search", "--n", "9", "--pattern", "p4")
    assert code == 3
    assert "error:" in err
    code, out, err = run(capsys, "search", "--n", "6", "--pattern", "p4", "--naive")
    assert (code, out) == (3, "")
    assert "error:" in err


def test_enumerate_writes_loadable_files(capsys, tmp_path):
    outdir = tmp_path / "wit"
    code, report, _ = run_json(
        capsys, "enumerate", "--n", "4", "--k", "2", "--outdir", str(outdir)
    )
    assert code == 0
    assert report["result"]["count"] == 3
    files = sorted(outdir.iterdir())
    assert len(files) == 3
    from indsat.patterns import P4
    from indsat.saturation import is_indsat

    for f in files:
        t = tri.load(f)
        assert t.gray_count == 2
        assert is_indsat(t, P4).is_indsat


def test_encode_saturate_pipeline(capsys, tmp_path):
    formula_path = tmp_path / "p4.dnf"
    code, _, _ = run(capsys, "encode", "--n", "4", "--pattern", "p4",
                     "--out", str(formula_path))
    assert code == 0
    assert formula_path.read_text(encoding="utf-8").splitlines()[0] == "dnf 6 12"

    from indsat.constructions import construct_tn
    from indsat.dnf import assignment_of

    assignment_path = tmp_path / "a.txt"
    assignment_path.write_text(assignment_of(construct_tn(4)[0]).to_string(), encoding="utf-8")
    code, report, _ = run_json(
        capsys, "saturate", "--formula", str(formula_path), "--assignment", str(assignment_path)
    )
    assert code == 0
    assert report["result"]["is_saturated"] is True
    assert report["result"]["unassigned"] == 2


@pytest.mark.parametrize("n, code", [("9", 3), ("3", 1)], ids=["above-cap", "below-pattern"])
def test_encode_size_errors_exit_codes(capsys, n, code):
    # above the placement cap is the resource-cap code, as for search
    got, out, err = run(capsys, "encode", "--n", n, "--pattern", "p4")
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_saturate_dimension_mismatch(capsys, tmp_path):
    formula_path = tmp_path / "p4.dnf"
    run(capsys, "encode", "--n", "4", "--pattern", "p4", "--out", str(formula_path))
    assignment_path = tmp_path / "short.txt"
    assignment_path.write_text("1-0", encoding="utf-8")
    code, _, err = run(capsys, "saturate", "--formula", str(formula_path),
                       "--assignment", str(assignment_path))
    assert code == 1
    assert "error:" in err


def test_formula_rows(capsys):
    code, report, _ = run_json(capsys, "formula", "--family", "p4", "--n", "8")
    assert code == 0
    assert report["result"] == {"family": "p4", "n": 8, "sat": 4, "isat": 3}

    _, km, _ = run_json(capsys, "formula", "--family", "khminus:4", "--n", "6")
    assert km["result"]["sat"] == "unknown"
    assert km["result"]["isat"] == 0

    _, c4, _ = run_json(capsys, "formula", "--family", "c4", "--n", "10")
    assert c4["result"]["sat"] == 12  # Ollmann: floor((3n - 5)/2)
    assert c4["result"]["isat"] == "unknown"

    # valid (family, n) without a closed form stay "unknown"
    _, c4, _ = run_json(capsys, "formula", "--family", "c4", "--n", "4")
    assert c4["result"]["sat"] == c4["result"]["isat"] == "unknown"
    _, p5, _ = run_json(capsys, "formula", "--family", "p5", "--n", "7")
    assert (p5["result"]["sat"], p5["result"]["isat"]) == (6, "unknown")


@pytest.mark.parametrize(
    "family, n, message",
    [
        ("kh:0", "5", "family id 'kh:0' needs at least 3 vertices, got 0"),
        ("ph:1", "5", "family id 'ph:1' needs at least 3 vertices, got 1"),
        ("p2", "5", "family id 'p2' needs at least 3 vertices, got 2"),
        ("khminus:2", "5", "family id 'khminus:2' needs at least 3 vertices, got 2"),
        ("p4", "2", "family p4 needs n >= 4, got 2"),
        ("kh:5", "4", "family kh:5 needs n >= 5, got 4"),
        ("c4", "3", "family c4 needs n >= 4, got 3"),
    ],
)
def test_formula_rejects_impossible_family_or_size(capsys, family, n, message):
    code, out, err = run(capsys, "formula", "--family", family, "--n", n)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_facts_subcommand(capsys):
    code, report, _ = run_json(capsys, "facts", "--n", "3")
    assert code == 0
    assert report["result"]["ok"] is True


def test_facts_subcommand_at_n6(capsys):
    code, report, _ = run_json(capsys, "facts", "--n", "6")
    assert code == 0
    assert report["result"]["ok"] is True
    assert report["result"]["witnesses"] == 31


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--n", "9", "--k", "2"], ["facts", "--n", "9"]],
    ids=["enumerate", "facts"],
)
def test_enumeration_resource_cap_exit_code(capsys, tmp_path, argv):
    outdir = tmp_path / "wit"
    extra = ["--outdir", str(outdir)] if argv[0] == "enumerate" else []
    code, out, err = run(capsys, *argv, *extra)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "-1", "--k", "0"],
        ["facts", "--n", "-1"],
        ["search", "--n", "1", "--pattern", "p4"],
        ["search", "--n", "1", "--pattern", "p4", "--naive"],
    ],
    ids=["enumerate", "facts", "search", "search-naive"],
)
def test_too_small_n_is_a_bad_value_exit_code(capsys, tmp_path, argv):
    # a size below the range is a bad value (exit 1), not a resource cap (exit 3)
    outdir = tmp_path / "wit"
    extra = ["--outdir", str(outdir)] if argv[0] == "enumerate" else []
    code, out, err = run(capsys, *argv, *extra)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not outdir.exists()


def test_facts_rejects_a_pattern_other_than_p4(capsys):
    # the checks are lemmas about P4; a K3 corpus would report false violations
    code, out, err = run(capsys, "facts", "--n", "4", "--pattern", "k3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "P4" in err


def test_construct_variant_choices_are_the_library_variants(capsys):
    from indsat.constructions import VARIANTS

    for variant in VARIANTS:
        assert run(capsys, "construct", "--n", "9", "--variant", variant)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--n", "9", "--variant", "other"])
    assert exc.value.code == 2


@pytest.mark.parametrize("variant", ["paper", "alt"])
@pytest.mark.parametrize("n", ["65", "3000"])
def test_construct_above_the_vertex_cap_exits_1_at_once(capsys, n, variant):
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "--n", n, "--variant", variant)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and f"got n={n}" in err


def test_pattern_file(capsys, tmp_path):
    pat = tmp_path / "p3.pat"
    pat.write_text("pattern 3\n0 1\n1 2\n", encoding="utf-8")
    code, report, _ = run_json(
        capsys, "search", "--n", "3", "--pattern-file", str(pat)
    )
    assert code == 0
    assert report["result"]["min_gray"] == 0
    assert report["inputs"]["pattern_file"] == str(pat)


def test_pattern_file_run_is_labelled_by_file(capsys, tmp_path):
    pat = tmp_path / "p3.pat"
    pat.write_text("pattern 3\n0 1\n1 2\n", encoding="utf-8")
    label = f"file:{pat}"
    _, report, _ = run_json(capsys, "search", "--n", "3", "--pattern-file", str(pat))
    assert report["inputs"]["pattern"] == label
    assert report["result"]["pattern"] == label
    _, naive, _ = run_json(capsys, "search", "--n", "3", "--pattern-file", str(pat), "--naive")
    assert naive["result"]["pattern"] == label

    tri_path = tmp_path / "t4.tri"
    tri_path.write_text("trigraph 4\n", encoding="utf-8")
    _, verify, _ = run_json(capsys, "verify", "--file", str(tri_path), "--pattern-file", str(pat))
    assert verify["inputs"]["pattern"] == label


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: empty pattern document (no header line)"),
        ("# only a comment\n\n", "line 1: empty pattern document (no header line)"),
        ("pattern 3\n0 1\n1 2\n1 0\n", "line 4: duplicate edge '1 0' (first on line 2)"),
        ("pattern x\n0 1\n", "line 1: bad header line 'pattern x'"),
        ("pattern 3\n0 a\n", "line 2: bad edge line '0 a' (want two vertex numbers)"),
        ("pattern 3\n0 1\n# c\n0 1 2\n", "line 4: bad edge line '0 1 2' (want two vertex numbers)"),
        ("pattern 3\n\n2\n", "line 3: bad edge line '2' (want two vertex numbers)"),
        ("pattern 3\n0 1\n0 0\n", "line 3: self-loop '0 0'"),
        ("pattern 3\n0 5\n", "line 2: vertex 5 out of range for a 3-vertex pattern"),
        ("# c\npattern 1\n", "line 2: pattern must have 2..8 vertices, got 1"),
        ("pattern 9\n0 1\n", "line 1: pattern must have 2..8 vertices, got 9"),
        # Arabic-Indic digits pass str.isdecimal() but are not numbers of the format
        ("pattern \u0663\n0 1\n", "line 1: bad header line 'pattern \u0663'"),
        ("pattern 3\n0 \u0662\n", "line 2: bad edge line '0 \u0662' (want two vertex numbers)"),
    ],
    ids=["empty", "comments-only", "duplicate-edge", "bad-count", "non-numeric", "three-numbers",
         "single-number", "self-loop", "out-of-range", "too-few-vertices", "too-many-vertices",
         "count-non-ascii-digit", "edge-non-ascii-digit"],
)
def test_bad_pattern_file_is_one_line_error(capsys, tmp_path, text, message):
    pat = tmp_path / "bad.pat"
    pat.write_text(text, encoding="utf-8")
    tri_path = tmp_path / "t4.tri"
    tri_path.write_text("trigraph 4\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--file", str(tri_path), "--pattern-file", str(pat))
    assert code == 1
    assert out == ""
    assert err == f"error: {pat}: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("dnf x 1\n1\n", "line 1: bad header line 'dnf x 1'"),
        ("dnf 3 1\n1 a\n", "line 2: bad literal 'a'"),
        ("dnf 3 1\n1 -1\n", "line 2: variable 1 appears twice in a clause"),
        ("dnf 3 1\n\n2 4\n", "line 3: literal 4 outside variable range 1..3"),
        ("# c\ndnf 3 2\n1\n", "line 2: expected 2 clause lines, found 1"),
        ("dnf 2017 1\n1\n", "line 1: variable count 2017 outside supported range 0..2016"),
    ],
    ids=["header", "token", "twice", "out-of-range", "clause-count", "too-many-variables"],
)
def test_bad_dnf_file_is_one_line_error(capsys, tmp_path, text, message):
    formula_path = tmp_path / "bad.dnf"
    formula_path.write_text(text, encoding="utf-8")
    assignment_path = tmp_path / "a.txt"
    assignment_path.write_text("1-0", encoding="utf-8")
    code, out, err = run(capsys, "saturate", "--formula", str(formula_path),
                         "--assignment", str(assignment_path))
    assert code == 1
    assert out == ""
    assert err == f"error: {formula_path}: {message}\n"


def test_bad_trigraph_file_is_one_line_error(capsys, tmp_path):
    tri_path = tmp_path / "bad.tri"
    tri_path.write_text("trigraph 4\n0 1 G\n# c\n0 4 B\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--file", str(tri_path), "--pattern", "p4")
    assert code == 1
    assert out == ""
    assert err == f"error: {tri_path}: line 4: pair (0, 4) not 0-based u < v < 4\n"


@pytest.mark.parametrize("bad", ["trigraph", "pattern", "formula", "assignment"])
def test_non_utf8_file_is_one_line_error(capsys, tmp_path, bad):
    files = {
        "trigraph": ("t.tri", "trigraph 4\n"),
        "pattern": ("p.pat", "pattern 3\n0 1\n"),
        "formula": ("f.dnf", "dnf 3 1\n1\n"),
        "assignment": ("a.txt", "1-0"),
    }
    paths = {}
    for kind, (name, text) in files.items():
        paths[kind] = tmp_path / name
        paths[kind].write_text(text, encoding="utf-8")
    paths[bad].write_bytes(b"\xff" + files[bad][1].encode())
    if bad in ("formula", "assignment"):
        argv = ["saturate", "--formula", str(paths["formula"]), "--assignment", str(paths["assignment"])]
    else:
        argv = ["verify", "--file", str(paths["trigraph"]), "--pattern-file", str(paths["pattern"])]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == (f"error: {paths[bad]}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")


@pytest.mark.parametrize("flags", [["--kmax", "0"], ["--progress"]], ids=["kmax", "progress"])
def test_search_naive_rejects_kmax_and_progress(capsys, flags):
    """The naive sweep always runs every gray count and reports no levels."""
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "4", "--naive", *flags])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--naive takes neither --kmax nor --progress" in out.err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search"])  # missing required --n
    assert exc.value.code == 2


def test_missing_file_is_operational_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--file", str(tmp_path / "nope.tri"),
                       "--pattern", "p4")
    assert code == 1
    assert "error:" in err


def test_pretty_flag_emits_indented_json(capsys):
    code, out, _ = run(capsys, "formula", "--family", "p3", "--n", "7", "--pretty")
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["result"]["sat"] == 3


def test_closed_stdout_exits_1_without_an_error_line():
    """A reader that stops early is no bad file: exit 1, nothing on stderr,
    with a buffered stdout and with an unbuffered one alike."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    # about 110 kB: more than the pipe holds, so the write is cut by the close
    argv = ["encode", "--n", "8", "--pattern", "p5"]
    for unbuffered in (None, "1"):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from indsat.cli import main; sys.exit(main())", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"dnf 28 3360\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b""), unbuffered
