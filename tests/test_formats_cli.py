"""Text formats and the command-line front end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import smonkit
from smonkit import bqa, cli, formats, harness, layered
from smonkit.formats import ParseError


@pytest.fixture()
def workdir(tmp_path, chain3, ground_field, dual_numbers):
    files = {}
    files["q3"] = tmp_path / "q3.alg"
    files["q3"].write_text(formats.serialize_algebra(chain3))
    files["k"] = tmp_path / "k.alg"
    files["k"].write_text(formats.serialize_algebra(ground_field))
    files["kx2"] = tmp_path / "kx2.alg"
    files["kx2"].write_text(formats.serialize_algebra(dual_numbers))
    return tmp_path, files


# The directory holding the smonkit package this test process imported. The
# CLI subprocess runs from a temporary directory, where a relative PYTHONPATH
# such as ``src`` no longer resolves, so it is put first, as an absolute path.
PACKAGE_ROOT = str(Path(smonkit.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "smonkit", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    return proc


# -- round trips ---------------------------------------------------------------


def test_algebra_roundtrip(chain3, dual_numbers):
    for alg in (chain3, dual_numbers):
        text = formats.serialize_algebra(alg)
        back = formats.parse_algebra(text)
        assert formats.serialize_algebra(back) == text
        assert back.dim == alg.dim


def test_module_roundtrip(chain3):
    for m in (chain3.projective(2), chain3.simple(3), bqa.random_module(chain3, 3, 1)):
        text = formats.serialize_module(m, "q3.alg")
        back, ref, bad = formats.parse_module(text, chain3)
        assert bad == [] and ref == "q3.alg"
        assert back == m
        assert formats.serialize_module(back, ref) == text


def test_layered_roundtrip(ctx_dual_chain3):
    for seed in range(4):
        x = bqa.random_module(ctx_dual_chain3, 3, seed)
        text = formats.serialize_layered(x, "kx2.alg")
        back, ref, bad = formats.parse_layered(text, ctx_dual_chain3.base)
        assert bad == []
        assert formats.serialize_layered(back, ref) == text


def test_unreduced_entries_accepted(chain3):
    text = formats.serialize_module(chain3.projective(2), "q3.alg")
    bumped = text.replace("matrix b\n1", "matrix b\n3")  # 3 = 1 mod 2
    back, _, bad = formats.parse_module(bumped, chain3)
    assert bad == [] and back == chain3.projective(2)


def test_parse_errors_carry_line_numbers(chain3):
    with pytest.raises(ParseError) as err:
        formats.parse_algebra("smonkit-algebra v1\nprime 2\nvertices x\n")
    assert err.value.line == 3
    good = formats.serialize_module(chain3.simple(1), "q3.alg")
    with pytest.raises(ParseError):
        formats.parse_module(good.replace("dims 1 0 0", "dims 1 0"), chain3)


def test_short_relation_in_quiver_block_reported_at_its_line(chain3):
    text = "smonkit-layered v1\nbase q3.alg\nquiver\nvertices 2\narrow q 2 1\nrelation q\nendquiver\n"
    with pytest.raises(ParseError, match="relation needs at least two arrow names") as err:
        formats.parse_layered(text, chain3)
    assert err.value.line == 6


def test_resource_errors_are_not_parse_errors(chain3, ctx_dual_chain3, monkeypatch):
    # only invalid data is a parse failure; running out of memory is not
    algebra_text = formats.serialize_algebra(chain3)
    ctx = ctx_dual_chain3
    x = layered.tensor(ctx, ctx.base.simple(1), ctx.factor.projective(3))
    layered_text = formats.serialize_layered(x, "kx2.alg")

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(formats, "Algebra", exhausted)
    with pytest.raises(MemoryError):
        formats.parse_algebra(algebra_text)
    with pytest.raises(MemoryError):
        formats.parse_layered(layered_text, ctx.base)


def test_relation_violation_reported_not_raised(dual_numbers):
    text = (
        "smonkit-module v1\nalgebra kx2.alg\ndims 2\nmatrix x\n1 0\n0 1\n"
    )
    m, _, bad = formats.parse_module(text, dual_numbers)
    assert bad and "x*x" in bad[0]


# -- CLI ------------------------------------------------------------------------


def test_cli_check(workdir, chain3):
    tmp, files = workdir
    mod = tmp / "S2.mod"
    mod.write_text(formats.serialize_module(chain3.simple(2), "q3.alg"))
    proc = run_cli(["check", str(files["q3"]), str(mod)], tmp)
    assert proc.returncode == 0, proc.stderr
    # relation-violating module file: exit 1 with the generator listed
    bad = tmp / "bad.mod"
    bad.write_text("smonkit-module v1\nalgebra kx2.alg\ndims 2\nmatrix x\n1 0\n0 1\n")
    proc = run_cli(["check", str(bad)], tmp)
    assert proc.returncode == 1
    assert "x*x" in proc.stdout
    # malformed matrix block: exit 2 with a line number
    ugly = tmp / "ugly.mod"
    ugly.write_text("smonkit-module v1\nalgebra q3.alg\ndims 1 0 0\nmatrix a\nmatrix zz\n")
    proc = run_cli(["check", str(ugly)], tmp)
    assert proc.returncode == 2
    assert "line" in proc.stderr


def test_cli_ext_and_certificates(workdir, chain3, dual_numbers):
    tmp, files = workdir
    (tmp / "S3.mod").write_text(formats.serialize_module(chain3.simple(3), "q3.alg"))
    (tmp / "S2.mod").write_text(formats.serialize_module(chain3.simple(2), "q3.alg"))
    (tmp / "S.mod").write_text(formats.serialize_module(dual_numbers.simple(1), "kx2.alg"))
    proc = run_cli(["ext", "--k", "1", "S3.mod", "S2.mod"], tmp)
    assert proc.returncode == 0 and proc.stdout.strip() == "1"
    proc = run_cli(["gp", "--bound", "10", "S.mod"], tmp)
    assert proc.returncode == 0 and proc.stdout.strip() == "CERTIFIED_UP_TO(10)"
    proc = run_cli(["gp", "--bound", "10", "S2.mod"], tmp)
    assert proc.returncode == 1 and proc.stdout.startswith("REFUTED")
    proc = run_cli(["semigp", "--bound", "10", "S3.mod"], tmp)
    assert proc.returncode == 1


def test_cli_smon_sepi_tensor_split(workdir, chain3, ground_field):
    tmp, files = workdir
    ctx = layered.TensorContext(ground_field, chain3)
    x = layered.tensor(ctx, ground_field.projective(1), chain3.projective(3))
    (tmp / "p3.rep").write_text(formats.serialize_layered(x, "k.alg"))
    s2 = layered.tensor(ctx, ground_field.projective(1), chain3.simple(2))
    (tmp / "s2.rep").write_text(formats.serialize_layered(s2, "k.alg"))
    proc = run_cli(["smon", "p3.rep", "--pred", "ALL"], tmp)
    assert proc.returncode == 0 and proc.stdout.strip() == "PASS"
    proc = run_cli(["smon", "s2.rep", "--pred", "ALL"], tmp)
    assert proc.returncode == 1 and proc.stdout.startswith("FAIL(m2")
    # sepi checks D(s2) for separated monicity, so the details describe D(s2)
    proc = run_cli(["sepi", "s2.rep", "--pred", "ALL"], tmp)
    assert proc.returncode == 1
    assert proc.stdout.strip() == "FAIL(e2 at arrow a, base vertex 1: kernel dim 1 vs killed-path image dim 0)"
    # the dual of a separated monic module, written over the opposite context
    (tmp / "dp3.rep").write_text(formats.serialize_layered(bqa.dual_module(x), "k.alg"))
    for pred in ("ALL", "PROJ"):
        proc = run_cli(["sepi", "dp3.rep", "--pred", pred], tmp)
        assert proc.returncode == 0 and proc.stdout.strip() == "PASS"
    # coker prints a module file
    proc = run_cli(["coker", "--vertex", "3", "p3.rep"], tmp)
    assert proc.returncode == 0 and proc.stdout.startswith(formats.MODULE_HEADER)
    # tensor from module files
    (tmp / "km.mod").write_text(formats.serialize_module(ground_field.projective(1), "k.alg"))
    (tmp / "u.mod").write_text(formats.serialize_module(chain3.projective(3), "q3.alg"))
    proc = run_cli(["tensor", "km.mod", "u.mod"], tmp)
    assert proc.returncode == 0 and proc.stdout.startswith(formats.LAYERED_HEADER)
    # split round-trips
    proc = run_cli(["split", "--vertex", "3", "p3.rep"], tmp)
    assert proc.returncode == 0 and "round-trip: exact" in proc.stdout
    # over A3 the path of length two is the only path into vertex 1, so its
    # block is the first of that part, not the second of all radical paths
    line3 = harness.algebra_line(3)
    ctx3 = layered.TensorContext(chain3, line3)
    x3 = layered.tensor(ctx3, chain3.projective(3), line3.projective(3))
    (tmp / "x.rep").write_text(formats.serialize_layered(x3, "q3.alg"))
    proc = run_cli(["split", "x.rep", "--vertex", "3"], tmp)
    assert proc.returncode == 0 and "round-trip: exact" in proc.stdout
    out = proc.stdout.split("path a1*a2\n")[1].split("round-trip")[0]
    assert out.splitlines() == ["vertex 1", "vertex 2", "1", "vertex 3", "1"]


# Two radical paths, u and v, leave the source 2 of the kron2 factor and end
# at the same reduced vertex 1: their blocks are the two column halves of
# the connecting map there.
SPLIT_KRON2 = """\
source-vertex: 2
reduced-factor-vertices: 1
y-part:
smonkit-module v1
algebra <base>
dims 0 1 1
matrix a
1
matrix b
x-part:
smonkit-layered v1
base <base>
quiver
vertices 1
endquiver
branch 1
dims 0 2 2
matrix a
1 0
0 1
matrix b
connecting-map:
path u
vertex 1
vertex 2
1
0
vertex 3
1
0
path v
vertex 1
vertex 2
0
1
vertex 3
0
1
round-trip: exact
"""


def test_cli_split_output_over_parallel_arrows(workdir, chain3, wide_factors):
    tmp, files = workdir
    kron2 = wide_factors["kron2"](2)
    ctx = layered.TensorContext(chain3, kron2)
    x = layered.tensor(ctx, chain3.projective(3), kron2.projective(2))
    (tmp / "kron.rep").write_text(formats.serialize_layered(x, "q3.alg"))
    proc = run_cli(["split", "kron.rep", "--vertex", "2"], tmp)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SPLIT_KRON2


def test_cli_main_rereads_files_on_each_call(workdir, chain3, capsys):
    # two in-process invocations share no loaded algebra
    tmp, files = workdir
    mod = tmp / "S2.mod"
    mod.write_text(formats.serialize_module(chain3.simple(2), "q3.alg"))
    assert cli.main(["check", str(mod)]) == 0
    files["q3"].write_text("garbage\n")
    assert cli.main(["check", str(mod)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_predicate_kinds_match_the_library(workdir, chain3, a2):
    tmp, files = workdir
    ctx = layered.TensorContext(chain3, a2)
    x = layered.tensor(ctx, chain3.simple(3), a2.projective(2))
    (tmp / "s3.rep").write_text(formats.serialize_layered(x, "q3.alg"))
    for pred in ("ALL", "PROJ", "INJ", "GPROJ", "semi-gp"):
        proc = run_cli(["smon", "s3.rep", "--pred", pred, "--bound", "6"], tmp)
        want = layered.check_separated_monic(x, layered.ClassPredicate(pred.upper().replace("-", "_"), 6))
        assert proc.stdout.strip() == want.render()
        assert proc.returncode == (0 if want.passed else 1)
    proc = run_cli(["smon", "s3.rep", "--pred", "NOPE"], tmp)
    assert proc.returncode == 2 and proc.stderr.startswith("error: unknown predicate")


def test_cli_unknown_suite_usage_error(workdir):
    tmp, files = workdir
    proc = run_cli(["suite", "nope", str(files["kx2"]), str(files["q3"])], tmp)
    assert proc.returncode == 2


def test_cli_suite_runs_and_is_deterministic(workdir):
    tmp, files = workdir
    args = [
        "suite", "ce", str(files["kx2"]), str(files["q3"]),
        "--samples", "6", "--seed", "3", "--bound", "4", "--no-timing",
    ]
    a = run_cli(args, tmp)
    b = run_cli(args, tmp)
    assert a.returncode == 0 and a.stdout == b.stdout
    rec = run_cli(args + ["--format", "records"], tmp)
    assert rec.returncode == 0
    assert len(rec.stdout.splitlines()) == 6
    only = run_cli(args + ["--only-instance", "4"], tmp)
    assert only.returncode == 0 and "instances: 1" in only.stdout


def test_cli_suite_nakayama_quick(workdir, dual_numbers):
    tmp, files = workdir
    proc = run_cli(
        ["suite", "nakayama", str(files["kx2"]), "--bound", "6", "--no-timing"], tmp
    )
    assert proc.returncode == 0
    assert "kupisch: (2,)" in proc.stdout
    assert "core-size: 2" in proc.stdout


def test_cli_suite_nakayama_only_instance(workdir):
    tmp, files = workdir
    base = ["suite", "nakayama", str(files["kx2"]), "--bound", "6", "--no-timing"]
    proc = run_cli(base + ["--only-instance", "1"], tmp)
    assert proc.returncode == 0, proc.stderr
    assert "only-instance=1" in proc.stdout and "instances: 1 pass: 1" in proc.stdout
    proc = run_cli(base + ["--only-instance", "1", "--format", "records"], tmp)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[:2] for line in proc.stdout.splitlines()] == [["nakayama", "1"]]
    # the instances are the indecomposables, whatever --samples says
    proc = run_cli(base + ["--samples", "1", "--only-instance", "1"], tmp)
    assert proc.returncode == 0, proc.stderr


def test_cli_perp_predicate(workdir, chain3, ground_field):
    tmp, files = workdir
    ctx = layered.TensorContext(ground_field, chain3)
    x = layered.tensor(ctx, ground_field.projective(1), chain3.projective(3))
    (tmp / "p3.rep").write_text(formats.serialize_layered(x, "k.alg"))
    (tmp / "kmod.mod").write_text(
        formats.serialize_module(ground_field.projective(1), "k.alg")
    )
    proc = run_cli(
        ["smon", "p3.rep", "--pred", "PERP_OF", "--perp", "kmod.mod", "--bound", "6"], tmp
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "PASS"
    # a perp target over the wrong algebra is a usage error, not a crash
    (tmp / "S2.mod").write_text(formats.serialize_module(chain3.simple(2), "q3.alg"))
    proc = run_cli(
        ["smon", "p3.rep", "--pred", "PERP_OF", "--perp", "S2.mod", "--bound", "6"], tmp
    )
    assert proc.returncode == 2
    assert "base algebra" in proc.stderr


MALFORMED = [
    ["suite", "nakayama", "kron.alg"],
    ["suite", "nakayama", "kx2.alg", "--only-instance", "2"],
    ["suite", "nakayama", "kx2.alg", "--only-instance", "-1"],
    ["suite", "ce", "q3.alg", "a2.alg", "--only-instance", "-1"],
    ["suite", "ce", "q3.alg", "a2.alg", "--samples", "4", "--only-instance", "4"],
    ["suite", "ce", "q3.alg", "a2.alg", "--budget", "0"],
    ["suite", "ce", "q3.alg", "a2.alg", "--samples", "-1"],
    ["suite", "ce", "q3.alg", "a2.alg", "--bound", "-1"],
    ["ext", "S3.mod", "S2.mod", "--k", "-1"],
    ["gp", "S3.mod", "--bound", "-1"],
    ["check", "p4.alg"],
    ["--prime", "4", "check", "q3.alg"],
    ["--prime", "1", "check", "q3.alg"],
    ["check", "nocount.alg"],
    ["check", "nocount.lay"],
    ["check", "nobranch.lay"],
    ["check", "negdims.mod"],
    ["tensor", "S3.mod", "S3f3.mod"],
    ["suite", "ce", "q3.alg", "q3f3.alg"],
    ["suite", "ce", "empty.alg", "a2.alg"],
    ["suite", "ce", "q3.alg", "empty.alg"],
    ["check", "twoloops.alg"],
    ["ext", "x.lay", "xfree.lay", "--k", "1"],
]


@pytest.mark.parametrize("args", MALFORMED, ids=" ".join)
def test_cli_malformed_input_is_a_usage_error(workdir, chain3, a2, args):
    # every malformed input exits 2 with a single error line, never a traceback
    tmp, files = workdir
    (tmp / "a2.alg").write_text(formats.serialize_algebra(a2))
    (tmp / "kron.alg").write_text(
        "smonkit-algebra v1\nprime 2\nvertices 2\narrow u 2 1\narrow v 2 1\n"
    )
    (tmp / "p4.alg").write_text(files["q3"].read_text().replace("prime 2", "prime 4"))
    (tmp / "S3.mod").write_text(formats.serialize_module(chain3.simple(3), "q3.alg"))
    (tmp / "S2.mod").write_text(formats.serialize_module(chain3.simple(2), "q3.alg"))
    # a base and a factor over different primes, and an algebra with no vertices
    (tmp / "q3f3.alg").write_text(files["q3"].read_text().replace("prime 2", "prime 3"))
    (tmp / "S3f3.mod").write_text(formats.serialize_module(chain3.simple(3), "q3f3.alg"))
    (tmp / "empty.alg").write_text("smonkit-algebra v1\nprime 2\nvertices 0\n")
    (tmp / "nocount.alg").write_text("smonkit-algebra v1\nprime 2\nvertices\n")
    # loops x and y killing only x*x: infinite-dimensional
    (tmp / "twoloops.alg").write_text(
        "smonkit-algebra v1\nprime 2\nvertices 1\narrow x 1 1\narrow y 1 1\nrelation x x\n"
    )
    quiver = "smonkit-layered v1\nbase q3.alg\nquiver\nvertices{}\nendquiver\n"
    (tmp / "nocount.lay").write_text(quiver.format(""))
    (tmp / "nobranch.lay").write_text(quiver.format(" 1") + "branch\n")
    # the same layered module over q3.alg and over its relation-free twin,
    # which has the same vertices and arrow names
    (tmp / "q3free.alg").write_text(files["q3"].read_text().split("relation")[0])
    lay = formats.serialize_layered(
        layered.tensor(layered.TensorContext(chain3, a2), chain3.simple(1), a2.projective(2)), "q3.alg"
    )
    (tmp / "x.lay").write_text(lay)
    (tmp / "xfree.lay").write_text(lay.replace("base q3.alg", "base q3free.alg"))
    (tmp / "negdims.mod").write_text(
        "smonkit-module v1\nalgebra q3.alg\ndims -1 1 1\nmatrix a\n1\nmatrix b\n1\n"
    )
    proc = run_cli(args, tmp)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
