import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import QhullError

import framegeo.experiments
import framegeo.polytopes
from framegeo import jsonio
from framegeo.cli import main
from framegeo.ellipsoids import (ConvergenceError, Ellipsoid, ellipsoid_volume_ratio,
                                 john_of_cube_section, lowner_symmetric,
                                 polar_ellipsoid, unit_ball_volume)
from framegeo.experiments import (BOUND_TOL, SuiteSpec, random_subspace, run_suite,
                                  trial_seed, verify_volume_bounds)
from framegeo.frames import project_standard_basis
from framegeo.polytopes import equality_subspace


def write_json(data, path):
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def write_subspace(tmp_path, n, k, name="subspace.json"):
    path = tmp_path / name
    write_json(jsonio.subspace_to_dict(equality_subspace(n, k)), path)
    return str(path)


def write_frame(tmp_path, n, k, name="frame.json"):
    frame = project_standard_basis(equality_subspace(n, k))
    path = tmp_path / name
    write_json(jsonio.frame_to_dict(frame), path)
    return str(path)


def test_realize_prints_frame(capsys):
    assert main(["realize", "--c", "1,0.6,0.3,0.1", "--k", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    vecs = np.array(data["vectors"])
    assert data["n"] == 4 and data["k"] == 2
    norms = np.sum(vecs * vecs, axis=1)
    assert np.max(np.abs(norms - np.array([1.0, 0.6, 0.3, 0.1]))) <= 1e-8


def test_realize_writes_file(tmp_path, capsys):
    out = tmp_path / "frame.json"
    assert main(["realize", "--c", "0.5,0.5,0.5,0.5", "--k", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["k"] == 2


def test_realize_rejects_bad_profile(capsys):
    assert main(["realize", "--c", "0.4,0.4", "--k", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_ellipsoid_lowner_on_equality_frame(tmp_path, capsys):
    frame_path = write_frame(tmp_path, 4, 2)
    out = tmp_path / "ellipsoid.json"
    assert main(["ellipsoid", "lowner", "--frame", frame_path, "--out", str(out)]) == 0
    ratio = float(capsys.readouterr().out)
    assert ratio == pytest.approx(0.5, rel=1e-9)
    data = jsonio.load(out)
    e = Ellipsoid(k=data["k"], matrix=data["matrix"])
    assert np.max(np.abs(e.matrix - 2.0 * np.eye(2))) <= 1e-8


@pytest.mark.parametrize("mode,flag,write,fit", [
    ("lowner", "--frame", write_frame,
     lambda s: lowner_symmetric(project_standard_basis(s).vectors).ellipsoid),
    ("john", "--subspace", write_subspace, john_of_cube_section),
])
def test_ellipsoid_out_file_is_the_fit_as_indented_json(tmp_path, capsys, mode, flag,
                                                         write, fit):
    # the same text the other JSON commands write: indent 2, one final newline
    out = tmp_path / "ellipsoid.json"
    assert main(["ellipsoid", mode, flag, write(tmp_path, 6, 3), "--out", str(out)]) == 0
    e = fit(equality_subspace(6, 3))
    assert capsys.readouterr().out == f"{ellipsoid_volume_ratio(e)!r}\n"
    assert out.read_text() == json.dumps(jsonio.ellipsoid_to_dict(e), indent=2) + "\n"


def test_ellipsoid_john_on_equality_subspace(tmp_path, capsys):
    sub_path = write_subspace(tmp_path, 6, 3)
    assert main(["ellipsoid", "john", "--subspace", sub_path]) == 0
    ratio = float(capsys.readouterr().out)
    assert ratio == pytest.approx(2.0 ** 1.5, rel=1e-9)


def test_ellipsoid_john_writes_the_polar_of_the_projected_cover(tmp_path, capsys):
    sub_path = write_subspace(tmp_path, 6, 3)
    out = tmp_path / "john.json"
    assert main(["ellipsoid", "john", "--subspace", sub_path, "--out", str(out)]) == 0
    john = float(capsys.readouterr().out)
    frame = project_standard_basis(equality_subspace(6, 3))
    want = polar_ellipsoid(lowner_symmetric(frame.vectors).ellipsoid)
    data = jsonio.load(out)
    assert data["k"] == 3
    assert np.array_equal(np.array(data["matrix"]), want.matrix)
    assert main(["ellipsoid", "lowner", "--frame", write_frame(tmp_path, 6, 3)]) == 0
    lowner = float(capsys.readouterr().out)
    assert john * lowner == pytest.approx(1.0, rel=0.0, abs=1e-12)


def test_volume_subcommands(tmp_path, capsys):
    sub_path = write_subspace(tmp_path, 6, 3)
    assert main(["volume", "cube-section", "--subspace", sub_path]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(16.0 * math.sqrt(2.0), rel=1e-9)
    assert main(["volume", "cross-projection", "--subspace", sub_path]) == 0
    expected = (8.0 / 6.0) * 0.5 ** 1.5
    assert float(capsys.readouterr().out) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("eps", ["nan", "inf"])
@pytest.mark.parametrize("command,flag,write", [
    ("lowner", "--frame", lambda tmp_path: write_frame(tmp_path, 4, 2)),
    ("john", "--subspace", lambda tmp_path: write_subspace(tmp_path, 6, 3)),
])
def test_ellipsoid_rejects_an_eps_that_is_not_finite(tmp_path, capsys, command, flag,
                                                     write, eps):
    assert main(["ellipsoid", command, flag, write(tmp_path), "--eps", eps]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "eps" in err


def test_equality_case_round_trips_through_john(tmp_path, capsys):
    out = tmp_path / "sub.json"
    assert main(["equality-case", "--n", "8", "--k", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["ellipsoid", "john", "--subspace", str(out)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(4.0, rel=1e-9)


def test_equality_case_requires_divisibility(capsys):
    assert main(["equality-case", "--n", "5", "--k", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_writes_deterministic_csv(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["verify", "--n", "4", "--k", "2", "--trials", "3", "--seed", "5"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    _, expected = run_suite([SuiteSpec(n=4, k=2, trials=3, seed=5)])
    assert out_a.read_text() == expected


def test_verify_ellipsoid_only(capsys):
    argv = ["verify", "--n", "9", "--k", "4", "--trials", "2", "--seed", "1",
            "--experiments", "ellipsoid"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[2].split(",")[6] == ""  # cube_section_ratio left empty


@pytest.mark.parametrize("entry,fake_volumes", [
    # a section below Vaaler's 2^k, with the volume product kept
    ("vaaler",
     lambda section, cross, k: (0.99 * 2.0 ** k, section * cross / (0.99 * 2.0 ** k))),
    # a volume product above Blaschke-Santalo's vol(B^k)^2
    ("blaschke_santalo",
     lambda section, cross, k: (section, 1.01 * unit_ball_volume(k) ** 2 / section)),
    # a volume product below Mahler's 4^k / k!
    ("mahler",
     lambda section, cross, k: (0.99 * 4.0 ** k / math.factorial(k) / cross, cross)),
])
def test_verify_names_the_violated_proved_inequality(capsys, monkeypatch, entry,
                                                      fake_volumes):
    real = framegeo.polytopes._frame_volumes
    monkeypatch.setattr(framegeo.polytopes, "_frame_volumes",
                        lambda frames: [fake_volumes(*volumes, frame.k) for volumes, frame
                                        in zip(real(frames), frames)])
    seeds = [trial_seed(7, t) for t in range(2)]
    report = verify_volume_bounds(random_subspace(6, 3, seeds[0]))
    assert [key for key, ok in report.passes.items() if not ok] == [entry]
    assert not report.proved_ok
    assert main(["verify", "--n", "6", "--k", "3", "--trials", "2", "--seed", "7"]) == 1
    captured = capsys.readouterr()
    # the pass_* cells show only the four ratio bounds, all of which hold
    for line in captured.out.splitlines()[2:]:
        assert line.split(",")[10:14] == ["True"] * 4
    assert captured.err.splitlines() == [
        f"bound violated: trial {t} seed {seeds[t]}: {entry}" for t in range(2)]


def test_verify_fails_a_cube_ratio_past_balls_two_power_bound(capsys, monkeypatch):
    # at n < 2k Ball's 2^{(n-k)/2} = 2 is below (n/k)^{k/2} = 2.25, so a cube
    # ratio 1e-6 past its tolerance breaks no other check: the John ratio is
    # planted at 2.2 and the cross ratio at 0.5
    n, k = 6, 4
    bound = 2.0 ** ((n - k) / 2)

    def plant(cube):
        volumes = (cube * 2.0 ** k, 0.5 * 2.0 ** k / math.factorial(k))
        monkeypatch.setattr(framegeo.polytopes, "_frame_volumes",
                            lambda frames: [volumes] * len(frames))

    monkeypatch.setattr(framegeo.experiments, "ellipsoid_volume_ratios",
                        lambda ellipsoids: [1.0 / 2.2] * len(ellipsoids))
    plant(bound * (1.0 + 0.5 * BOUND_TOL))
    assert verify_volume_bounds(random_subspace(n, k, 1)).proved_ok
    plant(bound * (1.0 + BOUND_TOL + 1e-6))
    report = verify_volume_bounds(random_subspace(n, k, 1))
    assert [key for key, ok in report.passes.items() if not ok] == ["ball2"]
    assert not report.proved_ok
    assert main(["verify", "--n", "6", "--k", "4", "--trials", "2", "--seed", "7"]) == 1
    captured = capsys.readouterr()
    # no CSV column shows it
    for line in captured.out.splitlines()[2:]:
        assert line.split(",")[10:14] == ["True"] * 4
    assert captured.err.splitlines() == [
        f"bound violated: trial {t} seed {trial_seed(7, t)}: ball2" for t in range(2)]


def test_balls_two_power_bound_past_the_largest_float_holds_every_ratio():
    def bound(n, k):
        report = framegeo.experiments._report(n, k, 1.0, False, (1.0, 1.0, 1.0), 0, 0)
        return report.checks["ball2"]

    assert bound(2049, 2).bound == 2.0 ** 1023.5
    assert bound(2050, 2).bound == math.inf and bound(2050, 2).holds()


def test_scan_past_the_largest_float_takes_balls_bound_as_inf(capsys):
    # 2^{(n-k)/2} raised OverflowError in the scan from n - k = 2048 on; the
    # scan and a verify report take one bound, finite up to n - k = 2047
    scan, report = framegeo.experiments.conjecture_scan, framegeo.experiments._report
    for n, want in ((2048, 2.0 ** 1023.5), (2049, math.inf)):
        summary = scan(n, 1, 1, 1)
        assert summary.bound_ball2 == want and summary.ball2_violations == ()
        assert report(n, 1, 1.0, False, (1.0, 1.0, 1.0), 0, 0).checks["ball2"].bound == want
    summary = scan(2100, 1, 2, 1)
    assert summary.bound_ball2 == math.inf and summary.ball2_violations == ()
    assert main(["conjecture-scan", "--n", "2100", "--k", "1", "--trials", "2",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert '"bound_ball2": Infinity,' in out
    assert json.loads(out) == {**dataclasses.asdict(summary), "ball2_violations": []}


def test_verify_past_the_gamma_overflow(capsys):
    # vol(B^345) ~ 8e-225 is a float although gamma(345/2 + 1) is not
    argv = ["verify", "--n", "360", "--k", "345", "--trials", "1", "--seed", "1",
            "--experiments", "ellipsoid"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("360,345,0,")


def test_ellipsoid_commands_past_the_unit_ball_underflow(tmp_path, capsys):
    # vol(B^460) ~ 1e-314 is subnormal, so a ratio taken against it would
    # lose its digits or divide by zero
    subspace = random_subspace(520, 460, 1)
    sub_path, frame_path = tmp_path / "subspace.json", tmp_path / "frame.json"
    write_json(jsonio.subspace_to_dict(subspace), sub_path)
    write_json(jsonio.frame_to_dict(project_standard_basis(subspace)), frame_path)
    assert main(["ellipsoid", "lowner", "--frame", str(frame_path)]) == 0
    lowner = float(capsys.readouterr().out)
    assert main(["ellipsoid", "john", "--subspace", str(sub_path)]) == 0
    john = float(capsys.readouterr().out)
    assert 0.0 < lowner < 1.0 < john
    assert lowner * john == pytest.approx(1.0, rel=0.0, abs=1e-12)


def test_verify_rejects_unknown_experiment(capsys):
    argv = ["verify", "--n", "4", "--k", "2", "--trials", "1", "--seed", "0",
            "--experiments", "nope"]
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("trials,experiments", [
    ("2", ","), ("0", "ellipsoid,volume"), ("-2", "volume"),
])
def test_verify_that_checks_nothing_is_a_usage_error(capsys, trials, experiments):
    argv = ["verify", "--n", "4", "--k", "2", "--trials", trials, "--seed", "0",
            "--experiments", experiments]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_conjecture_scan_json(capsys):
    assert main(["conjecture-scan", "--n", "2", "--k", "1",
                 "--trials", "16", "--seed", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ball2_violations"] == []
    assert data["counterexample"] is None
    assert data["min_cross_ratio"] >= data["bound_2pow"] - 1e-9
    assert data["max_cube_ratio"] <= data["bound_ball2"] + 1e-9


@pytest.mark.parametrize("argv", [
    ["realize", "--c", "0.9,0.6,0.4,0.1", "--k", "2"],
    ["equality-case", "--n", "6", "--k", "3"],
    ["conjecture-scan", "--n", "4", "--k", "3", "--trials", "5", "--seed", "7"],
    ["verify", "--n", "4", "--k", "2", "--trials", "3", "--seed", "5"],
])
def test_out_file_holds_the_bytes_stdout_shows(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv) == 0
    shown = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == shown.encode("utf-8")
    assert shown.endswith("\n") and not shown.endswith("\n\n")


def test_readme_walkthrough_runs(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command-line interface", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("framegeo ")]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()
    assert (tmp_path / "report.csv").read_text().count("\n") == 102


def test_missing_input_file_is_a_usage_error(capsys):
    assert main(["ellipsoid", "lowner", "--frame", "/nonexistent.json"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command,field", [
    (["ellipsoid", "lowner", "--frame"], "vectors"),
    (["ellipsoid", "john", "--subspace"], "basis"),
    (["volume", "cube-section", "--subspace"], "basis"),
])
@pytest.mark.parametrize("malform", [
    lambda doc, field: [1, 2],
    lambda doc, field: "abc",
    lambda doc, field: {**doc, "n": [doc["n"]]},
    lambda doc, field: {**doc, "k": str(doc["k"])},
    lambda doc, field: {**doc, "k": True},
    lambda doc, field: {**doc, field: {"rows": doc[field]}},
    lambda doc, field: {key: value for key, value in doc.items() if key != "n"},
    lambda doc, field: {key: value for key, value in doc.items() if key != "k"},
    lambda doc, field: {key: value for key, value in doc.items() if key != field},
], ids=["list", "string", "list-n", "string-k", "bool-k", "object-array",
        "missing-n", "missing-k", "missing-array"])
def test_malformed_json_input_is_a_usage_error(tmp_path, capsys, command, field, malform):
    # valid JSON of the wrong shape is bad input (exit 2), not a solver failure
    good = (write_frame if field == "vectors" else write_subspace)(tmp_path, 4, 2)
    path = tmp_path / "malformed.json"
    doc = malform(jsonio.load(good), field)
    write_json(doc, path)
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    missing = [name for name in ("n", "k", field) if isinstance(doc, dict) and name not in doc]
    if missing:
        assert err == f"error: missing field {missing[0]!r}\n"


def test_bad_arguments_exit_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("path,listed", [
    ([], ["realize", "ellipsoid", "volume", "equality-case", "verify", "conjecture-scan"]),
    (["ellipsoid"], ["lowner", "john"]),
    (["ellipsoid", "lowner"], ["--frame", "--eps", "--out"]),
    (["ellipsoid", "john"], ["--subspace", "--eps", "--out"]),
    (["volume"], ["cube-section", "cross-projection"]),
    (["volume", "cube-section"], ["--subspace"]),
    (["volume", "cross-projection"], ["--subspace"]),
    (["realize"], ["--c", "--k", "--out"]),
    (["equality-case"], ["--n", "--k", "--out"]),
    (["verify"], ["--n", "--k", "--trials", "--seed", "--experiments", "--out"]),
    (["conjecture-scan"], ["--n", "--k", "--trials", "--seed", "--out"]),
], ids=["framegeo", "ellipsoid", "ellipsoid-lowner", "ellipsoid-john", "volume",
        "volume-cube-section", "volume-cross-projection", "realize", "equality-case",
        "verify", "conjecture-scan"])
def test_help_exits_0(capsys, path, listed):
    # each command's usage names every flag it declares, or every subcommand
    assert main([*path, "--help"]) == 0
    usage = capsys.readouterr().out
    assert usage.startswith(f"usage: {' '.join(['framegeo', *path])} ")
    assert all(re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", usage) for word in listed)


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    frame_path = write_frame(tmp_path, 4, 2)

    def explode(*args, **kwargs):
        raise ConvergenceError("iteration cap reached", 0.5)

    monkeypatch.setattr("framegeo.cli.lowner_symmetric", explode)
    assert main(["ellipsoid", "lowner", "--frame", frame_path]) == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("error,traceback_shown", [
    (QhullError("QH6271 qhull precision error"), False),
    (TypeError("unexpected"), True),
    # jsonio names a missing field, so only a bug raises KeyError
    (KeyError("unexpected"), True),
])
def test_unexpected_failure_is_a_solver_failure_not_a_violation(
        tmp_path, capsys, monkeypatch, error, traceback_shown):
    sub_path = write_subspace(tmp_path, 6, 3)

    def explode(*args, **kwargs):
        raise error

    monkeypatch.setattr("framegeo.polytopes.ConvexHull", explode)
    assert main(["volume", "cube-section", "--subspace", sub_path]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and str(error) in err
    assert ("Traceback" in err) == traceback_shown
    if traceback_shown:
        assert f"unexpected {type(error).__name__}" in err


def test_installed_entry_point_runs(tmp_path):
    # Build the console script that an installer makes from this checkout's
    # [project.scripts] entry, and run it against this checkout's src, so the
    # test neither needs an install nor picks up another framegeo on PATH.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    repo = Path(__file__).resolve().parents[1]
    with open(repo / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    ep = EntryPoint(name="framegeo", value=scripts["framegeo"], group="console_scripts")
    exe = tmp_path / "framegeo"
    exe.write_text(f"#!{sys.executable}\n"
                   "import sys\n"
                   f"from {ep.module} import {ep.attr}\n"
                   f"sys.exit({ep.attr}())\n")
    exe.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)

    def run(*args):
        return subprocess.run([str(exe), *args], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=60)

    proc = run("equality-case", "--n", "4", "--k", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["n"] == 4 and data["k"] == 2
    proc = run("equality-case", "--n", "5", "--k", "2")
    assert proc.returncode == 2
