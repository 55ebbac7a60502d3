import hashlib
import json
import os
import resource
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pencurve import cli, oracle, synth_measure


@pytest.fixture()
def two_atoms_csv(tmp_path):
    path = tmp_path / "atoms.csv"
    path.write_text("0,0\n1,0\n")
    return path


def test_fit_writes_outputs_and_exit_zero(two_atoms_csv, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["fit", str(two_atoms_csv), "--p", "2", "--lambda", "0.2",
                   "--out", str(out), "--svg"])
    assert rc == 0
    for name in ("curve.json", "result.json", "report.json", "plot.svg"):
        assert (out / name).exists()
    curve = json.loads((out / "curve.json").read_text())
    assert "manifest" in curve
    v = np.array(curve["vertices"])
    assert np.allclose(np.sort(v[:, 0]), [0.2, 0.8], atol=1e-3)
    result = json.loads((out / "result.json").read_text())
    assert result["energy"]["total"] == pytest.approx(0.16, abs=1e-6)


def test_fit_reruns_are_byte_identical(two_atoms_csv, tmp_path):
    out = tmp_path / "run"
    args = ["fit", str(two_atoms_csv), "--p", "2", "--lambda", "0.2",
            "--seed", "1", "--out", str(out)]
    assert cli.main(args) == 0
    first = {n: (out / n).read_bytes() for n in ("curve.json", "result.json", "report.json")}
    assert cli.main(args) == 0
    for n, blob in first.items():
        assert (out / n).read_bytes() == blob


def test_artifacts_rewritten_in_place_leave_no_stale_tail(two_atoms_csv, tmp_path):
    out = tmp_path / "run"
    args = ["fit", str(two_atoms_csv), "--p", "2", "--lambda", "0.2", "--out", str(out), "--svg"]
    assert cli.main(args) == 0
    first = {n: (out / n).read_bytes()
             for n in ("curve.json", "result.json", "report.json", "plot.svg")}
    for n, blob in first.items():
        (out / n).write_bytes(b"stale " * len(blob))  # longer than the new bytes
    assert cli.main(args) == 0
    for n, blob in first.items():
        assert (out / n).read_bytes() == blob


def test_artifact_bytes_equal_write_text(tmp_path):
    for text in (json.dumps({"b": [0.1, 2], "a": "x"}, sort_keys=True, indent=2) + "\n",
                 '<?xml version="1.0"?>\n<svg>\n</svg>\n'):
        fresh, rewritten, reference = (tmp_path / n for n in ("fresh", "rewritten", "reference"))
        rewritten.write_text(text * 3)
        for path in (fresh, rewritten):
            cli._write_artifact(path, text)
        reference.write_text(text)
        assert fresh.read_bytes() == rewritten.read_bytes() == reference.read_bytes()


def test_artifact_written_through_a_symlink(two_atoms_csv, tmp_path):
    target, link = tmp_path / "target.svg", tmp_path / "plot.svg"
    target.write_text("<stale/>" * 1000)
    link.symlink_to(target)
    assert cli.main(["plot", str(two_atoms_csv), "--out", str(link)]) == 0
    assert link.is_symlink()
    rendered = target.read_bytes()
    link.unlink()
    assert cli.main(["plot", str(two_atoms_csv), "--out", str(link)]) == 0
    assert link.read_bytes() == rendered  # the same manifest path, written as a plain file


def test_rewritten_artifact_keeps_its_mode(two_atoms_csv, tmp_path):
    out = tmp_path / "oracle.json"
    out.write_text("{}")
    out.chmod(0o640)
    assert cli.main(["oracle", str(two_atoms_csv), "--m", "2", "--h", "0.25", "--p", "2",
                     "--lambda", "0.2", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert json.loads(out.read_text())["oracle"]["m"] == 2


def _write_csv(path, positions):
    path.write_text("".join(f"{float(x)!r},{float(y)!r}\n" for x, y in positions))
    return path


def test_fit_artifacts_report_equals_check_and_result_has_no_report(tmp_path):
    atoms = _write_csv(tmp_path / "atoms.csv", synth_measure("noisy_circle", 80, seed=2).positions)
    out = tmp_path / "run"
    assert cli.main(["fit", str(atoms), "--p", "2", "--lambda", "0.05", "--out", str(out)]) == 0
    checked = tmp_path / "checked.json"
    assert cli.main(["check", str(atoms), str(out / "curve.json"), "--p", "2", "--lambda", "0.05",
                     "--out", str(checked)]) == 0
    fitted, rechecked = (json.loads(f.read_text()) for f in (out / "report.json", checked))
    del fitted["manifest"], rechecked["manifest"]
    assert fitted == rechecked
    result = json.loads((out / "result.json").read_text())
    assert set(result) == {"manifest", "curve", "energy_trace", "energy", "stationarity",
                           "iterations", "restart_index", "status"}


def test_fit_on_huge_coordinates_exit_zero(tmp_path):
    mu = synth_measure("noisy_segment", 200, seed=0)
    atoms = _write_csv(tmp_path / "atoms.csv", 1e150 * mu.positions)
    out = tmp_path / "run"
    assert cli.main(["fit", str(atoms), "--p", "1", "--lambda", "0.05", "--out", str(out)]) == 0
    for name in ("curve.json", "result.json", "report.json"):
        assert (out / name).exists()


@pytest.mark.parametrize("scale", [2e154, 1e200, 1e-200])
def test_coordinates_out_of_range_exit_two_with_one_line(tmp_path, scale):
    mu = synth_measure("noisy_circle", 300, seed=1)
    atoms = _write_csv(tmp_path / "atoms.csv", scale * mu.positions)
    theta = np.linspace(0.0, 1.5 * np.pi, 12)
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"dim": 2, "vertices": (0.5 + 0.35 * np.stack(
        [np.cos(theta), np.sin(theta)], axis=1)).tolist()}))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for argv in (["check", str(atoms), str(curve), "--out", str(tmp_path / "report.json")],
                 ["fit", str(atoms), "--out", str(tmp_path / "run")]):
        run = subprocess.run([sys.executable, "-m", "pencurve.cli", *argv, "--p", "2",
                              "--lambda", "0.01"], capture_output=True, text=True, env=env)
        assert run.returncode == 2
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: coordinates out of the supported")


@pytest.mark.parametrize("scale,code", [(1e150, 2), (1e100, 2), (1e75, 0)])
def test_p3_energy_in_float_range_or_exit_two_with_one_line(tmp_path, scale, code):
    # at p = 3 the first variation grows like diam^2: past about 4.7e76 its squares
    # overflow; inside, check and fit run with every numpy warning raised as an error
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    circle = _write_csv(tmp_path / "circle.csv",
                        scale * synth_measure("noisy_circle", 300, seed=0).positions)
    segment = _write_csv(tmp_path / "segment.csv",
                         scale * synth_measure("noisy_segment", 200, seed=0).positions)
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"dim": 2, "vertices": [[0.2 * scale, 0.5 * scale],
                                                        [0.8 * scale, 0.5 * scale]]}))
    for argv in (["check", str(circle), str(curve), "--out", str(tmp_path / "report.json")],
                 ["fit", str(segment), "--out", str(tmp_path / "run")]):
        run = subprocess.run([sys.executable, "-W", "error", "-m", "pencurve.cli", *argv,
                              "--p", "3", "--lambda", "0.05"],
                             capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == code
        lines = run.stderr.splitlines()
        if code:
            assert len(lines) == 1
            assert lines[0].startswith("error: coordinates out of the supported range at p = 3")
        else:
            assert lines == []


@pytest.mark.parametrize("far,code", [(1e300, 2), (1e150, 0)])
def test_curve_coordinates_out_of_range_exit_two_with_one_line(tmp_path, far, code):
    # curves are held to the measures' |x| <= 2^500 (about 3.3e150): at 1e300 the
    # segment lengths overflowed with a numpy warning and check exited 0
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    atoms = _write_csv(tmp_path / "atoms.csv", synth_measure("noisy_circle", 300, seed=0).positions)
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"dim": 2, "vertices": [[0.1, 0.5], [0.5, 0.52], [0.9, 0.5],
                                                        [far, -far]]}))
    model = ["--p", "2", "--lambda", "0.01"]
    for argv in (["check", str(atoms), str(curve), *model, "--out", str(tmp_path / "r.json")],
                 ["oracle", str(atoms), "--m", "2", "--h", "0.5", *model, "--curve", str(curve),
                  "--out", str(tmp_path / "o.json")],
                 ["plot", str(atoms), "--curve", str(curve), "--out", str(tmp_path / "p.svg")]):
        run = subprocess.run([sys.executable, "-W", "error", "-m", "pencurve.cli", *argv],
                             capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == code
        lines = run.stderr.splitlines()
        if code:
            assert len(lines) == 1
            assert lines[0].startswith("error: curve coordinates out of the supported range")
        else:
            assert lines == []


def test_fit_rejects_bad_p(two_atoms_csv, tmp_path):
    rc = cli.main(["fit", str(two_atoms_csv), "--p", "0.5", "--lambda", "0.2",
                   "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("flag,value", [("--p", "inf"), ("--lambda", "inf")])
def test_fit_rejects_infinite_p_and_lambda(two_atoms_csv, tmp_path, flag, value):
    params = {"--p": "2", "--lambda": "0.2", flag: value}
    rc = cli.main(["fit", str(two_atoms_csv), *[x for kv in params.items() for x in kv],
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag,value", [("--p", "0.5"), ("--lambda", "0"), ("--p", "inf"),
                                        ("--lambda", "inf")])
def test_check_rejects_bad_p_and_lambda(two_atoms_csv, tmp_path, flag, value):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"dim": 2, "vertices": [[0.2, 0.0], [0.8, 0.0]]}))
    params = {"--p": "2", "--lambda": "0.2", flag: value}
    report = tmp_path / "report.json"
    rc = cli.main(["check", str(two_atoms_csv), str(curve),
                   *[x for kv in params.items() for x in kv], "--out", str(report)])
    assert rc == 2
    assert not report.exists()


def test_fit_missing_file(tmp_path):
    rc = cli.main(["fit", str(tmp_path / "nope.csv"), "--p", "2", "--lambda", "0.2",
                   "--out", str(tmp_path)])
    assert rc == 2


def test_fit_out_that_is_a_file_exit_2_before_fitting(two_atoms_csv, tmp_path, capsys,
                                                       monkeypatch):
    out = tmp_path / "taken"
    out.write_text("keep\n")
    monkeypatch.setattr(cli, "fit", lambda *a: pytest.fail("fit ran before --out was made"))
    rc = cli.main(["fit", str(two_atoms_csv), "--p", "2", "--lambda", "0.1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert out.read_text() == "keep\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["atoms.csv", "taken"]


def test_check_measure_that_is_a_directory_exit_2(tmp_path, capsys):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"dim": 2, "vertices": [[0.2, 0.0], [0.8, 0.0]]}))
    rc = cli.main(["check", str(tmp_path), str(curve), "--p", "2", "--lambda", "0.1",
                   "--out", str(tmp_path / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert sorted(f.name for f in tmp_path.iterdir()) == ["curve.json"]


def test_check_theory_failure_still_exit_zero(two_atoms_csv, tmp_path):
    fig8 = tmp_path / "fig8.json"
    fig8.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 1], [1, 0], [0, 1]]}))
    report = tmp_path / "report.json"
    rc = cli.main(["check", str(two_atoms_csv), str(fig8), "--p", "2", "--lambda", "0.2",
                   "--out", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    by_name = {c["name"]: c["status"] for c in data["checks"]}
    assert by_name["injectivity"] == "FAIL"


def test_check_dimension_mismatch_exit_2(two_atoms_csv, tmp_path):
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps({"dim": 3, "vertices": [[0, 0, 0], [1, 1, 1]]}))
    rc = cli.main(["check", str(two_atoms_csv), str(c3), "--p", "2", "--lambda", "0.2",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 2


def test_check_3d_skips_planar_checks(tmp_path):
    mu3 = tmp_path / "mu3.json"
    mu3.write_text(json.dumps({
        "dim": 3,
        "atoms": [{"x": [0, 0, 0]}, {"x": [1, 0, 0]}, {"x": [0.5, 1, 0]}],
    }))
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps({"dim": 3, "vertices": [[0.2, 0.2, 0.0], [0.8, 0.2, 0.0]]}))
    report = tmp_path / "r.json"
    rc = cli.main(["check", str(mu3), str(c3), "--p", "2", "--lambda", "0.2",
                   "--out", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    by_name = {c["name"]: c["status"] for c in data["checks"]}
    assert by_name["hull_containment"] == "SKIPPED"
    assert by_name["injectivity"] == "SKIPPED"
    assert by_name["tv_global"] == "PASS"


def test_oracle_command_and_budget_refusal(two_atoms_csv, tmp_path):
    out = tmp_path / "oracle.json"
    rc = cli.main(["oracle", str(two_atoms_csv), "--m", "2", "--h", "0.01",
                   "--p", "2", "--lambda", "0.2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["oracle"]["oracle_energy"] == pytest.approx(0.16, abs=0.02)
    rc = cli.main(["oracle", str(two_atoms_csv), "--m", "4", "--h", "0.0001",
                   "--p", "2", "--lambda", "0.2", "--out", str(out)])
    assert rc == 3


def test_oracle_refusal_states_its_size(two_atoms_csv, tmp_path, capsys):
    rc = cli.main(["oracle", str(two_atoms_csv), "--m", "3", "--h", "0.0001",
                   "--p", "2", "--lambda", "0.2", "--out", str(tmp_path / "oracle.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "10001 grid points" in err
    assert "bytes" in err
    assert not (tmp_path / "oracle.json").exists()



def test_oracle_refuses_a_search_past_the_float_range(tmp_path, capsys):
    # m = 3 over 1100 atoms needs ~2^1101 pair-cost evaluations, above any float
    atoms = tmp_path / "atoms.csv"
    np.savetxt(atoms, np.random.default_rng(0).uniform(0.0, 1.0, (1100, 2)), delimiter=",")
    out = tmp_path / "oracle.json"
    rc = cli.main(["oracle", str(atoms), "--m", "3", "--h", "0.5", "--p", "2",
                   "--lambda", "0.2", "--out", str(out)])
    assert rc == 3
    assert "~2.20e+333 pair-cost evaluations" in capsys.readouterr().err
    assert not out.exists()


def _address_space_3gb():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("h, budget", [("0.001", "1e9"), ("1e-300", "1e9"), ("1e-310", "1e9"),
                                       ("1e-300", "inf")],
                         ids=["0.001", "1e-300", "1e-310", "1e-300-budget-inf"])
def test_oracle_refuses_a_huge_grid_before_building_it(tmp_path, h, budget):
    # three atoms spanning 1e6: about 1e18 grid points at h = 0.001, 1e612 at
    # h = 1e-300, and axis counts past the float range at h = 1e-310; the refusal
    # comes from the axis counts, and the child's address space is capped so
    # that a grid built first fails fast instead; an infinite budget still
    # refuses a grid that numpy cannot index
    atoms = _write_csv(tmp_path / "atoms.csv", [(0.0, 0.0), (1e6, 0.0), (0.0, 1e6)])
    out = tmp_path / "oracle.json"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-m", "pencurve.cli", "oracle", str(atoms), "--m", "2",
                          "--h", h, "--p", "2", "--lambda", "0.1", "--budget", budget,
                          "--out", str(out)],
                         capture_output=True, text=True, env=env, timeout=120,
                         preexec_fn=_address_space_3gb)
    assert run.returncode == 3
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: oracle needs ~")
    assert not out.exists()


def test_out_of_memory_is_a_resource_refusal(two_atoms_csv, tmp_path, monkeypatch, capsys):
    def exhausted(mu, ocfg):
        raise MemoryError("Unable to allocate 1.49 GiB for an array")

    monkeypatch.setattr(cli, "brute_force_min", exhausted)
    out = tmp_path / "oracle.json"
    rc = cli.main(["oracle", str(two_atoms_csv), "--m", "1", "--h", "1e-4", "--p", "2",
                   "--lambda", "0.1", "--out", str(out)])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory")
    assert not out.exists()

@pytest.mark.parametrize("curve", [
    {"dim": 2, "vertices": [[0.1, 0.5], [0.9, 0.5], [1e300, -1e300]]},
    {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0]]},
], ids=["out-of-range", "3d-curve"])
def test_oracle_refuses_a_bad_curve_before_the_search(two_atoms_csv, tmp_path, monkeypatch,
                                                      capsys, curve):
    monkeypatch.setattr(cli, "brute_force_min",
                        lambda *a: pytest.fail("the search ran before the curve was read"))
    path, out = tmp_path / "curve.json", tmp_path / "oracle.json"
    path.write_text(json.dumps(curve))
    rc = cli.main(["oracle", str(two_atoms_csv), "--m", "2", "--h", "0.5", "--p", "2",
                   "--lambda", "0.01", "--curve", str(path), "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


def test_oracle_certifies_a_good_curve(two_atoms_csv, tmp_path):
    path, out = tmp_path / "curve.json", tmp_path / "oracle.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [[0.2, 0.0], [0.8, 0.0]]}))
    rc = cli.main(["oracle", str(two_atoms_csv), "--m", "2", "--h", "0.1", "--p", "2",
                   "--lambda", "0.2", "--curve", str(path), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["certify"]["status"] == "PASS"


def test_oracle_with_a_curve_searches_once(two_atoms_csv, tmp_path, monkeypatch):
    search, calls = oracle.brute_force_min, []

    def counted(mu, ocfg):
        calls.append(ocfg)
        return search(mu, ocfg)

    monkeypatch.setattr(cli, "brute_force_min", counted)
    monkeypatch.setattr(oracle, "brute_force_min", counted)
    path, out = tmp_path / "curve.json", tmp_path / "oracle.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [[0.2, 0.0], [0.8, 0.0]]}))
    rc = cli.main(["oracle", str(two_atoms_csv), "--m", "3", "--h", "0.25", "--p", "2",
                   "--lambda", "0.2", "--curve", str(path), "--out", str(out)])
    assert rc == 0
    assert len(calls) == 1
    mu, _ = cli._read_measure(two_atoms_csv, None)
    searched = oracle.certify_fit(mu, cli._read_curve(path, mu, {}), calls[0])  # its own search
    assert json.loads(out.read_text())["certify"] == json.loads(json.dumps(searched))
    assert len(calls) == 2


def test_oracle_with_a_curve_refused_exits_3(two_atoms_csv, tmp_path):
    path, out = tmp_path / "curve.json", tmp_path / "oracle.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [[0.2, 0.0], [0.8, 0.0]]}))
    rc = cli.main(["oracle", str(two_atoms_csv), "--m", "3", "--h", "0.0001", "--p", "2",
                   "--lambda", "0.2", "--curve", str(path), "--out", str(out)])
    assert rc == 3
    assert not out.exists()


@pytest.mark.parametrize("budget", ["nan", "0", "-1"])
def test_oracle_rejects_a_budget_that_is_not_positive(two_atoms_csv, tmp_path, budget):
    out = tmp_path / "oracle.json"
    rc = cli.main(["oracle", str(two_atoms_csv), "--m", "2", "--h", "0.05", "--p", "2",
                   "--lambda", "0.2", "--budget", budget, "--out", str(out)])
    assert rc == 2
    assert not out.exists()

def test_plot_svg(two_atoms_csv, tmp_path):
    out = tmp_path / "plot.svg"
    rc = cli.main(["plot", str(two_atoms_csv), "--out", str(out)])
    assert rc == 0
    svg = out.read_text()
    assert svg.startswith("<?xml")
    assert "<circle" in svg


def test_each_input_is_read_once_and_hashed(two_atoms_csv, tmp_path):
    """fit, check, oracle --curve and plot open each input file once; the manifest
    holds the sha256 of the bytes read."""
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"dim": 2, "vertices": [[0.2, 0.0], [0.8, 0.0]]}))
    measure, digests = str(two_atoms_csv), {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (two_atoms_csv, curve)}
    opened, recording = [], [True]  # an audit hook stays installed: it records only while set

    def hook(event, args):
        if recording and event == "open":
            opened.append(args[0])

    sys.addaudithook(hook)
    out = tmp_path / "out"
    runs = [(["fit", measure, "--p", "2", "--lambda", "0.2", "--out", str(out)],
             out / "curve.json", [measure]),
            (["check", measure, str(curve), "--p", "2", "--lambda", "0.2",
              "--out", str(tmp_path / "report.json")], tmp_path / "report.json", digests),
            (["oracle", measure, "--m", "2", "--h", "0.25", "--p", "2", "--lambda", "0.2",
              "--curve", str(curve), "--out", str(tmp_path / "o.json")], tmp_path / "o.json",
             digests),
            (["plot", measure, "--curve", str(curve), "--out", str(tmp_path / "p.svg")],
             None, digests)]
    try:
        for argv, artifact, inputs in runs:
            opened.clear()
            assert cli.main(argv) == 0
            paths = [os.fsdecode(p) for p in opened if isinstance(p, (str, bytes, os.PathLike))]
            assert sorted(p for p in paths if p in digests) == sorted(inputs), argv[0]
            if artifact is not None:
                manifest = json.loads(artifact.read_text())["manifest"]
                assert manifest["inputs"] == {p: digests[p] for p in inputs}
    finally:
        recording.clear()


def test_conjecture_exit_codes(tmp_path):
    rc = cli.main(["conjecture", "--p", "2", "--budget", "1",
                   "--out", str(tmp_path / "c.json")])
    assert rc == 2
    out = tmp_path / "cands.json"
    rc = cli.main(["conjecture", "--p", "1.5", "--budget", "1", "--seed", "3",
                   "--restarts", "1", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert "candidates" in data and "manifest" in data


GOOD_MEASURE = b'{"dim": 2, "atoms": [{"x": [0, 0]}, {"x": [1, 0]}]}'
GOOD_CURVE = b'{"dim": 2, "vertices": [[0, 0], [1, 0]]}'


@pytest.mark.parametrize("command,measure,curve", [
    ("check", b'{"dim": 2, "atoms": [{"x": [0, 0], "m": "abc"}]}', GOOD_CURVE),
    ("check", b'{"dim": 2, "atoms": [{"x": 5}]}', GOOD_CURVE),
    ("check", b'{"dim": 2, "atoms": [{"x": ["a", 0]}]}', GOOD_CURVE),
    ("check", b'{"dim": "two", "atoms": [{"x": [0, 0]}]}', GOOD_CURVE),
    ("check", b'{"dim": 2, "atoms": [[0, 0], [1, 1]]}', GOOD_CURVE),
    ("check", b'{"dim": 2, "atoms": 5}', GOOD_CURVE),
    ("check", b'{"dim": 2, "atoms": [{"x": [0, 0]}, {"x": [1, 0]}]}\xff', GOOD_CURVE),
    ("check", GOOD_MEASURE, GOOD_CURVE + b"\xff"),
    ("check", GOOD_MEASURE, b"not json"),
    ("check", GOOD_MEASURE, b'{"dim": 2, "vertices": [[1' + b"0" * 400 + b', 0], [1, 0]]}'),
    ("plot", GOOD_MEASURE, b'{"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0]]}'),
], ids=["mass-text", "x-number", "x-text", "dim-text", "atoms-lists",
        "atoms-number", "measure-not-utf8", "curve-not-utf8", "curve-not-json",
        "curve-overflow", "plot-3d-curve"])
def test_malformed_input_files_exit_two_with_one_line(tmp_path, capsys, command, measure, curve):
    (tmp_path / "mu.json").write_bytes(measure)
    (tmp_path / "curve.json").write_bytes(curve)
    argv = [command, str(tmp_path / "mu.json"), "--out", str(tmp_path / "out")]
    if command == "check":
        argv += [str(tmp_path / "curve.json"), "--p", "2", "--lambda", "0.1"]
    else:
        argv += ["--curve", str(tmp_path / "curve.json")]
    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("vertices,name,window", [
    ([[0.6, 1.0], [0.8, 0.3], [0.4, 0.3], [0.0, 0.1]], "turn_direction", "worst (1, 3) at"),
    ([[0.56, 1.11], [0.94, -0.2], [1.0, -0.15], [0.82, 0.05]], "tv_local", "worst window (0, 2)"),
])
def test_check_fails_window_certificates_when_p_over_lambda_overflows(
        two_atoms_csv, tmp_path, vertices, name, window):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"dim": 2, "vertices": vertices}))
    checks = []
    for lam in ("0.1", "1e-320"):  # 2 / 1e-320 overflows to inf
        report = tmp_path / f"report-{lam}.json"
        assert cli.main(["check", str(two_atoms_csv), str(curve), "--p", "2", "--lambda", lam,
                         "--out", str(report)]) == 0
        checks.append({c["name"]: c for c in json.loads(report.read_text())["checks"]}[name])
    assert checks[0]["status"] == "FAIL" and window in checks[0]["detail"]
    assert checks[1] == checks[0]
