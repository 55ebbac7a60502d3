import json

import numpy as np
import pytest

from pencurve import cli, synth_measure


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
