"""CLI surface: subcommands, formats, exit codes, seed handling."""

import json

import pytest

import grunlab as gl
from grunlab.cli import main

FIXTURES = {
    "affine": str(gl.fixture_path("affine_profile.json")),
    "constant": str(gl.fixture_path("constant_profile.json")),
    "cone_profile": str(gl.fixture_path("cone_profile.json")),
    "cone": str(gl.fixture_path("cone3.json")),
    "simplex2": str(gl.fixture_path("simplex2.json")),
    "ball3": str(gl.fixture_path("ball3.json")),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_n3(capsys):
    code, out, _ = run(capsys, "bound", "--n", "3", "--format", "json")
    rows = {r["theorem"]: r["value"] for r in json.loads(out)}
    assert code == 0
    assert rows == pytest.approx({"grunbaum": 27 / 64, "minkowski_radon": 0.25,
                                  "makai_fradelizi": 9 / 16})


def test_bound_functional_and_r(capsys):
    code, out, _ = run(capsys, "bound", "--alpha", "1", "--beta", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["value"] == pytest.approx(8 / 27)
    code, out, _ = run(capsys, "bound", "--p", "1", "--r", "0", "--format", "json")
    assert json.loads(out)[0]["value"] == pytest.approx(0.25)


def test_bound_requires_parameters(capsys):
    code, _, err = run(capsys, "bound")
    assert code == 1
    assert "give" in err


def test_verify_fn_pass_and_content(capsys):
    code, out, _ = run(capsys, "verify-fn", FIXTURES["affine"],
                       "--alpha", "1", "--beta", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["slack"] == pytest.approx(0.0, abs=1e-12)
    code, out, _ = run(capsys, "verify-fn", FIXTURES["constant"],
                       "--alpha", "1", "--beta", "1", "--format", "json")
    data = json.loads(out)
    assert data["slack"] == pytest.approx(0.5 - 4 / 9, rel=1e-9)


def test_verify_fn_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "verify-fn", str(bad), "--alpha", "1", "--beta", "1")
    assert code == 1
    assert "error" in err.lower()
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    code, _, err = run(capsys, "verify-fn", str(empty), "--alpha", "1", "--beta", "1")
    assert code == 1


def test_verify_fn_non_concave_is_validation_error(tmp_path, capsys):
    prof = tmp_path / "vee.json"
    prof.write_text(json.dumps(
        {"breakpoints": [[0.0, 1.0], [0.5, 0.2], [1.0, 1.0]]}), encoding="utf-8")
    code, _, err = run(capsys, "verify-fn", str(prof), "--alpha", "1", "--beta", "1")
    assert code == 1
    assert "concave" in err


def test_verify_body_grunbaum_cone(capsys):
    code, out, _ = run(capsys, "verify-body", FIXTURES["cone"], "--theorem", "grunbaum-r",
                       "--u", "1,0,0", "--p", "0.5", "--r", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ratio"] == pytest.approx(27 / 64, rel=1e-12)
    assert data["provenance"]["params"]["p"] == 0.5


def test_verify_body_minkowski_simplex(capsys):
    code, out, _ = run(capsys, "verify-body", FIXTURES["simplex2"],
                       "--theorem", "minkowski-radon", "--u", "1,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["ratio"] == pytest.approx(1 / 3, rel=1e-12)


def test_verify_body_makai_ball(capsys):
    code, out, _ = run(capsys, "verify-body", FIXTURES["ball3"],
                       "--theorem", "makai-fradelizi", "--u", "0,0,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["ratio"] == pytest.approx(1.0, rel=1e-9)


def test_verify_body_simplex4_is_exact_without_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GRUNLAB_SEED", raising=False)
    body = tmp_path / "simplex4.json"
    verts = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    body.write_text(json.dumps({"variant": "simplex", "vertices": verts}))
    code, out, _ = run(capsys, "verify-body", str(body), "--theorem", "grunbaum-r",
                       "--u", "1,1,0,0", "--p", "0.3333333333333333", "--r", "1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["provenance"]["kind"] != "mc"
    assert data["details"]["cut"] == pytest.approx(0.2 * 2 ** 0.5, rel=1e-12)
    code, out, _ = run(capsys, "verify-body", str(body), "--theorem", "makai-fradelizi",
                       "--u", "1,1,0,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_body_grunbaum_missing_pr(capsys):
    code, _, err = run(capsys, "verify-body", FIXTURES["cone"], "--theorem", "grunbaum-r",
                       "--u", "1,0,0")
    assert code == 1
    assert "--p" in err


def test_verify_body_mc_reports_seed(capsys):
    code, out, _ = run(capsys, "verify-body", FIXTURES["ball3"], "--theorem", "grunbaum-r",
                       "--u", "0,1,0", "--p", "0.5", "--r", "1",
                       "--seed", "42", "--samples", "50000", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["provenance"]["kind"] == "mc"
    assert data["provenance"]["seed"] == 42
    assert data["provenance"]["samples"] == 50000


def test_search_requires_seed(capsys, monkeypatch):
    monkeypatch.delenv("GRUNLAB_SEED", raising=False)
    code, _, err = run(capsys, "search", "--alpha", "1", "--beta", "1")
    assert code == 1
    assert "seed" in err


def test_search_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("GRUNLAB_SEED", "7")
    code, out, _ = run(capsys, "search", "--alpha", "1", "--beta", "1",
                       "--budget", "300", "--restarts", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 7
    assert data["gap"] >= -1e-9
    assert "breakpoints" in data["best_profile"]


def test_sweep_csv_and_exit(capsys):
    code, out, _ = run(capsys, "sweep", "--alpha-grid", "1,2", "--beta-grid", "1",
                       "--trials", "10", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,beta,trials,min_slack,argmin_profile_hash,seed"
    assert len(lines) == 3


def test_sweep_default_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--grid", "default", "--trials", "2", "--seed", "7")
    assert code == 0
    assert len(out.strip().splitlines()) == 26  # 5x5 grid + header


def test_revolve_roundtrip_ok(capsys):
    code, out, _ = run(capsys, "revolve-roundtrip", FIXTURES["cone_profile"],
                       "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["discrepancy"] < 1e-8
    assert data["pass"] is True


def test_revolve_roundtrip_zero_tol_fails(capsys):
    # an honest exit-2 path: tol 0 cannot be met by any finite-precision run
    code, out, _ = run(capsys, "revolve-roundtrip", FIXTURES["constant"],
                       "--n", "2", "--tol", "0", "--format", "json")
    assert code == 2
    assert json.loads(out)["pass"] is False


def test_revolve_roundtrip_precondition(tmp_path, capsys):
    prof = tmp_path / "quartic.json"
    prof.write_text(json.dumps({"kind": "decreasing-power",
                                "params": {"c": 1.0, "gamma": 0.0, "delta": 1.0, "q": 4.0}}),
                    encoding="utf-8")
    code, _, err = run(capsys, "revolve-roundtrip", str(prof), "--n", "3")
    assert code == 1
    assert "concave" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-body", "nope.json", "--theorem", "bogus", "--u", "1,0"])
    assert exc.value.code == 1


def test_table_format_output(capsys):
    code, out, _ = run(capsys, "bound", "--n", "2", "--format", "table")
    assert code == 0
    assert "grunbaum" in out and "0.444444444444" in out


def test_non_finite_numbers_are_errors_not_violations(tmp_path, capsys):
    far = tmp_path / "far.json"  # its moments about t = 0 overflow
    far.write_text(json.dumps({"breakpoints": [[1e155, 1], [1.5e155, 2], [2e155, 1]]}))
    ball = tmp_path / "ball.json"
    ball.write_text('{"variant": "ball", "center": [NaN, 0.0], "radius": 1.0}')
    for argv, message in (
            (("verify-fn", str(far), "--alpha", "1", "--beta", "1"), "not finite"),
            (("verify-fn", FIXTURES["affine"], "--alpha", "1", "--beta", "1", "--tol", "nan"),
             "tolerance"),
            (("verify-body", str(ball), "--theorem", "minkowski-radon", "--u", "1,0"),
             "center must be finite")):
        code, _, err = run(capsys, *argv, "--format", "json")
        assert code == 1, argv
        assert message in err


def test_verify_body_asks_for_a_seed_only_where_it_samples(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GRUNLAB_SEED", raising=False)
    box = tmp_path / "box7.json"  # above R^6 a box has no exact profile off the axes
    box.write_text(json.dumps({"variant": "box", "min_corner": [0] * 7,
                               "max_corner": [1, 2, 1, 1, 1, 1, 3]}))
    u = ",".join(["1"] * 7)
    code, out, _ = run(capsys, "verify-body", str(box), "--theorem", "minkowski-radon",
                       "--u", u, "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, _, err = run(capsys, "verify-body", str(box), "--theorem", "makai-fradelizi",
                       "--u", u, "--format", "json")
    assert code == 1
    assert "no exact section profile" in err and "seed" not in err
    code, _, err = run(capsys, "verify-body", str(box), "--theorem", "grunbaum-r", "--u", u,
                       "--p", "0.2", "--r", "1", "--format", "json")
    assert code == 1
    assert "seed" in err
