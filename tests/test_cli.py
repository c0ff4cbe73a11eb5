import json
import re
from dataclasses import replace

import pytest

from specpair import cli, eigensolve, hadamard
from specpair.errors import PreconditionError
from specpair.potential import PotentialSpec


def run_cli(args):
    return cli.main(args)


def test_print_defaults_parses(capsys):
    assert run_cli(["--print-defaults"]) == 0
    out = capsys.readouterr().out
    d = json.loads(out)
    assert d["potential"]["t"] == 0.05
    assert d["grid"]["intervals"] == 4096
    assert len(d["h_list"]) == 12


def test_spectrum_harmonic(tmp_path):
    code = run_cli(["spectrum", "--t", "0", "--eps", "0",
                    "--grid-n", "2048", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "spectrum_eigenvalues.csv").read_text().strip().splitlines()
    assert rows[0] == "h,j,lambda,error_estimate"
    lams = [float(r.split(",")[2]) for r in rows[1:]]
    for j, lam in enumerate(lams, start=1):
        assert lam == pytest.approx(2 * j - 1, abs=1e-6)
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["passed"]
    names = [a["name"] for a in report["assertions"]]
    assert "eigensolve.ordering" in names


def test_spectrum_deterministic_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run_cli(["spectrum", "--t", "0", "--eps", "0",
                        "--grid-n", "1024", "--out", str(out)]) == 0
    assert (a / "spectrum_eigenvalues.csv").read_bytes() == \
        (b / "spectrum_eigenvalues.csv").read_bytes()


def test_gap_sweep_mirror_pair_reports_floor(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "potential": {"t": 0.0, "eps": 0.05},
        "grid": {"intervals": 1024},
        "h_list": [0.5, 0.6, 0.7, 0.85, 1.0],
    }))
    code = run_cli(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "gap-sweep_report.json").read_text())
    names = [a["name"] for a in report["assertions"]]
    assert names == ["traces.below_floor"]
    assert report["passed"]
    csv = (tmp_path / "gap-sweep_distance.csv").read_text()
    assert csv.splitlines()[0] == "h,E,D,error_estimate,n_levels,usable"
    assert (tmp_path / "plot_gap_decay.py").exists()


@pytest.mark.parametrize("t", [0.0, 0.05])
def test_gap_sweep_below_the_floor_passes_only_for_an_exact_mirror(tmp_path, t):
    # every D at h <= 0.25 lies below the noise floor; only t = 0 makes the
    # pair an exact mirror, so only there does "below the floor" pass
    rep = cli.run({"potential": {"t": t}, "h_list": [0.2, 0.22, 0.25]}, "gap-sweep",
                  out_dir=tmp_path)
    assert [row["usable"] for row in rep.tables["distance"]] == [0, 0, 0]
    checks = [(a.name, a.passed, a.margin) for a in rep.assertions]
    if t == 0.0:
        assert checks == [("traces.below_floor", True, 1e-12)]
    else:
        assert checks == [("traces.fit_available", False, -5.0)]


def test_gap_sweep_without_beta_is_a_config_error(tmp_path, capsys):
    # eps = 0 makes both members one operator (D = 0 at every h): exit 2
    # naming the key, not a failed decay fit
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": {"eps": 0.0}, "h_list": [0.5, 0.7, 1.0]}))
    assert run_cli(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "potential.eps" in capsys.readouterr().err
    assert not (tmp_path / "gap-sweep_distance.csv").exists()


def test_gap_sweep_empty_window_is_an_error(tmp_path):
    # E = 0.5 holds no level once h > 0.5: an error, not "below the noise floor"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gap_window": 0.5}))
    assert run_cli(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_gap_sweep_csv_cells_are_numbers(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h_list": [0.5, 0.7, 1.0]}))
    assert run_cli(["gap-sweep", "--config", str(cfg), "--out", str(tmp_path)]) in (0, 1)
    rows = (tmp_path / "gap-sweep_distance.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        for cell in row.split(","):
            try:
                int(cell)
            except ValueError:
                float(cell)


def test_validate_passes(tmp_path):
    assert run_cli(["validate", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert report["passed"]
    assert all("." in a["name"] for a in report["assertions"])


def test_invalid_config_is_an_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": -1.0}))
    assert run_cli(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("bad, key", [
    ({"h_lsit": [0.5, 1.0]}, "h_lsit"),
    ({"potential": {"espilon": 0.1}}, "espilon"),
    ({"grid": {"intervalls": 1024}}, "intervalls"),
    ({"potential": {"beta": {"center": 3.5, "half_width": 0.5, "amplitdue": 1.0}}},
     "amplitdue"),
    ({"grid": {"tol": 1e-10}}, "tol"),
])
def test_unknown_config_key_is_an_error(tmp_path, bad, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    assert run_cli(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    with pytest.raises(PreconditionError, match=repr(key)):
        cli.ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize("bad, key, experiment", [
    ({"h_list": []}, "h_list", "gap-sweep"),
    ({"shoot_h_list": []}, "shoot_h_list", "pruefer-compare"),
    ({"shoot_j_max": 0}, "shoot_j_max", "pruefer-compare"),
    ({"eps_fd": 0}, "eps_fd", "hadamard-check"),
    ({"h": "1"}, "h", "validate"),
    ({"E_window": 0.5}, "E_window", "spectrum"),    # below lambda_1 >= h = 1
])
def test_empty_or_invalid_config_value_is_an_error(tmp_path, bad, key, experiment):
    with pytest.raises(PreconditionError, match=rf"^{re.escape(key)}\b"):
        cli.ExperimentConfig.from_dict(bad)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    assert run_cli([experiment, "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("bad, key", [
    ({"reflect_beta": "no"}, "potential.reflect_beta"),
    ({"reflect_beta": 0}, "potential.reflect_beta"),
    ({"t": "0.01"}, "potential.t"),
    ({"eps": True}, "potential.eps"),
    ({"t": float("inf")}, "potential.t"),
    ({"beta": {"center": "3.5", "half_width": 0.5}}, "potential.beta.center"),
    ({"alpha": {"center": -2.5, "half_width": 0.0}}, "potential.alpha.half_width"),
    ({"beta": {"center": 3.5, "half_width": 0.5, "amplitude": None}},
     "potential.beta.amplitude"),
    ({"alpha": {"center": float("nan"), "half_width": 0.5}}, "potential.alpha.center"),
])
def test_invalid_potential_value_is_an_error(tmp_path, bad, key):
    with pytest.raises(PreconditionError, match=rf"^{re.escape(key)}\b"):
        cli.ExperimentConfig.from_dict({"potential": bad})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": bad}))
    assert run_cli(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text, extra", [
    (None, []),                                   # missing file
    ('{"h": 1.0', []),                            # malformed JSON
    ('[{"h": 1.0}]', []),                         # top level not an object
    ('{"potential": "x"}', ["--t", "0.04"]),      # override into a non-object
])
def test_unreadable_config_is_an_error(tmp_path, capsys, text, extra):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    code = run_cli(["validate", "--config", str(cfg), "--out", str(tmp_path)] + extra)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("bad", [None, 3, "", ["out"]])
def test_out_dir_must_be_a_non_empty_string(bad):
    with pytest.raises(PreconditionError, match=r"^out_dir\b"):
        cli.ExperimentConfig.from_dict({"out_dir": bad})


def test_spectrum_window_below_ground_level_is_an_error(tmp_path):
    # h = 1 < E_window < lambda_1 = 1.0000493...: no level to report
    with pytest.raises(PreconditionError, match="E_window"):
        cli.run({"E_window": 1.00001}, "spectrum", out_dir=tmp_path)


def test_config_dict_round_trip():
    cfg = cli.ExperimentConfig.from_dict({"potential": {"t": 0.01, "reflect_beta": True}})
    again = cli.ExperimentConfig.from_dict(json.loads(json.dumps(cfg.raw)))
    assert again == cfg
    assert PotentialSpec.from_dict(cfg.potential.to_dict()) == cfg.potential


def test_failed_assertion_gives_exit_one(tmp_path):
    # a grid too coarse to certify the ground-level margin must fail loudly
    code = run_cli(["spectrum", "--grid-n", "512", "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert not report["passed"]


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        run_cli(["fourier-sweep"])


def test_config_round_trip_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": {"t": 0.01}, "grid": {"intervals": 512}}))
    parsed = cli.ExperimentConfig.from_dict(json.loads(cfg.read_text()))
    assert parsed.potential.t == 0.01
    assert parsed.potential.eps == 0.05       # default preserved
    assert parsed.grid_intervals == 512
    assert parsed.grid_L == 8.0


def test_charpoly_helper_roots():
    import numpy as np
    rng = np.random.default_rng(3)
    diag = rng.uniform(1.0, 5.0, 6)
    offsq = 0.7 ** 2
    roots = cli.charpoly_roots(diag, offsq)
    # oracle: dense symmetric eigensolve
    M = np.diag(diag) + np.diag([-0.7] * 5, 1) + np.diag([-0.7] * 5, -1)
    np.testing.assert_allclose(roots, np.linalg.eigvalsh(M), atol=1e-12)


def _check_margins(rep):
    for a in rep.assertions:
        assert (a.margin >= 0.0) == a.passed, (a.name, a.passed, a.margin)


@pytest.mark.parametrize("experiment, config", [
    ("spectrum", {}),
    ("spectrum", {"potential": {"t": 0.0, "eps": 0.0}}),
    ("gap-sweep", {}),
    ("hadamard-check", {}),
    ("validate", {}),
    ("trace", {}),
])
def test_margin_is_nonnegative_exactly_when_the_check_passes(tmp_path, experiment, config):
    rep = cli.run(config, experiment, out_dir=tmp_path)
    assert rep.assertions
    _check_margins(rep)


_refine = eigensolve.refine
_variation_check = hadamard.variation_check


def _shifted_refine(*args):
    spec = _refine(*args)
    return replace(spec, eigenvalues_lo=spec.eigenvalues_lo + 1e-3)


def _cubic_variation_check(*args, **kwargs):
    # the discrepancy shrinks 8x per halving of eps_fd instead of ~4x
    r = _variation_check(*args, **kwargs)
    return replace(r, discrepancy=kwargs["eps_fd"] ** 3)


@pytest.mark.parametrize("experiment, config, patch", [
    ("spectrum", {"potential": {"t": 0.0, "eps": 0.0}}, (cli, "refine", _shifted_refine)),
    ("validate", {}, (cli, "refine", _shifted_refine)),
    ("gap-sweep", {"h_list": [1.0, 0.9, 0.8]}, None),
    ("hadamard-check", {}, (hadamard, "variation_check", _cubic_variation_check)),
])
def test_failed_check_has_a_negative_margin(tmp_path, monkeypatch, experiment, config, patch):
    if patch is not None:
        monkeypatch.setattr(*patch)
    rep = cli.run(config, experiment, out_dir=tmp_path)
    assert not rep.ok
    _check_margins(rep)
