import dataclasses
import filecmp
import json
import math
import re
import runpy
import sys
import warnings

import numpy as np
import pytest

from hypercross import cli
from hypercross import decomposition as de
from hypercross import grid as g
from hypercross import multiplier as mu
from hypercross import normest as ne


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


APPLY_CONFIG = """
[run]
grid_n_log2 = 4
seed = 7

[profile]
kind = bump
epsilon = 0.5

[linearizer]
kind = lip_x
lip_constant = 1.0
v_min = 0.1
amplitude = 0.5

[apply]
beta = 1.0
method = {method}
"""


def test_apply_bucketed_matches_oracle(tmp_path, capsys):
    cfg = _write(tmp_path, "a.ini", APPLY_CONFIG.format(method="bucketed") + "compare_oracle = true\n")
    rc = cli.main(["apply", "--config", cfg, "--out", str(tmp_path / "out"), "--reproducible"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS apply.oracle_equivalence" in out
    assert (tmp_path / "out" / "output.hxf1").exists()
    assert (tmp_path / "out" / "oracle.hxf1").exists()
    records = [json.loads(line) for line in (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
    assert all("config_sha256" in r and "seed" in r and "grid" in r for r in records)


def test_seed_option_overrides_the_config_seed(tmp_path):
    # --seed 9 over [run] seed = 7 writes what [run] seed = 9 writes; only
    # the config hash of the report differs, since the two files differ
    text = APPLY_CONFIG.format(method="bucketed")
    flag = _write(tmp_path, "flag.ini", text)
    given = _write(tmp_path, "given.ini", text.replace("seed = 7", "seed = 9"))
    assert cli.main(["apply", "--config", flag, "--out", str(tmp_path / "flag"), "--seed", "9"]) == 0
    assert cli.main(["apply", "--config", given, "--out", str(tmp_path / "given")]) == 0
    for name in ("input.hxf1", "output.hxf1", "linearizer.hxf1", "linearizer.json"):
        assert filecmp.cmp(tmp_path / "flag" / name, tmp_path / "given" / name, shallow=False), name
    reports = [[json.loads(line) for line in (tmp_path / run / "report.jsonl").read_text().splitlines()] for run in ("flag", "given")]
    assert all(reports) and all(r["seed"] == 9 for records in reports for r in records)
    assert {r["config_sha256"] for r in reports[0]}.isdisjoint(r["config_sha256"] for r in reports[1])


def test_apply_bruteforce_reruns_byte_identical(tmp_path):
    cfg = _write(tmp_path, "a.ini", APPLY_CONFIG.format(method="bruteforce"))
    rc1 = cli.main(["apply", "--config", cfg, "--out", str(tmp_path / "o1"), "--reproducible"])
    rc2 = cli.main(["apply", "--config", cfg, "--out", str(tmp_path / "o2"), "--reproducible"])
    assert rc1 == rc2 == 0
    for name in ("output.hxf1", "input.hxf1", "linearizer.hxf1", "report.jsonl"):
        assert filecmp.cmp(tmp_path / "o1" / name, tmp_path / "o2" / name, shallow=False), name


def test_unknown_key_rejected_with_name(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[run]\ngrid_n_log2 = 4\nbogus_key = 1\n")
    rc = cli.main(["apply", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "bogus_key" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[run]\ngrid_n_log2 = 4\n\n[nonsense]\nx = 1\n")
    rc = cli.main(["apply", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "nonsense" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path):
    rc = cli.main(["apply", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_IO


def test_verify_constant_config_passes(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "v.ini",
        "[run]\ngrid_n_log2 = 4\nseed = 3\n\n[profile]\nkind = bump\nepsilon = 1.0\n\n"
        "[linearizer]\nkind = constant\nvalue = 0.5\n",
    )
    rc = cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_module_entry_exits_with_the_status_of_main(tmp_path, monkeypatch, capsys):
    # python -m hypercross.cli runs the module afresh as __main__; dropping
    # the imported copy keeps runpy from warning about it
    cfg = _write(tmp_path, "v.ini", "[run]\ngrid_n_log2 = 3\n\n[linearizer]\nkind = constant\nvalue = 0.5\n")
    monkeypatch.delitem(sys.modules, "hypercross.cli")
    monkeypatch.setattr(sys, "argv", ["hypercross", "verify", "--config", cfg, "--out", str(tmp_path / "o")])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("hypercross.cli", run_name="__main__")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_sweep_writes_csv(tmp_path):
    cfg = _write(
        tmp_path,
        "s.ini",
        "[run]\ngrid_n_log2 = 4\nseed = 5\n\n[linearizer]\nkind = staircase_x\n"
        "lip_constant = 1.0\nv_min = 0.125\nlevels = 8\n\n[sweep]\np = 2.0\nbeta = 1.0\n"
        "eps_list = 1.0, 0.5, 0.25\n",
    )
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "p,beta,epsilon,N,seed,A,estimate,iterations,converged"
    assert len(lines) == 4


_SWEEP_CONFIG = "[run]\ngrid_n_log2 = 3\nseed = 5\n\n[sweep]\neps_list = 1.0, 0.5\n"


def _sweep_csv(tmp_path, name, text):
    cfg = _write(tmp_path, f"{name}.ini", text)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / name)]) == 0, name
    return (tmp_path / name / "sweep.csv").read_text()


def test_sweep_checks_every_bump_width_before_it_estimates(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(ne, "l2_norm_power_iteration", lambda op, **kwargs: calls.append(op))
    cfg = _write(tmp_path, "s.ini", _SWEEP_CONFIG.replace("1.0, 0.5", "1.0, 0.5, 0.25, 0.3"))
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "eps must be 2**-i for integer i >= 0, got 0.3" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


def test_sweep_fills_in_the_constant_value(tmp_path):
    given = _sweep_csv(tmp_path, "given", _SWEEP_CONFIG + "\n[linearizer]\nkind = constant\nvalue = 1.0\n")
    assert _sweep_csv(tmp_path, "default", _SWEEP_CONFIG + "\n[linearizer]\nkind = constant\n") == given


def test_sweep_without_a_linearizer_section_takes_the_constant_kind(tmp_path):
    # the default of apply, decompose, normest and verify
    given = _sweep_csv(tmp_path, "given", _SWEEP_CONFIG + "\n[linearizer]\nkind = constant\nvalue = 1.0\n")
    assert _sweep_csv(tmp_path, "default", _SWEEP_CONFIG) == given


_DYADIC_CONFIG = (
    "[run]\ngrid_n_log2 = 5\nseed = 1\n\n[dyadic]\nvariant = thm_4_1\n"
    "lip_constant = 0.125\ndepth = {depth}\ncount = {count}\n"
)


def test_dyadic_command(tmp_path, capsys):
    cfg = _write(tmp_path, "d.ini", _DYADIC_CONFIG.format(depth=5, count=3))
    rc = cli.main(["dyadic", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "PASS dyadic.selection_stability" in capsys.readouterr().out


_DECOMPOSE_CONFIG = (
    "[run]\ngrid_n_log2 = 5\nseed = 2\n\n[profile]\nkind = bump\nepsilon = 0.5\n\n"
    "[linearizer]\n{linearizer}\n\n[decompose]\nbeta = 1.0\n"
)


def test_decompose_command(tmp_path, capsys):
    # criterion 6's lip_y field: the ratio check has triples in its regime
    linearizer = "kind = lip_y\nlip_constant = 1.0\nv_min = 0.03125\namplitude = 0.3"
    cfg = _write(tmp_path, "de.ini", _DECOMPOSE_CONFIG.format(linearizer=linearizer))
    rc = cli.main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0, out
    for check in ("calderon_residual", "decomposition_identity", "error_symbol_support", "overlap_count", "lipschitz_ratio"):
        assert f"PASS decompose.{check}" in out


def test_decompose_field_is_exactly_mean_zero_on_both_axes(tmp_path, monkeypatch, capsys):
    fields = []
    residual = de.calderon_residual

    def spy(f, family):
        fields.append(f)
        return residual(f, family)

    monkeypatch.setattr(de, "calderon_residual", spy)
    linearizer = "kind = lip_y\nlip_constant = 1.0\nv_min = 0.03125\namplitude = 0.3"
    cfg = _write(tmp_path, "de.ini", _DECOMPOSE_CONFIG.format(linearizer=linearizer))
    assert cli.main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "PASS decompose.calderon_residual: 0.000e+00" in capsys.readouterr().out
    (f,) = fields
    spec = g.forward_transform(f).coeffs
    assert not spec[0].any() and not spec[:, 0].any()
    assert spec[1:, 1:].all()


def test_decompose_ratio_check_fails_when_nothing_is_in_regime(tmp_path, capsys):
    # a constant V rounds to one scale, so no sampled triple reaches the regime
    cfg = _write(tmp_path, "de.ini", _DECOMPOSE_CONFIG.format(linearizer="kind = constant\nvalue = 0.05"))
    rc = cli.main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_ASSERTION
    assert "FAIL decompose.lipschitz_ratio: 0 checked" in capsys.readouterr().out


NORMEST_CONFIG = (
    "[run]\ngrid_n_log2 = 3\nseed = 4\n\n[profile]\nkind = bump\nepsilon = 1.0\n\n"
    "[linearizer]\nkind = constant\nvalue = 0.5\n\n[normest]\np = 2.0\n"
)


def test_normest_command(tmp_path):
    cfg = _write(tmp_path, "n.ini", NORMEST_CONFIG)
    rc = cli.main(["normest", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "witness.hxf1").exists()
    assert (tmp_path / "o" / "estimate.csv").exists()


def test_normest_witness_check_fails_on_inconsistent_estimate(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, "n.ini", NORMEST_CONFIG)
    power = ne.l2_norm_power_iteration

    def off_by_one_percent(op, **kwargs):
        est = power(op, **kwargs)
        return dataclasses.replace(est, value=1.01 * est.value)

    monkeypatch.setattr(ne, "l2_norm_power_iteration", off_by_one_percent)
    rc = cli.main(["normest", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_ASSERTION
    assert "FAIL normest.witness_consistency" in capsys.readouterr().out


def test_normest_takes_a_plateau_whose_width_cubed_underflows(tmp_path):
    profile = "kind = plateau\nflat_radius = 1e-300\nsupport_radius = 2e-300"
    cfg = _write(tmp_path, "n.ini", NORMEST_CONFIG.replace("kind = bump\nepsilon = 1.0", profile))
    assert cli.main(["normest", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    header, row = (tmp_path / "o" / "estimate.csv").read_text().splitlines()
    a_const = float(row.split(",")[header.split(",").index("A")])
    assert math.isfinite(a_const) and a_const == mu.smoothness_constant(mu.MultiplierProfile(1e-300, 2e-300))
    assert a_const == pytest.approx(mu.smoothness_constant(mu.make_bump_profile(0.5)), rel=1e-12)


def test_normest_rejects_a_sub_float_radius_ratio_before_it_estimates(tmp_path, capsys, monkeypatch):
    # epsilon / support_radius is below 2**-1075, so the scan's rescaled
    # epsilon underflows to 0
    calls = []
    monkeypatch.setattr(ne, "l2_norm_power_iteration", lambda op, **kwargs: calls.append(op))
    profile = "kind = plateau\nflat_radius = 5e-324\nsupport_radius = 4.0"
    cfg = _write(tmp_path, "n.ini", NORMEST_CONFIG.replace("kind = bump\nepsilon = 1.0", profile))
    rc = cli.main(["normest", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "5e-324 / 4.0" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


def test_decompose_error_symbol_support_check_fails_on_a_symbol_off_its_band(tmp_path, capsys, monkeypatch):
    # a frozen error symbol that is 1 everywhere is nonzero outside its band
    monkeypatch.setattr(de, "large_variation_symbol", lambda j, family, m: mu.SymbolGrid(family.n_log2, np.ones((32, 32))))
    linearizer = "kind = lip_y\nlip_constant = 1.0\nv_min = 0.03125\namplitude = 0.3"
    cfg = _write(tmp_path, "de.ini", _DECOMPOSE_CONFIG.format(linearizer=linearizer))
    rc = cli.main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_ASSERTION
    assert "FAIL decompose.error_symbol_support" in capsys.readouterr().out
    records = [json.loads(line) for line in (tmp_path / "o" / "report.jsonl").read_text().splitlines()]
    assert [r["passed"] for r in records if r["check"] == "error_symbol_support"] == [False]


def test_verify_level_key_rejected(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "v.ini",
        "[run]\ngrid_n_log2 = 4\n\n[linearizer]\nkind = constant\nvalue = 0.5\n\n[verify]\nlevel = full\n",
    )
    rc = cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "level" in capsys.readouterr().err


def test_verify_staircase_config_passes(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "v.ini",
        "[run]\ngrid_n_log2 = 4\nseed = 3\n\n[profile]\nkind = bump\nepsilon = 0.5\n\n"
        "[linearizer]\nkind = staircase_x\nlip_constant = 1.0\nv_min = 0.125\nlevels = 8\n",
    )
    rc = cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "PASS verify.linearizer_regularity" in capsys.readouterr().out
    assert (tmp_path / "o" / "report.jsonl").exists()


_THM_4_2_CONFIG = _DYADIC_CONFIG.format(depth=5, count=3).replace("thm_4_1", "thm_4_2")
_VERIFY_BODY = "[profile]\nkind = bump\nepsilon = {eps}\n\n[linearizer]\nkind = {kind}\nvalue = 0.5\n"
# criterion 6's lip_y field, whose ratio check has triples in its regime at ratio_lip = 1
_RATIO_CONFIG = _DECOMPOSE_CONFIG.format(linearizer="kind = lip_y\nlip_constant = 1.0\nv_min = 0.03125\namplitude = 0.3")
_BAD_CONFIGS = {
    "no_section_header": ("verify", "grid_n_log2 = 4\n"),
    "duplicate_option": ("verify", "[run]\ngrid_n_log2 = 4\ngrid_n_log2 = 5\n"),
    "duplicate_section": ("verify", "[run]\ngrid_n_log2 = 4\n\n[run]\nseed = 1\n"),
    "epsilon_not_dyadic": ("verify", "[run]\ngrid_n_log2 = 4\n\n" + _VERIFY_BODY.format(eps=0.3, kind="constant")),
    "unknown_linearizer_kind": ("verify", "[run]\ngrid_n_log2 = 4\n\n" + _VERIFY_BODY.format(eps=0.5, kind="lipx")),
    "grid_too_small": ("verify", "[run]\ngrid_n_log2 = 2\n\n" + _VERIFY_BODY.format(eps=0.5, kind="constant")),
    "grid_n_log2_negative": ("verify", "[run]\ngrid_n_log2 = -1\n\n" + _VERIFY_BODY.format(eps=0.5, kind="constant")),
    "zero_restarts": ("normest", NORMEST_CONFIG.replace("p = 2.0", "p = 3.0\nrestarts = 0")),
    "zero_max_iter": ("normest", NORMEST_CONFIG + "max_iter = 0\n"),
    "dyadic_zero_count": ("dyadic", _DYADIC_CONFIG.format(depth=5, count=0)),
    "dyadic_negative_depth": ("dyadic", _DYADIC_CONFIG.format(depth=-1, count=3)),
    # values that leave a check with nothing to check, or crash it
    "dyadic_grid_1x1": ("dyadic", _DYADIC_CONFIG.format(depth=5, count=3).replace("grid_n_log2 = 5", "grid_n_log2 = 0")),
    "dyadic_thm_4_2_no_scale_pair": ("dyadic", _THM_4_2_CONFIG.replace("0.125", "2.0")),
    "decompose_ratio_lip_zero": ("decompose", _RATIO_CONFIG + "ratio_lip = 0\n"),
    "decompose_ratio_lip_negative": ("decompose", _RATIO_CONFIG + "ratio_lip = -1\n"),
    "sweep_empty_eps_list": ("sweep", "[run]\ngrid_n_log2 = 4\n\n[sweep]\neps_list =\n"),
    # keys the run never reads: p picks the estimator, thm_4_1 has no beta
    "normest_p3_max_iter": ("normest", NORMEST_CONFIG.replace("p = 2.0", "p = 3.0\nmax_iter = 1")),
    "normest_p2_restarts": ("normest", NORMEST_CONFIG + "restarts = 1\n"),
    "dyadic_thm_4_1_beta": ("dyadic", _DYADIC_CONFIG.format(depth=5, count=3) + "beta = 7.5\n"),
    # the oracle is the brute force itself; the floor regime does not use L
    "apply_bruteforce_compare_oracle": ("apply", APPLY_CONFIG.format(method="bruteforce") + "compare_oracle = true\n"),
    "decompose_floor_ratio_lip": ("decompose", _RATIO_CONFIG + "ratio_variant = floor\nratio_lip = 1\n"),
    # keys the chosen kind never reads: lip_2d floors at lip**2, bump has no flat_radius
    "lip_2d_v_min": (
        "verify",
        "[run]\ngrid_n_log2 = 4\n\n[linearizer]\nkind = lip_2d\nlip_constant = 0.5\nv_min = 0.3\n",
    ),
    "bump_flat_radius": (
        "verify",
        "[run]\ngrid_n_log2 = 4\n\n[profile]\nkind = bump\nflat_radius = 0.9\n\n[linearizer]\nkind = constant\nvalue = 0.5\n",
    ),
    # values that fail to parse, and kinds and methods outside the package
    "grid_n_log2_not_an_int": ("verify", "[run]\ngrid_n_log2 = four\n"),
    "compare_oracle_maybe": ("apply", APPLY_CONFIG.format(method="bucketed") + "compare_oracle = maybe\n"),
    # parsed by the kind's type: as a float, 2.5 would reach the generator and round to band 2
    "linearizer_band_not_an_int": ("verify", "[run]\ngrid_n_log2 = 4\n\n[linearizer]\nkind = lip_x\nband = 2.5\n"),
    "unknown_profile_kind": ("verify", "[run]\ngrid_n_log2 = 4\n\n[profile]\nkind = gauss\n"),
    "unknown_apply_method": ("apply", APPLY_CONFIG.format(method="fft")),
    # a section no command reads, even with no keys to leave unread
    "empty_unknown_section": ("verify", "[run]\ngrid_n_log2 = 4\n\n[nonsense]\n"),
}
# every number in a config must be finite: (command, the key the error names, text)
_NON_FINITE = {
    f"{case}_beta_{label}": (command, f"{command}.beta", text.replace("beta = 1.0", f"beta = {value}"))
    for case, command, text in [
        ("apply", "apply", APPLY_CONFIG.format(method="bucketed")),
        ("normest", "normest", NORMEST_CONFIG + "beta = 1.0\n"),
        ("sweep", "sweep", _SWEEP_CONFIG + "beta = 1.0\n"),
        ("decompose", "decompose", _RATIO_CONFIG),
        ("dyadic_thm_4_2", "dyadic", _THM_4_2_CONFIG + "beta = 1.0\n"),
    ]
    for value, label in [("inf", "inf"), ("-inf", "minus_inf"), ("nan", "nan")]
}
_NON_FINITE.update(
    {
        "amplitude_inf": ("apply", "linearizer.amplitude", APPLY_CONFIG.format(method="bucketed").replace("amplitude = 0.5", "amplitude = inf")),
        "sweep_eps_list_inf": ("sweep", "sweep.eps_list", _SWEEP_CONFIG.replace("1.0, 0.5", "1.0, inf")),
        "dyadic_lip_constant_inf": ("dyadic", "dyadic.lip_constant", _DYADIC_CONFIG.format(depth=5, count=3).replace("0.125", "inf")),
        "plateau_infinite_support": (
            "verify",
            "profile.support_radius",
            "[run]\ngrid_n_log2 = 4\n\n[profile]\nkind = plateau\nflat_radius = 0.75\nsupport_radius = inf\n\n"
            "[linearizer]\nkind = constant\nvalue = 0.5\n",
        ),
    }
)
_BAD_CONFIGS.update({case: (command, text) for case, (command, _, text) in _NON_FINITE.items()})


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_bad_config_exits_config_error(tmp_path, capsys, case):
    command, text = _BAD_CONFIGS[case]
    cfg = _write(tmp_path, "bad.ini", text)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_number_is_rejected_where_the_config_is_parsed(tmp_path, capsys, case):
    # the command's take parses the value and checks it before anything is written
    command, key, text = _NON_FINITE[case]
    cfg = _write(tmp_path, "bad.ini", text)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert re.fullmatch(rf"config error: bad value for {key}: '[^']*' is not finite\n", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_boolean_spellings():
    for raw, value in [("1", True), ("yes", True), ("True", True), ("On", True)] + [("0", False), ("no", False), ("FALSE", False), ("off", False)]:
        assert cli._parse_bool(raw) is value
    with pytest.raises(ValueError, match="^not a boolean: 'maybe'$"):
        cli._parse_bool("maybe")


def test_decompose_rejects_ratio_lip_before_the_terms_run(tmp_path, monkeypatch):
    calls = []
    error_term = de.error_term

    def counted(*args):
        calls.append(1)
        return error_term(*args)

    monkeypatch.setattr(de, "error_term", counted)
    cfg = _write(tmp_path, "de.ini", _RATIO_CONFIG + "ratio_lip = 0\n")
    assert cli.main(["decompose", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert calls == []


def test_dyadic_thm_4_2_large_negative_beta_reaches_a_verdict(tmp_path, capsys):
    # |J|**beta = 2**(2000 b) overflows a float: the side condition and the
    # size product are taken without forming it
    cfg = _write(tmp_path, "d.ini", _THM_4_2_CONFIG + "beta = -2000\n")
    rc = cli.main(["dyadic", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc in (0, 1)
    assert "dyadic.selection_stability" in capsys.readouterr().out
    assert (tmp_path / "o" / "report.jsonl").stat().st_size > 0


# a finite beta where |xi| |eta|**beta overflows: at N = 16 from beta = 341 on
_OVERFLOWING_BETA = {
    "apply": APPLY_CONFIG.format(method="bucketed").replace("beta = 1.0", "beta = 400"),
    "normest": NORMEST_CONFIG.replace("grid_n_log2 = 3", "grid_n_log2 = 4") + "beta = 400\n",
    "sweep": _SWEEP_CONFIG.replace("grid_n_log2 = 3", "grid_n_log2 = 4") + "beta = 400\n",
}


@pytest.mark.parametrize("command", sorted(_OVERFLOWING_BETA))
def test_overflowing_beta_is_named_before_any_warning(tmp_path, capsys, command):
    cfg = _write(tmp_path, "b.ini", _OVERFLOWING_BETA[command])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: |xi| |eta|**beta overflows at beta = 400.0 on the N = 16 grid\n"
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "o").exists()


def test_config_error_from_the_computation_creates_no_directory(tmp_path):
    # the package rejects restarts = 0 after start(), and a 4 x 4 grid where
    # the run's context is built
    (tmp_path / "kept").mkdir()
    for case in ("zero_restarts", "grid_too_small"):
        command, text = _BAD_CONFIGS[case]
        cfg = _write(tmp_path, f"{case}.ini", text)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "new" / "deeper")]) == cli.EXIT_CONFIG
        assert not (tmp_path / "new").exists()
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "kept")]) == cli.EXIT_CONFIG
        assert (tmp_path / "kept").is_dir() and not any((tmp_path / "kept").iterdir())


@pytest.mark.parametrize("n_log2", [-1, 0, 2])
def test_grid_n_log2_below_3_names_the_key(tmp_path, capsys, n_log2):
    cfg = _write(tmp_path, "g.ini", f"[run]\ngrid_n_log2 = {n_log2}\n\n" + _VERIFY_BODY.format(eps=0.5, kind="constant"))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"bad value for run.grid_n_log2: grid must be at least 8x8 (n_log2 >= 3), got n_log2={n_log2}" in err


@pytest.mark.parametrize("seed, flag, name", [("-5", None, "run.seed"), ("7", "-3", "--seed"), ("-5", "3", "run.seed")])
def test_negative_seed_names_where_it_was_read(tmp_path, capsys, seed, flag, name):
    cfg = _write(tmp_path, "s.ini", APPLY_CONFIG.format(method="bucketed").replace("seed = 7", f"seed = {seed}"))
    argv = ["apply", "--config", cfg, "--out", str(tmp_path / "o")] + (["--seed", flag] if flag else [])
    assert cli.main(argv) == cli.EXIT_CONFIG
    value = flag if name == "--seed" else seed
    assert capsys.readouterr().err == f"config error: bad value for {name}: {value} is negative\n"
    assert not (tmp_path / "o").exists()


def test_section_not_used_by_command_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "x.ini", "[run]\ngrid_n_log2 = 4\n\n[sweep]\np = 2.0\n")
    rc = cli.main(["apply", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "sweep" in capsys.readouterr().err
