import dataclasses
import filecmp
import json

import pytest

from hypercross import cli
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
compare_oracle = {compare}
"""


def test_apply_bucketed_matches_oracle(tmp_path, capsys):
    cfg = _write(tmp_path, "a.ini", APPLY_CONFIG.format(method="bucketed", compare="true"))
    rc = cli.main(["apply", "--config", cfg, "--out", str(tmp_path / "out"), "--reproducible"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS apply.oracle_equivalence" in out
    assert (tmp_path / "out" / "output.hxf1").exists()
    assert (tmp_path / "out" / "oracle.hxf1").exists()
    records = [json.loads(line) for line in (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
    assert all("config_sha256" in r and "seed" in r and "grid" in r for r in records)


def test_apply_bruteforce_reruns_byte_identical(tmp_path):
    cfg = _write(tmp_path, "a.ini", APPLY_CONFIG.format(method="bruteforce", compare="false"))
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


_VERIFY_BODY = "[profile]\nkind = bump\nepsilon = {eps}\n\n[linearizer]\nkind = {kind}\nvalue = 0.5\n"
_BAD_CONFIGS = {
    "no_section_header": ("verify", "grid_n_log2 = 4\n"),
    "duplicate_option": ("verify", "[run]\ngrid_n_log2 = 4\ngrid_n_log2 = 5\n"),
    "duplicate_section": ("verify", "[run]\ngrid_n_log2 = 4\n\n[run]\nseed = 1\n"),
    "epsilon_not_dyadic": ("verify", "[run]\ngrid_n_log2 = 4\n\n" + _VERIFY_BODY.format(eps=0.3, kind="constant")),
    "unknown_linearizer_kind": ("verify", "[run]\ngrid_n_log2 = 4\n\n" + _VERIFY_BODY.format(eps=0.5, kind="lipx")),
    "grid_too_small": ("verify", "[run]\ngrid_n_log2 = 2\n\n" + _VERIFY_BODY.format(eps=0.5, kind="constant")),
    "zero_restarts": ("normest", NORMEST_CONFIG.replace("p = 2.0", "p = 3.0\nrestarts = 0")),
    "zero_max_iter": ("normest", NORMEST_CONFIG + "max_iter = 0\n"),
    "dyadic_zero_count": ("dyadic", _DYADIC_CONFIG.format(depth=5, count=0)),
    "dyadic_negative_depth": ("dyadic", _DYADIC_CONFIG.format(depth=-1, count=3)),
    "sweep_empty_eps_list": ("sweep", "[run]\ngrid_n_log2 = 4\n\n[sweep]\neps_list =\n"),
    # keys the run never reads: p picks the estimator, thm_4_1 has no beta
    "normest_p3_max_iter": ("normest", NORMEST_CONFIG.replace("p = 2.0", "p = 3.0\nmax_iter = 1")),
    "normest_p2_restarts": ("normest", NORMEST_CONFIG + "restarts = 1\n"),
    "dyadic_thm_4_1_beta": ("dyadic", _DYADIC_CONFIG.format(depth=5, count=3) + "beta = 7.5\n"),
    # keys the chosen kind never reads: lip_2d floors at lip**2, bump has no flat_radius
    "lip_2d_v_min": (
        "verify",
        "[run]\ngrid_n_log2 = 4\n\n[linearizer]\nkind = lip_2d\nlip_constant = 0.5\nv_min = 0.3\n",
    ),
    "bump_flat_radius": (
        "verify",
        "[run]\ngrid_n_log2 = 4\n\n[profile]\nkind = bump\nflat_radius = 0.9\n\n[linearizer]\nkind = constant\nvalue = 0.5\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_bad_config_exits_config_error(tmp_path, capsys, case):
    command, text = _BAD_CONFIGS[case]
    cfg = _write(tmp_path, "bad.ini", text)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_error_after_start_removes_only_the_directories_it_created(tmp_path):
    # restarts = 0 is rejected by the estimator, after start() made --out
    cfg = _write(tmp_path, "bad.ini", _BAD_CONFIGS["zero_restarts"][1])
    rc = cli.main(["normest", "--config", cfg, "--out", str(tmp_path / "new" / "deeper")])
    assert rc == cli.EXIT_CONFIG
    assert not (tmp_path / "new").exists()
    (tmp_path / "kept").mkdir()
    rc = cli.main(["normest", "--config", cfg, "--out", str(tmp_path / "kept")])
    assert rc == cli.EXIT_CONFIG
    assert (tmp_path / "kept").is_dir()


def test_section_not_used_by_command_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "x.ini", "[run]\ngrid_n_log2 = 4\n\n[sweep]\np = 2.0\n")
    rc = cli.main(["apply", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "sweep" in capsys.readouterr().err
