"""Batch experiment runner: subcommands wiring config files to the package.

Config files are flat INI text with one section per concern; unknown sections
or keys are rejected before any computation starts.  Artifacts (HXF1 fields,
CSV tables, JSON-lines logs) carry the config hash, seed and grid size.  There
is no parallel mode: reruns with the same config and seed are byte-identical.
Exit status: 0 when every check passes, 1 when a numeric check fails, 2 for a
config error (a malformed file, an unknown section or key, a key the chosen
linearizer or profile kind does not read, or a value the package rejects), 3
for an I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import decomposition as de
from . import dyadic as dy
from . import grid as gr
from . import linearized as lin
from . import multiplier as mu
from . import normest as ne

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s: str) -> list[float]:
    return [float(tok) for tok in s.replace(",", " ").split()]


_SCHEMA = {
    "run": {"grid_n_log2": int, "seed": int},
    "profile": {"kind": str, "epsilon": float, "flat_radius": float, "support_radius": float},
    "linearizer": {
        "kind": str,
        "lip_constant": float,
        "v_min": float,
        "amplitude": float,
        "floor": float,
        "value": float,
        "levels": int,
        "band": int,
    },
    "apply": {"beta": float, "method": str, "compare_oracle": _parse_bool, "quantize": str, "tolerance": float},
    "dyadic": {"variant": str, "lip_constant": float, "depth": int, "count": int, "beta": float},
    "decompose": {
        "beta": float,
        "identity_tolerance": float,
        "calderon_tolerance": float,
        "ratio_variant": str,
        "ratio_samples": int,
        "ratio_lip": float,
        "overlap_limit": int,
    },
    "normest": {"p": float, "beta": float, "method": str, "restarts": int, "max_iter": int},
    "sweep": {"p": float, "beta": float, "eps_list": _parse_float_list, "shape_ratio_limit": float},
    "verify": {},
}

_COMMAND_SECTIONS = {
    "apply": {"run", "profile", "linearizer", "apply"},
    "dyadic": {"run", "dyadic"},
    "decompose": {"run", "profile", "linearizer", "decompose"},
    "normest": {"run", "profile", "linearizer", "normest"},
    "sweep": {"run", "linearizer", "sweep"},
    "verify": {"run", "profile", "linearizer", "verify"},
}


def load_config(path: str, command: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not read:
        raise OSError(f"cannot read config {path}")
    allowed = _COMMAND_SECTIONS[command]
    config: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        if section not in allowed:
            raise ConfigError(f"section [{section}] not used by command {command!r}")
        config[section] = {}
        for key, raw in parser.items(section):
            known = _SCHEMA[section]
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                config[section][key] = known[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
    return config


def _config_hash(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


class RunContext:
    def __init__(self, args, command: str):
        self.command = command
        self.config = load_config(args.config, command)
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        run = self.config.get("run", {})
        self.n_log2 = run.get("grid_n_log2", 4)
        self.seed = args.seed if args.seed is not None else run.get("seed", 0)
        self.provenance = {
            "config_sha256": _config_hash(args.config),
            "seed": self.seed,
            "grid": 1 << self.n_log2,
        }
        self._log_records: list[dict] = []
        self.failures = 0

    def log(self, **record) -> None:
        self._log_records.append({**self.provenance, **record})

    def check(self, name: str, passed: bool, detail: str = "", **extra) -> None:
        status = "PASS" if passed else "FAIL"
        print(f"{status} {self.command}.{name}" + (f": {detail}" if detail else ""))
        self.log(check=name, passed=bool(passed), detail=detail, **extra)
        if not passed:
            self.failures += 1

    def flush(self, name: str = "report.jsonl") -> None:
        with open(self.out / name, "w") as fh:
            for rec in self._log_records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# the [profile] keys each profile kind reads, besides kind
_PROFILE_KEYS = {"bump": {"epsilon"}, "plateau": {"flat_radius", "support_radius"}}


def _build_profile(cfg: dict) -> mu.MultiplierProfile:
    section = dict(cfg.get("profile", {}))
    kind = section.pop("kind", "bump")
    if kind not in _PROFILE_KEYS:
        raise ConfigError(f"unknown profile kind {kind!r}")
    unread = sorted(set(section) - _PROFILE_KEYS[kind])
    if unread:
        raise ConfigError(f"profile kind {kind!r} does not read {unread}")
    if kind == "bump":
        return mu.make_bump_profile(section.get("epsilon", 1.0))
    return mu.make_plateau_profile(section.get("flat_radius", 1.0), section.get("support_radius", 2.0))


def _build_linearizer(cfg: dict, seed: int, n_log2: int) -> lin.LinearizerField:
    section = dict(cfg.get("linearizer", {}))
    kind = section.pop("kind", "constant")
    if kind == "constant" and "value" not in section:
        section["value"] = 1.0
    return lin.generate_linearizer(kind, section, seed, n_log2)


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    denom = math.sqrt(float(np.mean(np.abs(a) ** 2)))
    if denom == 0.0:
        return 0.0
    return math.sqrt(float(np.mean(np.abs(a - b) ** 2))) / denom


def cmd_apply(ctx: RunContext) -> None:
    section = ctx.config.get("apply", {})
    beta = section.get("beta", 1.0)
    method = section.get("method", "bucketed")
    quantize = section.get("quantize", "exact")
    tolerance = section.get("tolerance", 1e-10)
    profile = _build_profile(ctx.config)
    V = _build_linearizer(ctx.config, ctx.seed, ctx.n_log2)
    f = gr.random_field(ctx.n_log2, ctx.seed + 1)
    if method == "bruteforce":
        out = lin.apply_linearized_bruteforce(f, V, profile, beta)
    elif method == "bucketed":
        out = lin.apply_linearized_bucketed(f, V, profile, beta, quantize=quantize)
    else:
        raise ConfigError(f"unknown apply method {method!r}")
    gr.write_hxf1(ctx.out / "input.hxf1", ctx.n_log2, f.samples)
    gr.write_hxf1(ctx.out / "output.hxf1", ctx.n_log2, out.samples)
    lin.write_linearizer(str(ctx.out / "linearizer"), V)
    ctx.log(artifact="output.hxf1", method=method, beta=beta)
    if section.get("compare_oracle", False):
        oracle = lin.apply_linearized_bruteforce(f, V, profile, beta)
        gr.write_hxf1(ctx.out / "oracle.hxf1", ctx.n_log2, oracle.samples)
        err = _rel_l2(oracle.samples, out.samples)
        ctx.check("oracle_equivalence", err <= tolerance, f"rel l2 err {err:.3e}")
    ctx.flush()


def cmd_dyadic(ctx: RunContext) -> None:
    section = ctx.config.get("dyadic", {})
    variant = section.get("variant", "thm_4_1")
    L = section.get("lip_constant", 0.125)
    depth = section.get("depth", 6)
    count = section.get("count", 5)
    beta = section.get("beta", 1.0)
    if count < 1 or depth < 0:
        raise ConfigError(f"[dyadic] needs count >= 1 and depth >= 0, got count = {count}, depth = {depth}")
    total_viol = 0
    for i in range(count):
        if variant == "thm_4_1":
            V = dy.generate_dyadic_metric_2d(L, ctx.n_log2, ctx.seed + i)
        else:
            V = dy.generate_dyadic_metric_x(L, ctx.n_log2, ctx.seed + i)
        rep = dy.check_selection_stability(V, L, beta, variant, depth=depth)
        total_viol += rep.violations
        ctx.log(**rep.record(), case=i)
    ctx.check("selection_stability", total_viol == 0, f"{total_viol} violations over {count} fields")
    ctx.flush()


def cmd_decompose(ctx: RunContext) -> None:
    section = ctx.config.get("decompose", {})
    beta = section.get("beta", 1.0)
    id_tol = section.get("identity_tolerance", 1e-8)
    cal_tol = section.get("calderon_tolerance", 1e-10)
    overlap_limit = section.get("overlap_limit", 10)
    profile = _build_profile(ctx.config)
    family = de.make_lp_family(beta, ctx.n_log2)
    V = _build_linearizer(ctx.config, ctx.seed, ctx.n_log2)

    f = gr.random_field(ctx.n_log2, ctx.seed + 2)
    spec = gr.forward_transform(f)
    coeffs = spec.coeffs.copy()
    coeffs[0, :] = 0
    coeffs[:, 0] = 0
    f = gr.inverse_transform(gr.SpectralField(ctx.n_log2, coeffs))

    residual = de.calderon_residual(f, family)
    ctx.check("calderon_residual", residual <= cal_tol, f"{residual:.3e}", beta=beta, epsilon=profile.epsilon, tolerance=cal_tol)

    T = de.lemma_operator(f, V, profile, beta)
    S = de.principal_term(f, V, family, profile)
    E = de.error_term(f, V, family, profile)
    err = _rel_l2(f.samples, f.samples - (T.samples - S.samples - E.samples))
    ctx.check("decomposition_identity", err <= id_tol, f"rel err {err:.3e}", beta=beta, epsilon=profile.epsilon, tolerance=id_tol)

    hyper = de._hyper_args(family)
    support_ok = True
    j_range = de.representable_j_range(family, profile)
    for j in j_range:
        sym = de.large_variation_symbol(j, family, profile).values
        outside = (hyper < 2.0 ** (-j - 5)) | (hyper > 2.0 ** (-j + 4))
        if sym[outside].size and np.abs(sym[outside]).max() != 0.0:
            support_ok = False
    ctx.check("error_symbol_support", support_ok)
    count = de.overlap_count(family, profile, j_range)
    ctx.check("overlap_count", count <= overlap_limit, f"count {count}")

    variant = section.get("ratio_variant", "lip")
    L = section.get("ratio_lip", 1.0)
    rep = de.lipschitz_ratio_check(
        V, family, beta, L, variant, section.get("ratio_samples", 10_000), ctx.seed
    )
    ctx.check(
        "lipschitz_ratio",
        rep.violations == 0,
        f"{rep.samples_checked} checked, worst {rep.worst_ratio:.4f}",
        beta=beta,
        witness=[list(w) for w in rep.witnesses[:2]],
    )
    ctx.flush()


def cmd_normest(ctx: RunContext) -> None:
    section = ctx.config.get("normest", {})
    p = section.get("p", 2.0)
    beta = section.get("beta", 1.0)
    method = section.get("method", "power" if p == 2.0 else "ascent")
    profile = _build_profile(ctx.config)
    V = _build_linearizer(ctx.config, ctx.seed, ctx.n_log2)
    op = ne.linearized_operator(V, profile, beta)
    if method == "power":
        if p != 2.0:
            raise ConfigError("power iteration requires p = 2")
        est = ne.l2_norm_power_iteration(op, max_iter=section.get("max_iter", 200), seed=ctx.seed)
    elif method == "ascent":
        est = ne.lp_norm_ascent(op, p, restarts=section.get("restarts", 25), seed=ctx.seed)
    else:
        raise ConfigError(f"unknown normest method {method!r}")
    gr.write_hxf1(ctx.out / "witness.hxf1", ctx.n_log2, est.witness.samples)
    a_const = mu.smoothness_constant(profile)
    row = ne.SweepRow(p, beta, profile.epsilon or 0.0, 1 << ctx.n_log2, ctx.seed, a_const, est.value, est.iterations, est.converged)
    ne.write_sweep_csv(ctx.out / "estimate.csv", ne.SweepResult((row,), 0.0))
    ctx.log(estimate=est.value, iterations=est.iterations, converged=est.converged, p=p)
    rederived = gr.lp_norm(op.apply(est.witness), p) / gr.lp_norm(est.witness, p)
    consistent = abs(rederived - est.value) <= 1e-12 * abs(est.value)
    ctx.check("witness_consistency", consistent, f"estimate {est.value:.6f}, re-derived {rederived:.6f}")
    ctx.flush()


def cmd_sweep(ctx: RunContext) -> None:
    section = ctx.config.get("sweep", {})
    p = section.get("p", 2.0)
    beta = section.get("beta", 1.0)
    eps_list = section.get("eps_list", [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625])
    limit = section.get("shape_ratio_limit", 4.0)
    v_spec = dict(ctx.config.get("linearizer", {}))
    v_spec.setdefault("kind", "staircase_x")
    result = ne.epsilon_sweep(p, beta, v_spec, eps_list, ctx.n_log2, ctx.seed)
    ne.write_sweep_csv(ctx.out / "sweep.csv", result)
    for row in result.rows:
        ctx.log(epsilon=row.epsilon, estimate=row.estimate, smoothness=row.smoothness)
    ratio = result.log_shape_ratio()
    ctx.check("log_shape_ratio", ratio <= limit, f"ratio {ratio:.3f} (limit {limit})")
    ctx.flush()


def cmd_verify(ctx: RunContext) -> None:
    profile = _build_profile(ctx.config)
    V = _build_linearizer(ctx.config, ctx.seed, ctx.n_log2)
    f = gr.random_field(ctx.n_log2, ctx.seed + 3)

    rt = gr.inverse_transform(gr.forward_transform(f))
    ctx.check("transform_roundtrip", _rel_l2(f.samples, rt.samples) <= 1e-12)

    const = gr.SampledField(ctx.n_log2, np.ones((f.n, f.n)))
    ctx.check("constant_lp_norm", abs(gr.lp_norm(const, 2.0) - 1.0) <= 1e-12)

    err = _rel_l2(
        lin.apply_linearized_bruteforce(f, V, profile, 1.0).samples,
        lin.apply_linearized_bucketed(f, V, profile, 1.0).samples,
    )
    ctx.check("bucketed_oracle", err <= 1e-10, f"rel err {err:.3e}")

    rep = lin.verify_lipschitz(V, V.regularity)
    ctx.check("linearizer_regularity", rep.passed, f"worst ratio {rep.worst_ratio:.3f}")

    buckets = lin.level_sets(V)
    relabelled = buckets.distinct_values[buckets.labels]
    ctx.check("level_set_partition", bool(np.array_equal(relabelled, lin.dyadic_floor(V.values))))
    ctx.flush()


_COMMANDS = {
    "apply": cmd_apply,
    "dyadic": cmd_dyadic,
    "decompose": cmd_decompose,
    "normest": cmd_normest,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hypercross", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="INI config path")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override [run] seed")
        sp.add_argument("--reproducible", action="store_true", help="accepted for compatibility; every run is byte-stable")
    args = parser.parse_args(argv)
    try:
        ctx = RunContext(args, args.command)
        _COMMANDS[args.command](ctx)
    except ValueError as exc:  # ConfigError, or a config value rejected by the package
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if ctx.failures == 0 else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
