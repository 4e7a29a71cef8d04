"""Batch experiment runner: subcommands wiring config files to the package.

Config files are flat INI text with one section per concern; a section no
command reads is rejected when the file is parsed.  The file is read once:
its bytes are parsed and give the provenance's config hash.  Each command
reads its keys through :meth:`RunContext.take`, which parses a key's text as
the type of its default and checks it there, and :meth:`RunContext.start`
rejects every key it did not read (an unknown key, a section another command
uses, a key of another profile kind, ``[normest] max_iter`` with p != 2)
before anything is computed.  Every number in a config must be finite, and
nothing is written, not even the output directory, until the command has its
results.  Check thresholds are the acceptance battery's pinned tolerances,
not keys.
Artifacts (HXF1 fields, CSV tables, JSON-lines logs) carry the config hash,
seed and grid size.  There is no parallel mode: reruns with the same config
and seed are byte-identical.  Exit status: 0 when every check passes, 1 when
a numeric check fails, 2 for a config error (a malformed file, a section or
key the command does not read, a number that is not finite, or a value the
package rejects; nothing is written), 3 for an I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
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

# Check thresholds, pinned at the acceptance battery's values (criteria 1, 3,
# 4, 5, 6 and 8).
ORACLE_TOLERANCE = 1e-10
CALDERON_TOLERANCE = 1e-10
IDENTITY_TOLERANCE = 1e-8
OVERLAP_LIMIT = 10
RATIO_SAMPLES = 10_000
SHAPE_RATIO_LIMIT = 4.0


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[s.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {s!r}") from None


def _parse_float_list(s: str) -> list[float]:
    return [float(tok) for tok in s.replace(",", " ").split()]


def _parse(section: str, key: str, raw: str, typ: type):
    """The text of section.key as a typ: a bool by its INI spellings, a list
    as its floats, else typ(raw).  A float, or a list entry, must be finite."""
    try:
        value = {bool: _parse_bool, list: _parse_float_list}.get(typ, typ)(raw)
        if typ in (float, list) and not np.isfinite(value).all():
            raise ValueError(f"{raw!r} is not finite")
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
    return value


def load_config(text: str, path: str = "<string>") -> dict:
    """Parse config text into {section: {key: text}}; path names it in
    configparser's messages.  A section no command reads is rejected."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for section in parser.sections():
        if section not in {"run", "profile", "linearizer", *_COMMANDS}:
            raise ConfigError(f"unknown section [{section}]")
    return {section: dict(parser.items(section)) for section in parser.sections()}


class RunContext:
    """One command's parsed config and its report.  The command reads every
    key through :meth:`take` or :meth:`take_all` and calls :meth:`start`
    before it computes; with its results it writes to :meth:`path`."""

    def __init__(self, args, command: str):
        self.command = command
        data = Path(args.config).read_bytes()
        self.config = load_config(data.decode(), args.config)
        self._unread = {(section, key) for section, keys in self.config.items() for key in keys}
        self.out = Path(args.out)
        self.n_log2 = self.take("run", "grid_n_log2", 4)
        try:
            gr._check_n_log2(self.n_log2)
        except ValueError as exc:
            raise ConfigError(f"bad value for run.grid_n_log2: {exc}") from exc
        seed = self.take("run", "seed", 0)
        for name, value in (("run.seed", seed), ("--seed", args.seed)):
            if value is not None and value < 0:
                raise ConfigError(f"bad value for {name}: {value} is negative")
        self.seed = args.seed if args.seed is not None else seed
        self.provenance = {
            "config_sha256": hashlib.sha256(data).hexdigest()[:16],
            "seed": self.seed,
            "grid": 1 << self.n_log2,
        }
        self._log_records: list[dict] = []
        self.failures = 0

    def take(self, section: str, key: str, default):
        """The value of section.key parsed as the type of the default, or the
        default when the file omits it."""
        self._unread.discard((section, key))
        raw = self.config.get(section, {}).get(key)
        return default if raw is None else _parse(section, key, raw, type(default))

    def take_all(self, section: str) -> dict:
        """The text of every key of the section; the caller parses them."""
        values = dict(self.config.get(section, {}))
        self._unread -= {(section, key) for key in values}
        return values

    def start(self) -> None:
        """Reject the keys no take has read."""
        if self._unread:
            unread = ", ".join(f"{section}.{key}" for section, key in sorted(self._unread))
            raise ConfigError(f"command {self.command!r} does not read {unread}")

    def path(self, name: str) -> Path:
        """out / name, creating the output directory out if it is missing."""
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    def log(self, **record) -> None:
        self._log_records.append({**self.provenance, **record})

    def check(self, name: str, passed: bool, detail: str = "", **extra) -> None:
        status = "PASS" if passed else "FAIL"
        print(f"{status} {self.command}.{name}" + (f": {detail}" if detail else ""))
        self.log(check=name, passed=bool(passed), detail=detail, **extra)
        if not passed:
            self.failures += 1

    def flush(self) -> None:
        with open(self.path("report.jsonl"), "w") as fh:
            for rec in self._log_records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _build_profile(ctx: RunContext) -> mu.MultiplierProfile:
    kind = ctx.take("profile", "kind", "bump")
    if kind == "bump":
        return mu.make_bump_profile(ctx.take("profile", "epsilon", 1.0))
    if kind == "plateau":
        return mu.MultiplierProfile(ctx.take("profile", "flat_radius", 1.0), ctx.take("profile", "support_radius", 2.0))
    raise ConfigError(f"unknown profile kind {kind!r}")


def _linearizer_spec(ctx: RunContext) -> dict:
    """The [linearizer] section with kind = constant by default, each key
    the kind reads parsed by its type in lin._LINEARIZER_KEYS.  The
    generator holds the defaults of the parameters and rejects the keys,
    left as text, that the kind does not read."""
    params = ctx.take_all("linearizer")
    kind = params.pop("kind", "constant")
    types = lin._LINEARIZER_KEYS.get(kind, {})
    return {"kind": kind, **{key: _parse("linearizer", key, raw, types[key]) if key in types else raw for key, raw in params.items()}}


def _build_linearizer(ctx: RunContext) -> tuple[lin.LinearizerField, dict]:
    """The [linearizer] field and the parameters it was generated from."""
    params = _linearizer_spec(ctx)
    kind = params.pop("kind")
    return lin.generate_linearizer(kind, params, ctx.seed, ctx.n_log2), params


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    denom = math.sqrt(float(np.mean(np.abs(a) ** 2)))
    return math.sqrt(float(np.mean(np.abs(a - b) ** 2))) / denom


def cmd_apply(ctx: RunContext) -> None:
    beta = ctx.take("apply", "beta", 1.0)
    method = ctx.take("apply", "method", "bucketed")
    # the oracle is the brute force, so only the bucketed method is compared
    compare_oracle = ctx.take("apply", "compare_oracle", False) if method == "bucketed" else False
    apply = {"bruteforce": lin.apply_linearized_bruteforce, "bucketed": lin.apply_linearized_bucketed}.get(method)
    if apply is None:
        raise ConfigError(f"unknown apply method {method!r}")
    profile = _build_profile(ctx)
    V, params = _build_linearizer(ctx)
    ctx.start()
    f = gr.random_field(ctx.n_log2, ctx.seed + 1)
    out = apply(f, V, profile, beta)
    oracle = lin.apply_linearized_bruteforce(f, V, profile, beta) if compare_oracle else None
    gr.write_hxf1(ctx.path("input.hxf1"), ctx.n_log2, f.samples)
    gr.write_hxf1(ctx.path("output.hxf1"), ctx.n_log2, out.samples)
    lin.write_linearizer(str(ctx.path("linearizer")), V, params)
    ctx.log(artifact="output.hxf1", method=method, beta=beta)
    if compare_oracle:
        gr.write_hxf1(ctx.path("oracle.hxf1"), ctx.n_log2, oracle.samples)
        err = _rel_l2(oracle.samples, out.samples)
        ctx.check("oracle_equivalence", err <= ORACLE_TOLERANCE, f"rel l2 err {err:.3e}")


def cmd_dyadic(ctx: RunContext) -> None:
    variant = ctx.take("dyadic", "variant", "thm_4_1")
    L = ctx.take("dyadic", "lip_constant", 0.125)
    depth = ctx.take("dyadic", "depth", 6)
    count = ctx.take("dyadic", "count", 5)
    # only thm_4_2 weighs |J| by beta; thm_4_1 compares the plain |I| |J|
    beta = 1.0 if variant == "thm_4_1" else ctx.take("dyadic", "beta", 1.0)
    if count < 1:
        raise ConfigError(f"[dyadic] needs count >= 1, got {count}")
    ctx.start()
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


def cmd_decompose(ctx: RunContext) -> None:
    beta = ctx.take("decompose", "beta", 1.0)
    variant = ctx.take("decompose", "ratio_variant", "lip")
    # the floor regime s <= 4t does not use L
    L = 1.0 if variant == "floor" else ctx.take("decompose", "ratio_lip", 1.0)
    profile = _build_profile(ctx)
    V, _ = _build_linearizer(ctx)
    ctx.start()
    family = de.make_lp_family(beta, ctx.n_log2)
    # run first, so a value it rejects is a config error before the terms run;
    # its check is reported last
    rep = de.lipschitz_ratio_check(V, family, beta, L, variant, RATIO_SAMPLES, ctx.seed)

    # each odd row, then each odd column, the negated even one before it: the
    # spectrum is exactly zero on the lines xi = 0 and eta = 0
    samples = gr.random_field(ctx.n_log2, ctx.seed + 2).samples.copy()
    samples[1::2] = -samples[0::2]
    samples[:, 1::2] = -samples[:, 0::2]
    f = gr.SampledField(ctx.n_log2, samples)

    residual = de.calderon_residual(f, family)
    ctx.check("calderon_residual", residual <= CALDERON_TOLERANCE, f"{residual:.3e}", beta=beta, epsilon=profile.epsilon, tolerance=CALDERON_TOLERANCE)

    T = de.lemma_operator(f, V, profile, beta)
    S = de.principal_term(f, V, family, profile)
    E = de.error_term(f, V, family, profile)
    err = _rel_l2(f.samples, f.samples - (T.samples - S.samples - E.samples))
    ctx.check("decomposition_identity", err <= IDENTITY_TOLERANCE, f"rel err {err:.3e}", beta=beta, epsilon=profile.epsilon, tolerance=IDENTITY_TOLERANCE)

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
    ctx.check("overlap_count", count <= OVERLAP_LIMIT, f"count {count}")

    ctx.check(
        "lipschitz_ratio",
        rep.samples_checked > 0 and rep.violations == 0,  # a check of no triple passes nothing
        f"{rep.samples_checked} checked, worst {rep.worst_ratio:.4f}",
        beta=beta,
        witness=[list(w) for w in rep.witnesses[:2]],
    )


def cmd_normest(ctx: RunContext) -> None:
    p = ctx.take("normest", "p", 2.0)
    beta = ctx.take("normest", "beta", 1.0)
    # p picks the estimator: Lanczos on T*T at p = 2, the Lp ascent otherwise
    if p == 2.0:
        estimate = functools.partial(ne.l2_norm_power_iteration, max_iter=ctx.take("normest", "max_iter", 200), seed=ctx.seed)
    else:
        estimate = functools.partial(ne.lp_norm_ascent, p=p, restarts=ctx.take("normest", "restarts", 25), seed=ctx.seed)
    profile = _build_profile(ctx)
    V, _ = _build_linearizer(ctx)
    ctx.start()
    a_const = mu.smoothness_constant(profile)  # first: it rejects a radius ratio below the float range
    op = ne.linearized_operator(V, profile, beta)
    est = estimate(op)
    rederived = gr.lp_norm(op.apply(est.witness), p) / gr.lp_norm(est.witness, p)
    consistent = abs(rederived - est.value) <= 1e-12 * abs(est.value)
    gr.write_hxf1(ctx.path("witness.hxf1"), ctx.n_log2, est.witness.samples)
    row = ne.SweepRow(p, beta, profile.epsilon, 1 << ctx.n_log2, ctx.seed, a_const, est.value, est.iterations, est.converged)
    ne.write_sweep_csv(ctx.path("estimate.csv"), ne.SweepResult((row,)))
    ctx.log(estimate=est.value, iterations=est.iterations, converged=est.converged, residual=est.residual, p=p)
    ctx.check("witness_consistency", consistent, f"estimate {est.value:.6f}, re-derived {rederived:.6f}")


def cmd_sweep(ctx: RunContext) -> None:
    p = ctx.take("sweep", "p", 2.0)
    beta = ctx.take("sweep", "beta", 1.0)
    eps_list = ctx.take("sweep", "eps_list", [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625])
    v_spec = _linearizer_spec(ctx)
    ctx.start()
    result = ne.epsilon_sweep(p, beta, v_spec, eps_list, ctx.n_log2, ctx.seed)
    ne.write_sweep_csv(ctx.path("sweep.csv"), result)
    for row in result.rows:
        ctx.log(epsilon=row.epsilon, estimate=row.estimate, smoothness=row.smoothness)
    ratio = result.log_shape_ratio()
    ctx.check("log_shape_ratio", ratio <= SHAPE_RATIO_LIMIT, f"ratio {ratio:.3f} (limit {SHAPE_RATIO_LIMIT})")


def cmd_verify(ctx: RunContext) -> None:
    profile = _build_profile(ctx)
    V, _ = _build_linearizer(ctx)
    ctx.start()
    f = gr.random_field(ctx.n_log2, ctx.seed + 3)

    rt = gr.inverse_transform(gr.forward_transform(f))
    ctx.check("transform_roundtrip", _rel_l2(f.samples, rt.samples) <= 1e-12)

    const = gr.SampledField(ctx.n_log2, np.ones((f.n, f.n)))
    ctx.check("constant_lp_norm", abs(gr.lp_norm(const, 2.0) - 1.0) <= 1e-12)

    err = _rel_l2(
        lin.apply_linearized_bruteforce(f, V, profile, 1.0).samples,
        lin.apply_linearized_bucketed(f, V, profile, 1.0).samples,
    )
    ctx.check("bucketed_oracle", err <= ORACLE_TOLERANCE, f"rel err {err:.3e}")

    rep = lin.verify_lipschitz(V, V.regularity)
    ctx.check("linearizer_regularity", rep.passed, f"worst ratio {rep.worst_ratio:.3f}")

    v, low = V.values, lin.dyadic_floor(V.values)
    in_level = np.where(v > 0, (low <= v) & (v < 2.0 * low), low == 0.0)
    ctx.check("level_set_partition", bool(np.all(in_level)))


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
        ctx.flush()
    except ValueError as exc:  # ConfigError, or a config value rejected by the package
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if ctx.failures == 0 else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
