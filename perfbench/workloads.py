"""The three benchmark workloads.

Each workload draws every input of a case from the run seed and the case
index, runs the case's timed steps in ``run``, and checks the outputs against
independent oracles in ``check``, outside the timed region.  ``counters``
gives per-case counts for the traced run, also computed outside the timed
region.  Step spans name the layer each call goes into.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

from hypercross import cli
from hypercross import decomposition as de
from hypercross import dyadic as dy
from hypercross import grid as gr
from hypercross import linearized as lin
from hypercross import multiplier as mu
from hypercross import normest as ne

# Criterion-1 field classes: continuous scale fields, so every V is distinct.
APPLY_KINDS = (
    ("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}),
    ("lip_2d", {"lip_constant": 0.5}),
)
# Criterion-7 field class.
NORMEST_PARAMS = {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}
# Iteration limits of the norm estimates, sized so that a case costs about
# 1 s and a run holds about thirty cases.  Power iteration does not meet its
# tolerance within this limit on the kept V draws, so every case runs all of
# it.
POWER_ITERS = 25
ASCENT_ITERS = 6


def _draw(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def rel_l2(ref: np.ndarray, got: np.ndarray) -> float:
    denom = math.sqrt(float(np.sum(np.abs(ref) ** 2)))
    diff = math.sqrt(float(np.sum(np.abs(ref - got) ** 2)))
    return diff / denom if denom else diff


def masked_h(n_log2: int, beta: float) -> np.ndarray:
    """h = |xi| |eta|**beta at the frequencies the Pi_beta mask keeps."""
    freqs = gr.frequencies(n_log2)
    hyper = np.abs(freqs).astype(np.float64)[:, None] * mu._abs_power(freqs, beta)[None, :]
    return hyper[mu.pi_beta_mask(beta, n_log2).values > 0]


def mean_zero_field(n_log2: int, seed: int) -> gr.SampledField:
    """Random complex field with the xi = 0 and eta = 0 frequency lines
    removed, the class the decomposition identity holds on (criterion 4)."""
    f = gr.random_field(n_log2, seed)
    coeffs = gr.forward_transform(f).coeffs.copy()
    coeffs[0, :] = 0
    coeffs[:, 0] = 0
    return gr.inverse_transform(gr.SpectralField(n_log2, coeffs))


class Workload:
    """A workload's tracer, scratch directory and case cap (None: no cap).
    Case inputs cycle with period ``round_cases``; a run measures whole
    cycles, so every run times the same mix."""

    max_cases = None
    round_cases = 1

    def __init__(self, tracer, workdir: str) -> None:
        self.tracer = tracer
        self.workdir = workdir


class ApplyCold(Workload):
    """N = 32, a fresh continuous V per case: the per-distinct-V gather runs
    once for each distinct value among the 1024 grid points, in all five
    places it is written."""

    name = "apply-cold"
    n_log2 = 5
    betas = (1.0, 0.0, -1.0)
    # Two field kinds times three betas.
    round_cases = 6
    # Each case's O(N^4) oracle check is untimed (about 0.15 s); the cap
    # keeps a run inside the time limit when the timed steps become cheap.
    max_cases = 120

    def setup(self, seed: int) -> None:
        self.m = mu.make_bump_profile(0.5)
        self.families = {beta: de.make_lp_family(beta, self.n_log2) for beta in self.betas}
        self.make_case(seed, 0)
        small = lin.generate_linearizer(*APPLY_KINDS[0], 0, 3)
        lin.apply_linearized_bucketed(gr.random_field(3, 0), small, self.m, 1.0)

    def make_case(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        kind, params = APPLY_KINDS[index % len(APPLY_KINDS)]
        return {
            "beta": self.betas[index % len(self.betas)],
            "V": lin.generate_linearizer(kind, params, _draw(rng), self.n_log2),
            "f": mean_zero_field(self.n_log2, _draw(rng)),
            "g": gr.random_field(self.n_log2, _draw(rng)),
        }

    def run(self, case: dict) -> dict:
        span = self.tracer.span
        f, g, V, beta, m = case["f"], case["g"], case["V"], case["beta"], self.m
        family = self.families[beta]
        with span("linearized.apply"):
            applied = lin.apply_linearized_bucketed(f, V, m, beta)
        with span("linearized.adjoint"):
            adjoint = ne.linearized_operator(V, m, beta).adjoint(g)
        with span("decomposition.lemma"):
            lemma = de.lemma_operator(f, V, m, beta)
        with span("decomposition.principal"):
            principal = de.principal_term(f, V, family, m)
        with span("decomposition.error"):
            error = de.error_term(f, V, family, m)
        return {"apply": applied, "adjoint": adjoint, "lemma": lemma, "principal": principal, "error": error}

    def check(self, case: dict, out: dict) -> list[str]:
        f, g = case["f"].samples, case["g"].samples
        failures = []
        with self.tracer.span("linearized.oracle"):
            brute = lin.apply_linearized_bruteforce(case["f"], case["V"], self.m, case["beta"])
        err = rel_l2(brute.samples, out["apply"].samples)
        if not err <= 1e-10:
            failures.append(f"apply vs brute force: rel l2 {err:.3e} > 1e-10")
        tf, tg = out["apply"].samples, out["adjoint"].samples
        lhs = np.vdot(g, tf)
        rhs = np.vdot(tg, f)
        scale = max(np.linalg.norm(tf) * np.linalg.norm(g), np.linalg.norm(f) * np.linalg.norm(tg))
        gap = abs(lhs - rhs) / scale if scale else abs(lhs - rhs)
        if not gap <= 1e-10:
            failures.append(f"adjoint identity: rel gap {gap:.3e} > 1e-10")
        rest = out["lemma"].samples - out["principal"].samples - out["error"].samples
        resid = math.sqrt(float(np.sum(np.abs(rest) ** 2))) / math.sqrt(float(np.sum(np.abs(f) ** 2)))
        if not resid <= 1e-8:
            failures.append(f"T - S - E: rel residual {resid:.3e} > 1e-8")
        return failures

    def counters(self, case: dict, out: dict) -> dict:
        V = case["V"]
        return {
            "linearized.v_buckets": np.unique(V.values).size,
            "linearized.h_buckets": np.unique(masked_h(self.n_log2, case["beta"])).size,
            "decomposition.vtilde_classes": np.unique(lin.dyadic_round_up(V.values)).size,
        }


class NormestHot(Workload):
    """N = 8, one operator handle per case and four norm estimates on it:
    about 250 applies of the same operator."""

    name = "normest-hot"
    n_log2 = 3
    beta = 1.0

    def setup(self, seed: int) -> None:
        self.m = mu.make_bump_profile(1.0)
        self.h_max = float(masked_h(self.n_log2, self.beta).max())
        first = self.make_case(seed, 0)
        ne.linearized_operator(first["V"], self.m, self.beta).apply(gr.random_field(self.n_log2, 0))

    def make_case(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        # Keep only fields whose symbol argument V h reaches a quarter of the
        # way into the bump's transition band (eps, 2 eps).  Below that the
        # operator is the bare Pi_beta projection up to ~1e-6 and power
        # iteration stops after 3 steps: the regime is trivial, not hot.
        while True:
            V = lin.generate_linearizer("lip_x", NORMEST_PARAMS, _draw(rng), self.n_log2)
            if V.values.max() * self.h_max >= 1.25 * self.m.epsilon:
                return {"V": V, "seed": _draw(rng)}

    def run(self, case: dict) -> dict:
        span = self.tracer.span
        seed = case["seed"]
        op = self.tracer.handle(ne.linearized_operator(case["V"], self.m, self.beta))
        with span("normest.power"):
            power = ne.l2_norm_power_iteration(op, max_iter=POWER_ITERS, seed=seed)
        with span("normest.ascent"):
            ascent2 = ne.lp_norm_ascent(op, 2.0, restarts=1, iters=ASCENT_ITERS, seed=seed)
        with span("normest.ascent"):
            ascent3 = ne.lp_norm_ascent(op, 3.0, restarts=1, iters=ASCENT_ITERS, seed=seed)
        with span("normest.dense"):
            dense = ne.dense_operator_norm(op)
        return {"estimates": (power, ascent2, ascent3), "dense": dense}

    def check(self, case: dict, out: dict) -> list[str]:
        op = ne.linearized_operator(case["V"], self.m, self.beta)
        failures = []
        for est in out["estimates"]:
            rederived = gr.lp_norm(op.apply(est.witness), est.p) / gr.lp_norm(est.witness, est.p)
            if not abs(rederived - est.value) <= 1e-12 * max(abs(est.value), 1e-300):
                failures.append(f"p={est.p} estimate {est.value!r} does not re-derive from its witness ({rederived!r})")
            if est.p == 2.0 and not est.value <= out["dense"] + 1e-8:
                failures.append(f"L2 estimate {est.value!r} exceeds the dense SVD oracle {out['dense']!r} + 1e-8")
        return failures

    def counters(self, case: dict, out: dict) -> dict:
        ests = out["estimates"]
        best = max(e.value for e in ests if e.p == 2.0)
        gap = abs(out["dense"] - best) / out["dense"]
        return {
            "normest.iterations": sum(e.iterations for e in ests),
            "normest.converged_ratio": sum(e.converged for e in ests) / len(ests),
            "normest.certified_digits": -math.log10(max(gap, 1e-16)),
        }


def model_reference(f: gr.SampledField, V: lin.LinearizerField, depth: int) -> np.ndarray:
    """The thm_4_1 model operator rebuilt from ``haar_inverse``: |I||J| <= V
    means a + b >= -log2 V for dyadic V, so each point sums the syntheses of
    the tensor details of total level a + b at or above its own level."""
    h = dy.haar_transform(f, depth)
    level = -np.log2(V.values)
    out = np.zeros((f.n, f.n), dtype=np.complex128)
    for total in range(2 * depth + 1):
        part = {ab: c for ab, c in h.coeffs.items() if sum(ab) == total}
        synthesized = dy.haar_inverse(dy.HaarCoefficients(h.n_log2, depth, part, {}, {}, 0.0)).samples
        out += np.where(total >= level, synthesized, 0.0)
    return out


def _cli_config(seed: int, variant: str) -> str:
    return (
        f"[run]\ngrid_n_log2 = 6\nseed = {seed}\n\n"
        f"[dyadic]\nvariant = {variant}\nlip_constant = 0.125\ndepth = 6\ncount = 2\n"
    )


class Structural(Workload):
    """N = 64 structural checks: dyadic models, the Littlewood-Paley ladder,
    field I/O and the CLI.  No variable-scale gather and no norm estimator."""

    name = "structural"
    n_log2 = 6
    # The planted violation alternates between the two variants.
    round_cases = 2

    def setup(self, seed: int) -> None:
        self.m = mu.make_bump_profile(0.5)
        os.makedirs(self.workdir, exist_ok=True)
        first = self.make_case(seed, 0)
        dy.check_selection_stability(first["metric_2d"], 2.0**-3, 1.0, "thm_4_1", depth=3)

    def make_case(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        n = self.n_log2
        # Criterion-2 construction: the base field scaled below 1 with one
        # x-row raised to 1 makes the unit scale pair admissible on that row
        # only, which selection stability must flag.
        if index % 2 == 0:
            variant, L = "thm_4_1", 2.0**-3
            base = dy.generate_dyadic_metric_2d(L, n, _draw(rng))
        else:
            variant, L = "thm_4_2", 2.0**-2
            base = dy.generate_dyadic_metric_x(L, n, _draw(rng))
        planted = base.values / 4.0
        planted[int(rng.integers(1 << n)), :] = 1.0
        return {
            "metric_2d": dy.generate_dyadic_metric_2d(2.0**-3, n, _draw(rng)),
            "metric_x": dy.generate_dyadic_metric_x(2.0**-2, n, _draw(rng)),
            "planted": (lin.LinearizerField(n, planted, lin.Regularity("none")), L, variant),
            "f": gr.random_field(n, _draw(rng)),
            "calderon_f": mean_zero_field(7, _draw(rng)),
            "lip_y": lin.generate_linearizer(
                "lip_y", {"lip_constant": 1.0, "v_min": 2.0**-5, "amplitude": 0.3}, _draw(rng), n
            ),
            "lip_2d": lin.generate_linearizer("lip_2d", {"lip_constant": 0.35, "band": 1}, _draw(rng), n),
            "lacunary": lin.generate_linearizer(
                "dyadic_of_lipschitz", {"lip_constant": 1.0, "v_min": 0.03}, _draw(rng), n
            ),
            "ratio_seed": _draw(rng),
            "cli_seed": _draw(rng),
            "cli_variant": variant,
        }

    def run(self, case: dict) -> dict:
        span = self.tracer.span
        out: dict = {}
        v2d, vx, f = case["metric_2d"], case["metric_x"], case["f"]
        with span("dyadic.stability"):
            out["verify"] = (dy.verify_dyadic_metric_2d(v2d, 2.0**-3), dy.verify_dyadic_metric_x(vx, 2.0**-2))
            out["stability"] = (
                dy.check_selection_stability(v2d, 2.0**-3, 1.0, "thm_4_1", depth=6).violations,
                dy.check_selection_stability(vx, 2.0**-2, 1.0, "thm_4_2", depth=6).violations,
            )
            planted, L, variant = case["planted"]
            out["planted"] = dy.check_selection_stability(planted, L, 1.0, variant, depth=6).violations
        with span("dyadic.haar"):
            out["haar"] = dy.haar_inverse(dy.haar_transform(f, self.n_log2 - 1))
        with span("dyadic.model"):
            out["model"] = dy.dyadic_model_operator(f, v2d, 1.0, 2.0**-3, "thm_4_1")
        with span("dyadic.martingale"):
            out["average"] = (dy.martingale_average(f, 1.0, 0), dy.martingale_average(f, 1.0, 1))
            out["maximal"] = dy.dyadic_maximal_m2(f)
            out["square"] = dy.dyadic_square_function(f, 1)
        with span("decomposition.ladder"):
            families = {beta: de.make_lp_family(beta, 7) for beta in (1.0, -1.0)}
            family = de.make_lp_family(1.0, self.n_log2)
        with span("decomposition.calderon"):
            out["calderon"] = [de.calderon_residual(case["calderon_f"], fam) for fam in families.values()]
        with span("decomposition.ratio"):
            out["ratio"] = (
                de.lipschitz_ratio_check(case["lip_y"], family, 1.0, 1.0, "lip", 10_000, case["ratio_seed"]),
                de.lipschitz_ratio_check(case["lip_2d"], family, 1.0, 0.35, "floor", 10_000, case["ratio_seed"]),
            )
        with span("decomposition.small_variation"):
            out["small_variation"] = de.small_variation_error(f, case["lacunary"], family, self.m)
        prefix = os.path.join(self.workdir, "case")
        gr.write_hxf1(prefix + ".hxf1", self.n_log2, f.samples)
        out["hxf1"] = gr.read_hxf1(prefix + ".hxf1")
        gr.write_field_csv(prefix + ".csv", f)
        out["csv"] = gr.read_field_csv(prefix + ".csv", self.n_log2)
        cfg = prefix + ".ini"
        with open(cfg, "w") as fh:
            fh.write(_cli_config(case["cli_seed"], case["cli_variant"]))
        captured = io.StringIO()
        with span("cli.main"), contextlib.redirect_stdout(captured):
            out["cli_rc"] = cli.main(["dyadic", "--config", cfg, "--out", prefix + "_cli"])
        out["cli_stdout"] = captured.getvalue()
        out["cli_dir"] = prefix + "_cli"
        return out

    def check(self, case: dict, out: dict) -> list[str]:
        failures = []
        f = case["f"].samples
        if out["verify"] != (0, 0):
            failures.append(f"hypothesis-class verifiers report {out['verify']}")
        if out["stability"] != (0, 0):
            failures.append(f"selection stability violations on hypothesis fields: {out['stability']}")
        if not out["planted"] >= 1:
            failures.append("planted selection-stability violation not caught")
        haar_err = rel_l2(f, out["haar"].samples)
        if not haar_err <= 1e-12:
            failures.append(f"Haar round trip rel l2 {haar_err:.3e} > 1e-12")
        model_ref = model_reference(case["f"], case["metric_2d"], self.n_log2 - 1)
        model_err = rel_l2(model_ref, out["model"].samples)
        if not model_err <= 1e-12:
            failures.append(f"dyadic model operator vs level sums: rel l2 {model_err:.3e} > 1e-12")
        avg_x, avg_y = out["average"]
        if rel_l2(np.broadcast_to(f.mean(axis=0), f.shape), avg_x.samples) > 1e-12 or rel_l2(
            np.broadcast_to(f.mean(axis=1)[:, None], f.shape), avg_y.samples
        ) > 1e-12:
            failures.append("martingale average at the unit scale is not the axis mean")
        mags = np.abs(f)
        if np.any(out["maximal"].samples.real < mags) or np.any(
            out["maximal"].samples.real < mags.mean(axis=1, keepdims=True) * (1 - 1e-12)
        ):
            failures.append("dyadic maximal function below |f| or below its full-line average")
        # orthogonal martingale differences: sum of squares = energy minus the mean part
        centered = f - f.mean(axis=1, keepdims=True)
        energy = float(np.sum(np.abs(centered) ** 2))
        square = float(np.sum(out["square"].samples.real ** 2))
        if not abs(square - energy) <= 1e-10 * energy:
            failures.append(f"square-function energy {square!r} != centered energy {energy!r}")
        worst_calderon = max(out["calderon"])
        if not worst_calderon <= 1e-10:
            failures.append(f"Calderon residual {worst_calderon:.3e} > 1e-10")
        for rep in out["ratio"]:
            if rep.violations:
                failures.append(f"Lipschitz ratio check ({rep.variant}): {rep.violations} violations")
        sv_max = float(np.abs(out["small_variation"].samples).max())
        if sv_max != 0.0:
            failures.append(f"small-variation error on a dyadic-valued field is {sv_max!r}, not 0")
        n_log2, hx = out["hxf1"]
        if n_log2 != self.n_log2 or hx.tobytes() != f.tobytes():
            failures.append("HXF1 round trip is not bit-exact")
        if out["csv"].samples.tobytes() != f.tobytes():
            failures.append("CSV round trip is not bit-exact")
        if out["cli_rc"] != 0 or "PASS dyadic.selection_stability" not in out["cli_stdout"]:
            failures.append(f"cli dyadic exited {out['cli_rc']}: {out['cli_stdout'].strip()!r}")
        return failures

    def counters(self, case: dict, out: dict) -> dict:
        cli_dir = out["cli_dir"]
        return {
            "dyadic.caught_ratio": float(out["planted"] >= 1),
            "cli.artifact_bytes": sum(os.path.getsize(os.path.join(cli_dir, p)) for p in os.listdir(cli_dir)),
        }


WORKLOADS = {w.name: w for w in (ApplyCold, NormestHot, Structural)}
