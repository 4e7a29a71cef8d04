"""Print one sha256 per hypercross output over a fixed grid of inputs.

A change that claims to leave results unchanged is checked against its
parent with one command:

    python3 tools/output_digest.py --against <parent>

It extracts ``git archive <parent>`` into a temporary directory, copies
this script over that tree's own copy, so both sides digest the same outputs
the same way, runs it there with the same interpreter, and prints ``k of M
lines identical`` followed by the name of every output whose line differs or
is on one side only; the exit status is 1 when any line differs.  A digest of
an API the parent lacks fails that run loudly rather than comparing
different sets.  Without ``--against`` the script prints the ``sha256  name``
lines of its own tree.

The package is imported from ``src/`` of the tree the script sits in.  The
grid: N = 8, 16, 32; lip_x, lip_2d, staircase_x and dyadic_of_lipschitz
fields; bump eps 1/2 and 1; beta 1, 0, -1 and 0.5.  Each point digests the
operator apply and adjoint, the lemma operator, the principal, error and
small-variation terms.  At N = 8 and 16 the second and third apply and
adjoint of the same operator handle are digested too, so an output that
changes when a handle is reused shows.  A mean-zero field digests the apply, adjoint,
lemma, principal and error terms at every point too: each odd row of it is
the negated even row before it, and each odd column likewise, so the fast
transform gives a spectrum exactly zero on the lines xi = 0 and eta = 0 and
nonzero elsewhere.  There a kernel rule that counts frequencies on the
spectrum's support and one that counts them on the symbol's weight differ.
A three-valued V with a zero band (the group of key 0) digests the apply
and adjoint only, since the decomposition terms need V > 0.  The lemma and
error terms are digested at N = 64 too, on a lip_2d field with floor 1/4
at beta 1 and -1 and bump eps 1/2 and 1: there the frequency side drops
dead h groups (V_min h >= R) and merges flat ones (V_max h <= eps).  The
principal, error and small-variation terms are digested at N = 64 on a
lip_x field (v_min 2**-7, amplitude 0.1, seed 12) at the same betas and
widths: its values span 4 rounded scales, each a group of the rounding
terms' keys, where the lip_2d field spans one.  A plateau
apply per field and beta, ``domination_constant`` (as ``float.hex``) per
field and eps, ``smoothness_constant`` (as ``float.hex``) of each bump eps
and of the plateau profile (0.75, 1.5), ``MultiplierProfile.derivative`` at
k = 1 to 6 on 4097 equispaced points of [-2R, 2R] (R the support radius)
for bump eps 1/2 and the plateaus (0.75, 1.5) and (0.3, 1.1), ``psi2_space``
on the N = 256 torus grid, and the CLI artifacts of one small config per
subcommand are digested too.

The frequency grids the symbols are built on are digested at N = 8 to 256,
at the ladder betas below and at -2, 2, inf and -inf: ``_abs_power`` of the
frequencies, ``hyperbolic_argument``, ``pi_beta_mask`` and
``hyperbolic_symbol`` at dilation 0.7 with bump eps 1/2 (for the last two,
the text of the ValueError where they raise, as at beta = inf, where the
argument grid overflows).

The decomposition's ladder sums are digested where the scale family acts,
at N = 8 to 256 and beta 1, -1, 0, 0.5, 1.5 and -0.75 (phi1 is divided by
its per-frequency total at every beta; the last two have a non-integer
2/|beta|, so no dyadic sum of the phi1 window is constant): the two axis
sums, the principal cutoff symbol at three cutoffs, every frozen
large-variation symbol over ``representable_j_range`` at bump eps 1/2 and
1, and, at N = 64, the ratio check of a lip_y field ('lip'), a lip_2d field
('floor') and a two-level field that violates it ('lip').

The hypothesis checks are digested on generated fields of every kind (the
six of ``generate_linearizer`` and the two dyadic-metric generators) at
seeds 0, 1 and 2: ``verify_lipschitz`` at N = 8 to 64 in the five classes
lip_x, lip_y, lip_2d, dyadic_of_lipschitz and staircase_x (passed, the
worst ratio as ``float.hex``, and the witness as ints when the worst ratio
is positive), the field itself (its values with the repr of its
``Regularity``), and at N = 16 to 64 the two dyadic-metric block counts and
the ``check_selection_stability`` record, on the dyadic-metric fields and
on copies scaled by 1/4 with one x-row raised to 1.  The values of the
first-variable dyadic-metric field at N = 64, seeds 0, 1 and 2, are digested
at L = nextafter(2**-2, 0) too, where a log2 that rounds would pick powers
of two above the bound, and the values of the 2D dyadic-metric field at
N = 64, seeds 0, 1 and 2, at L = 0.07, 1/8 and 0.3.  The generator is
pinned on two more fields with their regularity: the amplitude-capped lip_x
field above (v_min 2**-7, amplitude 0.1) at N = 8 to 64 and seeds 0, 1 and
2, where the cap binds, and the lip_y draw of seed 2096991651 at N = 64 with
amplitude 0.3, which does not vary along its axis, so the amplitude alone
scales it.

The Lp ascent is digested at p = 1.5 and 3 (2 restarts, 10 iterations,
bump eps 1/2, beta 1) on the lip_x and staircase_x fields at N = 8 and 16:
its value as ``float.hex``, iteration count, converged flag and witness.
The L2 estimator is digested the same way on criterion 7's operators at
N = 8: the lip_x fields at seeds 0 to 9 and the fixed multipliers at
lambda 1/2, 1 and 2.  The dense SVD oracle is digested on those operators
and on the N = 8 operators of the grid (each field, beta and bump eps):
``dense_operator_norm`` as ``float.hex`` with the sha256 of ``dense_matrix``.

The structural outputs are digested at N = 16 and 32 on a random field: the
Haar expansion at full depth and its inverse, the thm_4_1 model operator on
a 2D dyadic-metric field (L = 1/8), the thm_4_2 model operator (sizes
|I| |J|**beta) on a first-variable dyadic-metric field (L = 1/4, beta 1), the
martingale averages at every dyadic scale along both axes, the dyadic square
functions, ``dyadic_maximal_m2`` and ``hl_maximal_m1``.  A run takes a few
seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hypercross import cli  # noqa: E402
from hypercross import decomposition as de  # noqa: E402
from hypercross import dyadic as dy  # noqa: E402
from hypercross import grid as gr  # noqa: E402
from hypercross import linearized as lin  # noqa: E402
from hypercross import multiplier as mu  # noqa: E402
from hypercross import normest as ne  # noqa: E402

N_LOG2S = (3, 4, 5)
REUSE_N_LOG2S = (3, 4)  # the second and third apply and adjoint of a handle
FIELDS = {
    "lip_x": {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0},
    "lip_2d": {"lip_constant": 0.5},
    "staircase_x": {"lip_constant": 1.0, "v_min": 0.125, "levels": 8},
    "dyadic_of_lipschitz": {"lip_constant": 1.0, "v_min": 0.3},
}
EPSILONS = (0.5, 1.0)
ZERO_BAND_LEVELS = (0.0, 0.4, 0.9)  # rows in quarters: 1/4, 1/2, 1/4
BANDED_N_LOG2 = 6
BANDED_FIELD = {"lip_constant": 0.5, "floor": 0.25}  # lip_2d: both bands bite at beta 1 and -1
BANDED_BETAS = (1.0, -1.0)
ROUNDED_FIELD = {"lip_constant": 1.0, "v_min": 2.0**-7, "amplitude": 0.1}  # lip_x, seed 12: 4 rounded scales at N = 64
BETAS = (1.0, 0.0, -1.0, 0.5)
LADDER_N_LOG2S = (3, 4, 5, 6, 7, 8)
LADDER_BETAS = (1.0, -1.0, 0.0, 0.5, 1.5, -0.75)
GRID_BETAS = LADDER_BETAS + (-2.0, 2.0, float("inf"), float("-inf"))
BELOW_CUTOFFS = (0.3, 1.0, 12.0)
RATIO_N_LOG2 = 6
HYPOTHESIS_SEEDS = (0, 1, 2)
LIPSCHITZ_N_LOG2S = (3, 4, 5, 6)
LIPSCHITZ_FIELDS = {
    **FIELDS,
    "constant": {"value": 0.5},
    "lip_y": {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0},
}
FLAT_LIP_Y = (2096991651, 6, {"amplitude": 0.3})  # seed, n_log2, params: the draw does not vary along y
LIPSCHITZ_MODES = ("lip_x", "lip_y", "lip_2d", "dyadic_of_lipschitz", "staircase_x")
DYADIC_N_LOG2S = (4, 5, 6)
DYADIC_METRICS = {
    "metric_2d": (dy.generate_dyadic_metric_2d, 2.0**-3, "thm_4_1"),
    "metric_x": (dy.generate_dyadic_metric_x, 2.0**-2, "thm_4_2"),
}
NEAR_POWER_L = float(np.nextafter(2.0**-2, 0.0))  # math.log2 rounds it to -2.0
NEAR_POWER_N_LOG2 = 6
METRIC_2D_LS = (0.07, 2.0**-3, 0.3)  # the 2D generator raised at none of them before splits were checked
ASCENT_N_LOG2S = (3, 4)
ASCENT_FIELDS = ("lip_x", "staircase_x")
ASCENT_PS = (1.5, 3.0)
STRUCTURAL_N_LOG2S = (4, 5)
L2_SEEDS = range(10)  # criterion 7's lip_x fields at N = 8
L2_LAMBDAS = (0.5, 1.0, 2.0)  # criterion 7's fixed multipliers
DERIVATIVE_SCAN_POINTS = (1 << 12) + 1
PSI2_N_LOG2 = 8

CLI_CONFIGS = {
    "apply": "[run]\ngrid_n_log2 = 4\nseed = 7\n\n[profile]\nkind = bump\nepsilon = 0.5\n\n"
    "[linearizer]\nkind = lip_x\nlip_constant = 1.0\nv_min = 0.1\namplitude = 0.5\n\n"
    "[apply]\nbeta = 1.0\ncompare_oracle = true\n",
    "decompose": "[run]\ngrid_n_log2 = 5\nseed = 2\n\n[profile]\nkind = bump\nepsilon = 0.5\n\n"
    "[linearizer]\nkind = lip_y\nlip_constant = 1.0\nv_min = 0.03125\namplitude = 0.3\n\n[decompose]\nbeta = 1.0\n",
    "normest": "[run]\ngrid_n_log2 = 3\nseed = 4\n\n[profile]\nkind = bump\nepsilon = 1.0\n\n"
    "[linearizer]\nkind = lip_x\nlip_constant = 1.0\nv_min = 0.5\n\n[normest]\np = 3.0\nrestarts = 2\n",
    "sweep": "[run]\ngrid_n_log2 = 4\nseed = 5\n\n[linearizer]\nkind = staircase_x\n"
    "lip_constant = 1.0\nv_min = 0.125\nlevels = 8\n\n[sweep]\np = 2.0\nbeta = 1.0\neps_list = 1.0, 0.5, 0.25\n",
    "verify": "[run]\ngrid_n_log2 = 4\nseed = 3\n\n[profile]\nkind = plateau\nflat_radius = 0.75\n"
    "support_radius = 1.5\n\n[linearizer]\nkind = lip_2d\nlip_constant = 0.5\n",
    "dyadic": "[run]\ngrid_n_log2 = 5\nseed = 1\n\n[dyadic]\nvariant = thm_4_2\nlip_constant = 0.125\n"
    "depth = 5\ncount = 2\nbeta = 1.0\n",
}


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    elif isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def _mean_zero(f: gr.SampledField) -> gr.SampledField:
    """f with each odd row and then each odd column replaced by the negated
    even one before it."""
    samples = f.samples.copy()
    samples[1::2] = -samples[0::2]
    samples[:, 1::2] = -samples[:, 0::2]
    return gr.SampledField(f.n_log2, samples)


def library_digests():
    """(name, sha256) for every library output on the grid."""
    plateau = mu.MultiplierProfile(0.75, 1.5)
    profiles = {**{f"eps={eps}": mu.make_bump_profile(eps) for eps in EPSILONS}, "plateau": plateau}
    for label, m in profiles.items():
        yield f"{label} smoothness_constant", _digest(mu.smoothness_constant(m).hex())
    derivative_profiles = {"eps=0.5": profiles["eps=0.5"], "plateau": plateau, "plateau=(0.3, 1.1)": mu.MultiplierProfile(0.3, 1.1)}
    for label, m in derivative_profiles.items():
        t = np.linspace(-2.0 * m.support_radius, 2.0 * m.support_radius, DERIVATIVE_SCAN_POINTS)
        for k in range(1, 7):
            yield f"{label} derivative k={k}", _digest(m.derivative(t, k))
    yield f"N={1 << PSI2_N_LOG2} psi2_space", _digest(de.psi2_space(np.fft.fftfreq(1 << PSI2_N_LOG2)))
    for n_log2 in N_LOG2S:
        n = 1 << n_log2
        f = gr.random_field(n_log2, 50 + n_log2)
        rng = np.random.default_rng(n_log2)
        g = gr.SampledField(n_log2, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        f0, g0 = _mean_zero(f), _mean_zero(g)
        spec = gr.forward_transform(f0).coeffs
        assert not spec[0].any() and not spec[:, 0].any() and spec[1:, 1:].all()
        for kind, params in FIELDS.items():
            V = lin.generate_linearizer(kind, params, 11, n_log2)
            for beta in BETAS:
                family = de.make_lp_family(beta, n_log2)
                yield f"N={n} {kind} plateau beta={beta} apply", _digest(lin.apply_linearized_bucketed(f, V, plateau, beta).samples)
                for eps in EPSILONS:
                    m = mu.make_bump_profile(eps)
                    op = lin.linearized_operator(V, m, beta)
                    outputs = {
                        "apply": op.apply(f),
                        "adjoint": op.adjoint(g),
                        "lemma": de.lemma_operator(f, V, m, beta),
                        "principal": de.principal_term(f, V, family, m),
                        "error": de.error_term(f, V, family, m),
                        "small_variation": de.small_variation_error(f, V, family, m),
                    }
                    for name, out in outputs.items():
                        yield f"N={n} {kind} eps={eps} beta={beta} {name}", _digest(out.samples)
                    for call in (2, 3) if n_log2 in REUSE_N_LOG2S else ():
                        yield f"N={n} {kind} eps={eps} beta={beta} apply call={call}", _digest(op.apply(f).samples)
                        yield f"N={n} {kind} eps={eps} beta={beta} adjoint call={call}", _digest(op.adjoint(g).samples)
                    mean_zero = {
                        "apply": op.apply(f0),
                        "adjoint": op.adjoint(g0),
                        "lemma": de.lemma_operator(f0, V, m, beta),
                        "principal": de.principal_term(f0, V, family, m),
                        "error": de.error_term(f0, V, family, m),
                    }
                    for name, out in mean_zero.items():
                        yield f"N={n} {kind} eps={eps} beta={beta} mean-zero {name}", _digest(out.samples)
            for eps in EPSILONS:
                constant = lin.domination_constant(mu.make_bump_profile(eps), V)
                yield f"N={n} {kind} eps={eps} domination_constant", _digest(constant.hex())
        rows = np.repeat(ZERO_BAND_LEVELS, [n // 4, n // 2, n - 3 * n // 4])
        V = lin.LinearizerField(n_log2, rows[:, None] * np.ones((1, n)))
        for beta in BETAS:
            for eps in EPSILONS:
                op = lin.linearized_operator(V, mu.make_bump_profile(eps), beta)
                yield f"N={n} zero_band eps={eps} beta={beta} apply", _digest(op.apply(f).samples)
                yield f"N={n} zero_band eps={eps} beta={beta} adjoint", _digest(op.adjoint(g).samples)
    n = 1 << BANDED_N_LOG2
    f = gr.random_field(BANDED_N_LOG2, 50 + BANDED_N_LOG2)
    V = lin.generate_linearizer("lip_2d", BANDED_FIELD, 11, BANDED_N_LOG2)
    rounded = lin.generate_linearizer("lip_x", ROUNDED_FIELD, 12, BANDED_N_LOG2)
    assert np.unique(lin.dyadic_round_up(rounded.values)).size == 4
    for beta in BANDED_BETAS:
        family = de.make_lp_family(beta, BANDED_N_LOG2)
        for eps in EPSILONS:
            m = mu.make_bump_profile(eps)
            yield f"N={n} lip_2d floor=0.25 eps={eps} beta={beta} lemma", _digest(de.lemma_operator(f, V, m, beta).samples)
            yield f"N={n} lip_2d floor=0.25 eps={eps} beta={beta} error", _digest(de.error_term(f, V, family, m).samples)
            for term in (de.principal_term, de.error_term, de.small_variation_error):
                yield f"N={n} lip_x v_min=2**-7 eps={eps} beta={beta} {term.__name__}", _digest(term(f, rounded, family, m).samples)


def _digest_or_error(build) -> str:
    """The digest of build(), or of the text of the ValueError it raises."""
    try:
        return _digest(build())
    except ValueError as exc:
        return _digest(f"ValueError: {exc}")


def grid_digests():
    """(name, sha256) for the power, argument, mask and symbol grids."""
    m = mu.make_bump_profile(0.5)
    for n_log2 in LADDER_N_LOG2S:
        for beta in GRID_BETAS:
            prefix = f"N={1 << n_log2} beta={beta}"
            yield f"{prefix} _abs_power", _digest(mu._abs_power(gr.frequencies(n_log2), beta))
            yield f"{prefix} hyperbolic_argument", _digest_or_error(lambda: mu.hyperbolic_argument(n_log2, beta))
            yield f"{prefix} pi_beta_mask", _digest(mu.pi_beta_mask(beta, n_log2).values)
            yield f"{prefix} hyperbolic_symbol lambda=0.7", _digest_or_error(lambda: mu.hyperbolic_symbol(0.7, beta, m, n_log2).values)


def _ratio_cases() -> dict:
    """(V, L, variant) for each ratio check case on the N = 2**RATIO_N_LOG2 grid."""
    n = 1 << RATIO_N_LOG2
    step = np.full((n, n), 0.07)
    step[:, n // 2 :] = 0.24
    return {
        "lip_y": (lin.generate_linearizer("lip_y", {"lip_constant": 1.0, "v_min": 2.0**-5, "amplitude": 0.3}, 3, RATIO_N_LOG2), 1.0, "lip"),
        "lip_2d": (lin.generate_linearizer("lip_2d", {"lip_constant": 0.35, "band": 1}, 3, RATIO_N_LOG2), 0.35, "floor"),
        "step": (lin.LinearizerField(RATIO_N_LOG2, step), 1.0, "lip"),
    }


def ladder_digests():
    """(name, sha256) for the ladder sums of the scale family on the grid."""
    ratio_cases = _ratio_cases()
    for n_log2 in LADDER_N_LOG2S:
        n = 1 << n_log2
        for beta in LADDER_BETAS:
            family = de.make_lp_family(beta, n_log2)
            w1, g2 = de._axis_sums(family)
            yield f"N={n} beta={beta} axis_sums", _digest(np.concatenate([w1, g2]))
            for cutoff in BELOW_CUTOFFS:
                yield f"N={n} beta={beta} below cutoff={cutoff}", _digest(de._below_symbol(family, cutoff))
            for eps in EPSILONS:
                m = mu.make_bump_profile(eps)
                for j in de.representable_j_range(family, m):
                    yield f"N={n} beta={beta} eps={eps} large_variation j={j}", _digest(de.large_variation_symbol(j, family, m).values)
            if n_log2 == RATIO_N_LOG2:
                for name, (V, L, variant) in ratio_cases.items():
                    rep = de.lipschitz_ratio_check(V, family, beta, L, variant, 10_000, 5)
                    yield f"N={n} beta={beta} ratio {name}", _digest(repr(rep))


def _generated_fields(n_log2: int, seed: int):
    """(kind, V) for every generated kind."""
    for kind, params in LIPSCHITZ_FIELDS.items():
        yield kind, lin.generate_linearizer(kind, params, seed, n_log2)
    for name, (generate, L, _) in DYADIC_METRICS.items():
        yield f"dyadic_{name}", generate(L, n_log2, seed)


def _field_digest(V: lin.LinearizerField) -> str:
    """The digest of a field's values together with its regularity."""
    return _digest(f"{_digest(V.values)} {V.regularity!r}")


def hypothesis_digests():
    """(name, sha256) for the generated fields and the regularity and
    dyadic-metric checks."""
    for n_log2 in LIPSCHITZ_N_LOG2S:
        for seed in HYPOTHESIS_SEEDS:
            rounded = lin.generate_linearizer("lip_x", ROUNDED_FIELD, seed, n_log2)
            yield f"N={1 << n_log2} lip_x v_min=2**-7 seed={seed} field", _field_digest(rounded)
            for kind, V in _generated_fields(n_log2, seed):
                yield f"N={1 << n_log2} {kind} seed={seed} field", _field_digest(V)
                for mode in LIPSCHITZ_MODES:
                    rep = lin.verify_lipschitz(V, lin.Regularity(mode, lip=V.regularity.lip), seed)
                    witness = None
                    if rep.witness is not None and rep.worst_ratio > 0:
                        witness = [[int(t) for t in point] for point in rep.witness]
                    text = f"{rep.passed} {rep.worst_ratio.hex()} {witness}"
                    yield f"N={1 << n_log2} {kind} seed={seed} verify_lipschitz {mode}", _digest(text)
    seed, n_log2, params = FLAT_LIP_Y
    flat = lin.generate_linearizer("lip_y", params, seed, n_log2)
    assert lin._adjacent_max_diff(flat.values, axis=1) == 0.0
    yield f"N={1 << n_log2} lip_y amplitude=0.3 seed={seed} field", _field_digest(flat)
    for n_log2 in DYADIC_N_LOG2S:
        for seed in HYPOTHESIS_SEEDS:
            for name, (generate, L, variant) in DYADIC_METRICS.items():
                V = generate(L, n_log2, seed)
                planted = V.values / 4.0
                planted[(5 * seed + 3) % (1 << n_log2), :] = 1.0
                fields = {name: V, f"planted_{name}": lin.LinearizerField(n_log2, planted)}
                for label, field in fields.items():
                    counts = (dy.verify_dyadic_metric_2d(field, L), dy.verify_dyadic_metric_x(field, L))
                    record = dy.check_selection_stability(field, L, 1.0, variant).record()
                    prefix = f"N={1 << n_log2} {label} seed={seed}"
                    yield f"{prefix} dyadic_metric counts", _digest(repr(counts))
                    yield f"{prefix} selection_stability", _digest(json.dumps(record, sort_keys=True))
    for seed in HYPOTHESIS_SEEDS:
        V = dy.generate_dyadic_metric_x(NEAR_POWER_L, NEAR_POWER_N_LOG2, seed)
        yield f"N={1 << NEAR_POWER_N_LOG2} metric_x L=nextafter(2**-2, 0) seed={seed} values", _digest(V.values)
    for L in METRIC_2D_LS:
        for seed in HYPOTHESIS_SEEDS:
            V = dy.generate_dyadic_metric_2d(L, NEAR_POWER_N_LOG2, seed)
            yield f"N={1 << NEAR_POWER_N_LOG2} metric_2d L={L} seed={seed} values", _digest(V.values)


def ascent_digests():
    """(name, sha256) for the Lp ascent: value (as ``float.hex``), iteration
    count, converged flag and witness of short runs."""
    m = mu.make_bump_profile(0.5)
    for n_log2 in ASCENT_N_LOG2S:
        for kind in ASCENT_FIELDS:
            op = lin.linearized_operator(lin.generate_linearizer(kind, FIELDS[kind], 11, n_log2), m, 1.0)
            for p in ASCENT_PS:
                est = ne.lp_norm_ascent(op, p, restarts=2, iters=10, seed=n_log2)
                text = f"{est.value.hex()} {est.iterations} {est.converged} {_digest(est.witness.samples)}"
                yield f"N={1 << n_log2} {kind} p={p} lp_norm_ascent", _digest(text)


def _haar_text(h: dy.HaarCoefficients) -> str:
    """Every coefficient block of a Haar expansion, in key order."""
    blocks = [h.coeffs[key] for key in sorted(h.coeffs)]
    blocks += [h.row_block[a] for a in sorted(h.row_block)] + [h.col_block[b] for b in sorted(h.col_block)]
    return " ".join(_digest(block) for block in blocks) + f" {h.mean!r}"


def structural_digests():
    """(name, sha256) for the Haar transform and its inverse, the model
    operator of each variant on its dyadic-metric field, the martingale
    averages at every dyadic scale, the dyadic maximal and square functions
    and the first-variable maximal function."""
    for n_log2 in STRUCTURAL_N_LOG2S:
        n = 1 << n_log2
        f = gr.random_field(n_log2, 70 + n_log2)
        h = dy.haar_transform(f, n_log2 - 1)
        outputs = {
            "haar_inverse": dy.haar_inverse(h),
            **{
                f"model_operator {variant}": dy.dyadic_model_operator(f, generate(L, n_log2, 1), 1.0, L, variant)
                for generate, L, variant in DYADIC_METRICS.values()
            },
            "dyadic_maximal_m2": dy.dyadic_maximal_m2(f),
            "hl_maximal_m1": de.hl_maximal_m1(f),
        }
        for axis in (0, 1):
            outputs[f"dyadic_square_function axis={axis}"] = dy.dyadic_square_function(f, axis)
            for q in range(n_log2 + 1):
                outputs[f"martingale_average scale=2**-{q} axis={axis}"] = dy.martingale_average(f, 2.0**-q, axis)
        yield f"N={n} haar_transform", _digest(_haar_text(h))
        for name, out in outputs.items():
            yield f"N={n} {name}", _digest(out.samples)


def _l2_operators() -> dict:
    """name -> (operator, max_iter, seed) for criterion 7's operators at
    N = 8, as criterion 7 runs them."""
    m = mu.make_bump_profile(1.0)
    ops = {}
    for seed in L2_SEEDS:
        V = lin.generate_linearizer("lip_x", FIELDS["lip_x"], seed, 3)
        ops[f"lip_x seed={seed}"] = (lin.linearized_operator(V, m, 1.0), 200, seed)
    for lam in L2_LAMBDAS:
        ops[f"fixed_multiplier lambda={lam}"] = (ne.fixed_multiplier_operator(mu.hyperbolic_symbol(lam, 1.0, m, 3)), 300, 1)
    return ops


def l2_digests():
    """(name, sha256) for the L2 estimator on criterion 7's operators at
    N = 8: value (as ``float.hex``), iteration count, converged flag and
    witness."""
    for name, (op, max_iter, seed) in _l2_operators().items():
        est = ne.l2_norm_power_iteration(op, max_iter=max_iter, seed=seed)
        text = f"{est.value.hex()} {est.iterations} {est.converged} {_digest(est.witness.samples)}"
        yield f"N=8 {name} l2_norm_power_iteration", _digest(text)


def dense_digests():
    """(name, sha256) for the dense SVD oracle at N = 8: ``dense_operator_norm``
    (as ``float.hex``) and ``dense_matrix`` of criterion 7's operators and of
    the operator of each field of the grid at every beta and bump eps."""
    ops = {name: op for name, (op, _, _) in _l2_operators().items()}
    for kind, params in FIELDS.items():
        V = lin.generate_linearizer(kind, params, 11, 3)
        for beta in BETAS:
            for eps in EPSILONS:
                ops[f"{kind} eps={eps} beta={beta}"] = lin.linearized_operator(V, mu.make_bump_profile(eps), beta)
    for name, op in ops.items():
        yield f"N=8 {name} dense", _digest(f"{ne.dense_operator_norm(op).hex()} {_digest(ne.dense_matrix(op))}")


def cli_digests():
    """(name, sha256) for the exit status, standard output and every artifact
    of one run of each subcommand."""
    with tempfile.TemporaryDirectory() as tmp:
        for command, text in CLI_CONFIGS.items():
            cfg = Path(tmp) / f"{command}.ini"
            cfg.write_text(text)
            out = Path(tmp) / command
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                rc = cli.main([command, "--config", str(cfg), "--out", str(out)])
            yield f"cli {command} exit+stdout", _digest(f"{rc}\n{printed.getvalue()}")
            for path in sorted(out.iterdir()):
                yield f"cli {command} {path.name}", _digest(path.read_bytes())


def digests():
    """(name, sha256) for every output the script covers, in print order."""
    for generate in (library_digests, grid_digests, ladder_digests, hypothesis_digests, ascent_digests, structural_digests, l2_digests, dense_digests, cli_digests):
        yield from generate()


def compare(rev: str) -> int:
    """Print how many digest lines of ``git archive rev`` this tree matches,
    then the name of each line that differs; 1 when any differs."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        script = Path(tmp) / "tools" / Path(__file__).name
        script.parent.mkdir(exist_ok=True)
        shutil.copy(__file__, script)
        printed = subprocess.run([sys.executable, str(script)], check=True, stdout=subprocess.PIPE, text=True).stdout
    before = {name: digest for digest, name in (line.split("  ", 1) for line in printed.splitlines())}
    after = dict(digests())
    names = list(after) + [name for name in before if name not in after]
    moved = [name for name in names if before.get(name) != after.get(name)]
    print(f"{len(names) - len(moved)} of {len(names)} lines identical")
    for name in moved:
        print(name)
    return 1 if moved else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Print one sha256 per hypercross output, or compare them with a git revision.")
    parser.add_argument("--against", metavar="REV", help="compare with the digests of git archive REV")
    args = parser.parse_args()
    if args.against is not None:
        return compare(args.against)
    for name, digest in digests():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
