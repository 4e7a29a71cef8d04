"""Count, per acceptance criterion, the h of each handle's plan by band.

The linearized operator's symbol m(V(x) h) depends on V only through the
transition band eps < V(x) h < R of the profile: on a dead h (V_min h >= R)
it is 0 at every point and on a flat h (V_max h <= eps) it is 1.  A case
with no transition h runs a fixed multiplier, so a check that passes there
says nothing about the variable scale.  This script replays the handles of
criteria 1, 7, 8 and 9 of ``tests/test_acceptance.py`` (their fields,
profiles, betas and grids): it takes each handle's keys and masked symbol
from ``linearized.linearized_operator``, runs them through
``linearized._plan`` and ``linearized._h_bands``, and prints one line per
criterion: the number of cases, the dead, flat and transition h counts
(min, median and max over the cases, each h a distinct value of the
argument grid on the Pi_beta support), how many plans take the key side,
and the cases with no transition h.

    python3 tools/regime_audit.py

The fixed multipliers of criterion 7 are left out: they have no V.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from hypercross import linearized as lin  # noqa: E402
from hypercross import multiplier as mu  # noqa: E402

CRITERION_1_KINDS = (
    ("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}),
    ("staircase_x", {"lip_constant": 1.0, "v_min": 0.05, "levels": 12}),
    ("dyadic_of_lipschitz", {"lip_constant": 1.0, "v_min": 0.1}),
    ("lip_2d", {"lip_constant": 0.5}),
)
CRITERION_8_FIELD = ("staircase_x", {"lip_constant": 1.0, "v_min": 0.125, "levels": 48}, 42, 6)
CRITERION_8_EPSILONS = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)


def criterion_cases():
    """criterion -> [(label, V, m, beta)], as the acceptance battery builds
    its handles."""
    half = mu.make_bump_profile(0.5)
    cases = {1: [], 7: [], 8: [], 9: []}
    for n_log2 in (4, 5):
        for beta in (-1.0, 0.0, 1.0):
            for case in range(20):
                kind, params = CRITERION_1_KINDS[case % len(CRITERION_1_KINDS)]
                V = lin.generate_linearizer(kind, params, 1000 * n_log2 + case, n_log2)
                cases[1].append((f"N={1 << n_log2} beta={beta} case={case}", V, half, beta))
    for seed in range(10):
        V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0}, seed, 3)
        cases[7].append((f"seed={seed}", V, mu.make_bump_profile(1.0), 1.0))
    kind, params, seed, n_log2 = CRITERION_8_FIELD
    V = lin.generate_linearizer(kind, params, seed, n_log2)
    cases[8] = [(f"eps={eps}", V, mu.make_bump_profile(eps), 1.0) for eps in CRITERION_8_EPSILONS]
    for case in range(20):
        V = lin.generate_linearizer("lip_x", {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 2.0}, case, 6)
        cases[9].append((f"case={case}", V, half, 0.0))
    return cases


def band_counts(V: lin.LinearizerField, m: mu.MultiplierProfile, beta: float) -> tuple[int, int, int, bool]:
    """(dead, flat, transition) h counts of the handle's symbol on V, and
    whether its plan takes the key side."""
    op = lin.linearized_operator(V, m, beta)
    symbol = op.symbol_of
    hyper = np.ravel(symbol.hyper)
    support = np.flatnonzero(np.broadcast_to(symbol.weight, np.shape(symbol.hyper)))
    bands = lin._h_bands(np.sort(op.keys, axis=None), symbol)
    live = np.unique(hyper[bands.positions]).size
    transition = int(np.count_nonzero(bands.values))
    key_side = lin._plan(op.keys, symbol).weight is None
    return np.unique(hyper[support]).size - live, live - transition, transition, key_side


def _spread(counts) -> str:
    return f"{min(counts)}/{statistics.median(counts):g}/{max(counts)}"


def main() -> int:
    for criterion, cases in criterion_cases().items():
        rows = [(label, *band_counts(V, m, beta)) for label, V, m, beta in cases]
        _, dead, flat, transition, key_side = zip(*rows)
        none = [label for label, *_, t, _ in rows if t == 0]
        print(
            f"criterion {criterion}: {len(rows)} cases; dead h {_spread(dead)}, flat h {_spread(flat)}, "
            f"transition h {_spread(transition)} (min/median/max); key side in {sum(key_side)}; "
            f"no transition h in {len(none)} of {len(rows)}" + (f" ({', '.join(none)})" if none else "")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
