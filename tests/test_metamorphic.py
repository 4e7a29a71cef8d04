"""Metamorphic relations at production sizes: the operators commute with the
symmetries of the torus and with complex conjugation.

Shifting V and f by (37, 101) shifts every output by the same amount, and
reflecting both by (x, y) -> (-x, -y) reflects it, since the symbols depend
on |xi| and |eta| only.  The symbols are real and even, so conjugating f
conjugates every output: T conj(f) = conj(T f); small_variation_error is
real, so conjugating f leaves it unchanged.  Nothing else checks outputs at
N = 128 and 256, where the brute-force oracle is out of reach; the
relations hold to rounding there.  The handle cases run on a lip_x field
(seed 3, v_min 0.05, amplitude 1).  The decomposition terms run on the
lip_x field whose values span 4 rounded scales (seed 12, v_min 2**-7,
amplitude 0.1).
"""

import numpy as np
import pytest

from hypercross import decomposition as de
from hypercross import grid as g
from hypercross import linearized as lin
from hypercross import multiplier as mu

SHIFT = (37, 101)
HANDLE_FIELD = (3, {"lip_constant": 1.0, "v_min": 0.05, "amplitude": 1.0})
ROUNDED_FIELD = (12, {"lip_constant": 1.0, "v_min": 2.0**-7, "amplitude": 0.1})

RELATIONS = {
    "shift": lambda a: np.roll(a, SHIFT, axis=(-2, -1)),
    # index i -> -i mod N on both axes
    "reflection": lambda a: np.roll(np.flip(a, axis=(-2, -1)), 1, axis=(-2, -1)),
}


def _field(n_log2, spec):
    seed, params = spec
    return lin.generate_linearizer("lip_x", params, seed, n_log2).values


def _samples(n_log2):
    """A random complex grid."""
    n = 1 << n_log2
    rng = np.random.default_rng(n_log2)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _handle_run(n_log2, beta, name, values, samples):
    op = lin.linearized_operator(lin.LinearizerField(n_log2, values), mu.make_bump_profile(0.5), beta)
    return getattr(op, name)(g.SampledField(n_log2, samples)).samples


def _term_run(n_log2, beta, name, values, samples):
    V = lin.LinearizerField(n_log2, values)
    f = g.SampledField(n_log2, samples)
    m = mu.make_bump_profile(0.5)
    if name == "lemma":
        return de.lemma_operator(f, V, m, beta).samples
    term = {"principal": de.principal_term, "error": de.error_term, "small_variation": de.small_variation_error}[name]
    return term(f, V, de.make_lp_family(beta, n_log2), m).samples


# (run, V's seed and parameters) per kind of case
_KINDS = {"handle": (_handle_run, HANDLE_FIELD), "term": (_term_run, ROUNDED_FIELD)}


def _check(kind, n_log2, beta, name):
    """The output on V and the samples moved by each relation against the
    output on them moved the same way."""
    run, spec = _KINDS[kind]
    values = _field(n_log2, spec)
    samples = _samples(n_log2)
    out = run(n_log2, beta, name, values, samples)
    for relation, move in RELATIONS.items():
        moved, want = run(n_log2, beta, name, move(values), move(samples)), move(out)
        assert np.linalg.norm(moved - want) <= 1e-12 * np.linalg.norm(want), relation


_HANDLE_CASES = [(7, beta, name) for beta in (1.0, 0.0) for name in ("apply", "adjoint")] + [
    (7, -1.0, "apply"),
    (8, 1.0, "apply"),
    (8, 1.0, "adjoint"),
]


@pytest.mark.parametrize("n_log2, beta, name", _HANDLE_CASES)
def test_the_handle_follows_the_torus_symmetries(n_log2, beta, name):
    _check("handle", n_log2, beta, name)


@pytest.mark.parametrize("name", ["lemma", "principal", "error", "small_variation"])
@pytest.mark.parametrize("beta", [1.0, -1.0])
def test_the_decomposition_terms_follow_the_torus_symmetries(beta, name):
    _check("term", 7, beta, name)


def test_the_rounded_field_spans_four_scales():
    assert np.unique(lin.dyadic_round_up(_field(7, ROUNDED_FIELD))).size == 4


@pytest.mark.parametrize("beta", [1.0, 0.0, -1.0])
@pytest.mark.parametrize(
    "kind, name",
    [("handle", "apply"), ("handle", "adjoint"), ("term", "lemma"), ("term", "principal"), ("term", "error"), ("term", "small_variation")],
)
def test_the_operators_commute_with_conjugation(kind, name, beta):
    run, spec = _KINDS[kind]
    values, samples = _field(7, spec), _samples(7)
    out = run(7, beta, name, values, samples)
    # small_variation_error is real: conjugating f leaves it as it was
    want = out if name == "small_variation" else out.conj()
    conjugated = run(7, beta, name, values, samples.conj())
    assert np.linalg.norm(conjugated - want) <= 1e-12 * np.linalg.norm(want)
