"""Property tests over the file codecs, the kernel oracles and the CLI's
config checks.

Hypothesis draws the inputs; every run is derandomized and keeps no example
database, so tier-1 stays reproducible, and each property is bounded by
``max_examples``.
"""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hypercross import cli
from hypercross import grid as g
from hypercross import linearized as lin
from hypercross import multiplier as mu
from hypercross import normest as ne

_CODEC = settings(derandomize=True, database=None, deadline=None, max_examples=40)
_KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=30)

_FINITE_GRIDS = hnp.arrays(np.complex128, (8, 8), elements=st.complex_numbers(allow_nan=False, allow_infinity=False))
_SIGNED_ZERO = np.full((8, 8), complex(1.5, -0.0))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """A path in a new directory per call: each example writes a new file
    (rewriting one file in place can cost a flush per close on ext4)."""
    return lambda name: tmp_path_factory.mktemp("codec") / name


@pytest.fixture(scope="module")
def valid_hxf1(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("valid") / "field.hxf1"
    g.write_hxf1(path, 3, g.random_field(3, 11).samples)
    return path.read_bytes()


@_CODEC
@given(values=_FINITE_GRIDS)
@example(values=_SIGNED_ZERO)
def test_hxf1_roundtrip_is_bit_exact(fresh, values):
    path = fresh("field.hxf1")
    g.write_hxf1(path, 3, values)
    n_log2, back = g.read_hxf1(path)
    assert n_log2 == 3
    assert back.tobytes() == values.tobytes()


@_CODEC
@given(values=_FINITE_GRIDS)
@example(values=_SIGNED_ZERO)
def test_csv_roundtrip_is_bit_exact(fresh, values):
    path = fresh("field.csv")
    g.write_field_csv(path, g.SampledField(3, values))
    assert g.read_field_csv(path, 3).samples.tobytes() == values.tobytes()


@_CODEC
@given(cut=st.integers(0, 8 + 16 * 64 - 1))
def test_truncated_hxf1_names_the_header_or_the_payload(fresh, valid_hxf1, cut):
    path = fresh("cut.hxf1")
    path.write_bytes(valid_hxf1[:cut])
    with pytest.raises(ValueError, match="header|payload"):
        g.read_hxf1(path)


@_CODEC
@given(n_log2=st.integers(0, 2**16).filter(lambda k: k != 3))
def test_hxf1_header_that_disagrees_with_the_payload_raises(fresh, valid_hxf1, n_log2):
    path = fresh("relabelled.hxf1")
    path.write_bytes(valid_hxf1[:4] + struct.pack("<I", n_log2) + valid_hxf1[8:])
    with pytest.raises(ValueError, match="header|payload"):
        g.read_hxf1(path)


@pytest.mark.parametrize("n_log2", [32, 2**16])
def test_hxf1_header_above_31_is_rejected(tmp_path, n_log2):
    path = tmp_path / "huge.hxf1"
    path.write_bytes(g.HXF1_MAGIC + struct.pack("<I", n_log2) + bytes(128))
    with pytest.raises(ValueError, match=f"HXF1 header claims n_log2={n_log2}"):
        g.read_hxf1(path)


def test_hxf1_header_at_the_u32_maximum_is_rejected(tmp_path):
    # the largest header value: a reader that sized the payload as
    # 2 * (1 << n_log2)**2 would build a 512 MiB integer and square it
    path = tmp_path / "max.hxf1"
    path.write_bytes(g.HXF1_MAGIC + struct.pack("<I", 2**32 - 1) + bytes(128))
    with pytest.raises(ValueError, match=f"HXF1 header claims n_log2={2**32 - 1}"):
        g.read_hxf1(path)


def test_hxf1_payload_one_byte_short_names_the_payload(tmp_path, valid_hxf1):
    path = tmp_path / "short.hxf1"
    path.write_bytes(valid_hxf1[:-1])
    with pytest.raises(ValueError, match=r"payload has 127 doubles, expected 128 \(1023 of 1024 bytes\)"):
        g.read_hxf1(path)


@_CODEC
@given(line=st.integers(2, 65), fields=st.sampled_from([3, 5]))
def test_csv_row_without_four_fields_names_its_line(fresh, line, fields):
    path = fresh("field.csv")
    g.write_field_csv(path, g.random_field(3, 13))
    lines = path.read_text().splitlines()
    lines[line - 1] = ",".join((lines[line - 1].split(",") + ["0.0"])[:fields])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line {line}: {fields} fields"):
        g.read_field_csv(path, 3)


# (field, text, the error after the line prefix): an index, a value and a
# sample that does not parse or is not finite
_MALFORMED_CSV_FIELDS = [
    (0, "x", "invalid literal for int"),
    (2, "abc", "could not convert string to float: 'abc'"),
    (3, "inf", r"non-finite sample \(\d+, \d+\)"),
]


@_CODEC
@given(line=st.integers(2, 65), case=st.sampled_from(_MALFORMED_CSV_FIELDS))
def test_csv_row_with_a_malformed_field_names_its_line(fresh, line, case):
    column, text, message = case
    path = fresh("field.csv")
    g.write_field_csv(path, g.random_field(3, 13))
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[column] = text
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line {line}: {message}"):
        g.read_field_csv(path, 3)


_N_LOG2S = st.sampled_from([3, 4])
_BETAS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
_PROFILES = st.integers(0, 3).map(lambda i: mu.make_bump_profile(2.0**-i))
_KINDS = st.sampled_from(sorted(lin._LINEARIZER_KEYS))
_SEEDS = st.integers(0, 2**16)


@_KERNEL
@given(n_log2=_N_LOG2S, beta=_BETAS, m=_PROFILES, kind=_KINDS, seed=_SEEDS)
def test_linearized_operator_matches_the_bruteforce_and_its_adjoint(n_log2, beta, m, kind, seed):
    V = lin.generate_linearizer(kind, {}, seed, n_log2)
    op = lin.linearized_operator(V, m, beta)
    f, b = g.random_field(n_log2, seed + 1), g.random_field(n_log2, seed + 2)
    brute = lin.apply_linearized_bruteforce(f, V, m, beta).samples
    tf = op.apply(f).samples
    assert np.linalg.norm(tf - brute) <= 1e-10 * np.linalg.norm(brute)
    gap = abs(np.vdot(b.samples, tf) - np.vdot(op.adjoint(b).samples, f.samples))
    assert gap <= 1e-10 * np.linalg.norm(tf) * np.linalg.norm(b.samples)


# keys from a small pool repeat and include 0; the floats fill the rest
_KEYS = hnp.arrays(np.float64, (8, 8), elements=st.sampled_from([0.0, 0.125, 0.3, 1.0, 2.5]) | st.floats(0.0, 8.0))


@settings(_KERNEL, max_examples=60)
@given(keys=_KEYS, beta=_BETAS, m=_PROFILES, seed=_SEEDS)
def test_kernel_sides_agree_on_any_keys(keys, beta, m, seed):
    scaled = lin.ScaledSymbol(m, mu.hyperbolic_argument(3, beta), mu.pi_beta_mask(beta, 3).values)
    by_key = lin._plan(keys, lambda key: scaled(key))
    by_h = lin._Plan(keys, lin._h_bands(np.unique(keys), scaled), lambda hs: m(keys * hs[:, None, None]), scaled.weight)
    spec = g.forward_transform(g.random_field(3, seed)).coeffs
    samples = g.random_field(3, seed + 1).samples
    # and a stack of three grids shaped (3, 1, N, N) on each side
    specs = np.stack([spec] + [g.forward_transform(g.random_field(3, seed + k)).coeffs for k in (2, 3)])[:, None]
    stack = np.stack([samples] + [g.random_field(3, seed + k).samples for k in (4, 5)])[:, None]
    for kernel, arr in ((lin._gather, spec), (lin._scatter, samples), (lin._gather, specs), (lin._scatter, stack)):
        want = kernel(arr, by_key)
        assert np.linalg.norm(kernel(arr, by_h) - want) <= 1e-12 * np.linalg.norm(want)


# the output digest's three-valued V with a zero band (the group of key 0):
# rows in quarters at 0, 0.4 and 0.9
_ZERO_BAND = lin.LinearizerField(3, np.repeat([0.0, 0.4, 0.9], [2, 4, 2])[:, None] * np.ones((1, 8)))
_DENSE_FIELDS = st.builds(lambda kind, seed: lin.generate_linearizer(kind, {}, seed, 3), _KINDS, _SEEDS) | st.just(_ZERO_BAND)


@settings(_KERNEL, max_examples=15)
@given(V=_DENSE_FIELDS, beta=_BETAS, m=_PROFILES)
@example(V=_ZERO_BAND, beta=-1.0, m=mu.make_bump_profile(0.5))
def test_dense_matrices_match_the_bruteforce_and_the_adjoint(V, beta, m):
    # the matrix on all 64 basis fields: dense takes the handle's stacked
    # apply, checked against the brute force run field by field; the handle
    # with apply and adjoint swapped takes the default loop over all 64
    # fields, so the adjoint's _scatter is checked on every field and not
    # only on random pairs
    op = lin.linearized_operator(V, m, beta)
    dense = ne.dense_matrix(op)
    brute = ne.dense_matrix(lin.LinearOperatorHandle(3, lambda f: lin.apply_linearized_bruteforce(f, V, m, beta), None))
    assert np.linalg.norm(dense - brute) <= 1e-10 * np.linalg.norm(brute)
    adjoint = ne.dense_matrix(lin.LinearOperatorHandle(op.n_log2, op.adjoint, op.apply))
    assert np.linalg.norm(adjoint - dense.conj().T) <= 1e-10 * np.linalg.norm(dense)


# one valid config per command at N = 8, as {section: {key: text}}
_PROFILE = {"kind": "bump", "epsilon": "0.5"}
_LIP_X = {"kind": "lip_x", "lip_constant": "1.0", "v_min": "0.1", "amplitude": "0.5", "band": "3"}
_CLI_CONFIGS = {
    "apply": {"run": {"grid_n_log2": "3", "seed": "1"}, "profile": _PROFILE, "linearizer": _LIP_X, "apply": {"beta": "1.0"}},
    "verify": {"run": {"grid_n_log2": "3", "seed": "1"}, "profile": _PROFILE, "linearizer": _LIP_X},
    "decompose": {
        "run": {"grid_n_log2": "3", "seed": "1"},
        "profile": _PROFILE,
        "linearizer": _LIP_X,
        "decompose": {"beta": "1.0", "ratio_lip": "1.0"},
    },
    "normest": {"run": {"grid_n_log2": "3", "seed": "1"}, "profile": _PROFILE, "linearizer": _LIP_X, "normest": {"p": "2.0", "max_iter": "20"}},
    "sweep": {"run": {"grid_n_log2": "3", "seed": "1"}, "linearizer": _LIP_X, "sweep": {"p": "2.0", "beta": "1.0", "eps_list": "1.0, 0.5"}},
    "dyadic": {"run": {"grid_n_log2": "3", "seed": "1"}, "dyadic": {"variant": "thm_4_1", "lip_constant": "0.125", "depth": "2", "count": "2"}},
}


def _config_text(sections):
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n" for name, keys in sections.items())


# values that fail to parse or are not finite, by the key's type
_UNPARSABLE = {float: ("inf", "-inf", "nan"), int: ("two",)}


def _bad_cases():
    """(command, changes to its config, the key out of range, whether the
    message must name it): one value out of range per case.  The CLI names
    the key where it parses a value, where it finds a key unread, and for
    grid_n_log2 and count, and the generator for band and levels; the
    package's own messages (eps must be 2**-i, ...) stay as they are."""
    for command, sections in _CLI_CONFIGS.items():
        for section, keys in sections.items():
            for key in keys:
                for value in _UNPARSABLE.get(cli._SCHEMA[section][key], ()):
                    yield command, {section: {key: value}}, key, True
        for value in ("-1", "0", "2"):
            yield command, {"run": {"grid_n_log2": value}}, "grid_n_log2", True
        if "profile" in sections:
            yield command, {"profile": {"epsilon": "0.3"}}, "epsilon", False
        if "linearizer" in sections:
            yield command, {"linearizer": {"band": "0"}}, "band", True
            staircase = {"kind": "staircase_x", "amplitude": None, "band": None, "levels": "0"}
            yield command, {"linearizer": staircase}, "levels", True
    yield "normest", {"normest": {"p": "3.0", "max_iter": None, "restarts": "0"}}, "restarts", False
    yield "normest", {"normest": {"restarts": "0"}}, "restarts", True  # unread at p = 2
    yield "normest", {"normest": {"max_iter": "0"}}, "max_iter", False
    yield "dyadic", {"dyadic": {"count": "0"}}, "count", True
    yield "dyadic", {"dyadic": {"depth": "-1"}}, "depth", False
    yield "dyadic", {"dyadic": {"variant": "thm_4_2", "lip_constant": "2"}}, "lip_constant", False
    for value in ("0", "-0.5"):
        yield "decompose", {"decompose": {"ratio_lip": value}}, "ratio_lip", False


def _changed(sections, changes):
    """sections with each key in changes set to its value, or dropped for None."""
    out = {name: dict(keys) for name, keys in sections.items()}
    for name, keys in changes.items():
        for key, value in keys.items():
            if value is None:
                del out[name][key]
            else:
                out[name][key] = value
    return out


_BAD_CASES = list(_bad_cases())


# the table is small enough that a bound above its size runs every case
@settings(derandomize=True, database=None, deadline=None, max_examples=2 * len(_BAD_CASES))
@given(case=st.sampled_from(_BAD_CASES))
def test_cli_config_with_one_value_out_of_range_exits_2_before_writing(fresh, case):
    command, changes, key, named = case
    config = fresh("bad.ini")
    config.write_text(_config_text(_changed(_CLI_CONFIGS[command], changes)))
    out = config.parent / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([command, "--config", str(config), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "config error" in err.getvalue()
    assert not out.exists()
    if named:
        assert key in err.getvalue()
