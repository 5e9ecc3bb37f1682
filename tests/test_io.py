"""JSON round trips and input validation for every on-disk format."""

import builtins
import copy
import hashlib
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from secrecy_forge import cli, io
from secrecy_forge.dequantize import random_instrument_tree, verify_equivalence
from secrecy_forge.distributions import Dist3
from secrecy_forge.embeddings import PhaseAssignment, embed_cqq
from secrecy_forge.errors import InvalidDistribution, UsageError
from secrecy_forge.io import (
    dump_dist,
    dump_json,
    dump_phases,
    dump_state,
    dump_tree,
    json_text,
    load_dist,
    load_phases,
    load_state,
    load_tree,
    sha256_file,
)
from secrecy_forge.keyrates import one_sided_coherence_example
from secrecy_forge.qlinalg import QState


class TestDist:
    def test_dense_round_trip(self, tmp_path, make_dist):
        d = make_dist((2, 3, 2), sparsity=0.3)
        path = tmp_path / "d.json"
        dump_json(dump_dist(d), path)
        back = load_dist(path)
        assert back.dims == d.dims
        np.testing.assert_allclose(back.p, d.p, rtol=1e-11, atol=1e-15)

    def test_sparse_load(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "dims": [2, 2, 2],
            "entries": [
                {"x": 0, "y": 0, "z": 0, "p": 0.5},
                {"x": 1, "y": 1, "z": 1, "p": 0.5},
            ],
        }))
        d = load_dist(path)
        assert d.p[0, 0, 0] == 0.5
        assert d.p[1, 1, 1] == 0.5
        assert d.p.sum() == 1.0

    def test_sparse_rejects_duplicate_cell(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "dims": [2, 2, 2],
            "entries": [
                {"x": 0, "y": 0, "z": 0, "p": 0.5},
                {"x": 0, "y": 0, "z": 0, "p": 0.5},
            ],
        }))
        with pytest.raises(UsageError):
            load_dist(path)

    def test_sparse_rejects_out_of_range_index(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "dims": [2, 2, 2],
            "entries": [{"x": 2, "y": 0, "z": 0, "p": 1.0}],
        }))
        with pytest.raises(UsageError):
            load_dist(path)

    def test_rejects_unnormalized_mass(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"dims": [1, 1, 1], "p": [[[0.7]]]}))
        with pytest.raises(UsageError):
            load_dist(path)

    def test_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"dims": [2, 2, 2], "p": [[[0.5]]]}))
        with pytest.raises(UsageError):
            load_dist(path)

    def test_rejects_missing_payload(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"dims": [2, 2, 2]}))
        with pytest.raises(UsageError):
            load_dist(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{not json")
        with pytest.raises(UsageError):
            load_dist(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            load_dist(tmp_path / "absent.json")


class TestPhases:
    def test_round_trip(self, tmp_path):
        phases = PhaseAssignment.from_entries(
            (2, 2, 2),
            [{"x": 0, "y": 1, "z": 0, "phi": math.pi},
             {"x": 1, "y": 0, "z": 1, "phi": 0.25}],
        )
        path = tmp_path / "phi.json"
        dump_json(dump_phases(phases), path)
        back = load_phases(path, (2, 2, 2))
        np.testing.assert_allclose(back.phi, phases.phi, rtol=1e-11, atol=1e-15)

    def test_rejects_dims_mismatch(self, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({
            "dims": [2, 2, 2],
            "entries": [{"x": 0, "y": 0, "z": 0, "phi": 1.0}],
        }))
        with pytest.raises(UsageError):
            load_phases(path, (2, 2, 3))

    def test_rejects_duplicate_entry(self, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"entries": [
            {"x": 0, "y": 1, "z": 0, "phi": 1.0},
            {"x": 0, "y": 1, "z": 0, "phi": 2.0},
        ]}))
        with pytest.raises(UsageError, match=r"duplicate phase entry at \(0, 1, 0\)"):
            load_phases(path, (2, 2, 2))


class TestState:
    def test_round_trip_complex(self, tmp_path, make_density):
        st = make_density((2, 2))
        path = tmp_path / "rho.json"
        dump_json(dump_state(st), path)
        back = load_state(path)
        assert back.dims == (2, 2)
        np.testing.assert_allclose(back.rho, st.rho, rtol=1e-11, atol=1e-13)

    def test_imaginary_part_optional(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({
            "dims": [2], "re": [[0.5, 0.0], [0.0, 0.5]],
        }))
        st = load_state(path)
        np.testing.assert_allclose(st.rho, np.eye(2) / 2)

    def test_rejects_dims_product_mismatch(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({
            "dims": [2, 2], "re": [[0.5, 0.0], [0.0, 0.5]],
        }))
        with pytest.raises(UsageError):
            load_state(path)

    def test_huge_dims_report_their_true_size(self, tmp_path, capsys):
        # 2**32 * 2**32 is 2**64, which wraps to 0 in int64
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dims": [2**32, 2**32], "re": [[1.0]]}))
        assert cli.run(["measures", "--state", str(path), "--which", "neg"]) == 2
        err = capsys.readouterr().err
        assert f"dims [{2**32}, {2**32}] require {2**64}x{2**64}" in err

    def test_rejects_non_state_matrix(self, tmp_path):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({
            "dims": [2], "re": [[1.5, 0.0], [0.0, -0.5]],
        }))
        with pytest.raises(UsageError):
            load_state(path)


class TestTree:
    def test_round_trip_keeps_equivalence(self, tmp_path, rng, make_dist):
        tree = random_instrument_tree(2, 2, rounds=2, outcomes=2,
                                      kraus_each=2, rng=rng)
        path = tmp_path / "tree.json"
        dump_json(dump_tree(tree), path)
        back = load_tree(path)
        assert back.rounds == tree.rounds
        assert back.histories() == tree.histories()
        assert verify_equivalence(back, make_dist((2, 2, 2))) <= 1e-9

    def test_dump_is_idempotent_after_reload(self, tmp_path, rng):
        tree = random_instrument_tree(2, 2, rounds=2, outcomes=2, rng=rng)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        dump_json(dump_tree(tree), first)
        dump_json(dump_tree(load_tree(first)), second)
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_non_trace_preserving_node(self, tmp_path):
        doc = {
            "rounds": 2, "dim_a": 2, "dim_b": 2,
            "nodes": {"": [[{"re": [[0.9, 0.0], [0.0, 0.9]]}]],
                      "0": [[{"re": [[1.0, 0.0], [0.0, 1.0]]}]]},
            "leaf_a": {"0,0": [{"re": [[1.0, 0.0], [0.0, 1.0]]}]},
            "leaf_b": {"0,0": [{"re": [[1.0, 0.0], [0.0, 1.0]]}]},
        }
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(UsageError):
            load_tree(path)

    def test_rejects_malformed_history_key(self, tmp_path):
        doc = {
            "rounds": 0, "dim_a": 2, "dim_b": 2, "nodes": {},
            "leaf_a": {"x": [{"re": [[1.0, 0.0], [0.0, 1.0]]}]},
            "leaf_b": {"": [{"re": [[1.0, 0.0], [0.0, 1.0]]}]},
        }
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(UsageError):
            load_tree(path)


class TestJsonText:
    def test_sorted_keys_and_trailing_newline(self):
        text = json_text({"b": 1, "a": QState(np.eye(2) / 2, (2,)).rho[0, 0].real})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_floats_trimmed_to_twelve_digits(self):
        text = json_text({"v": 1 / 3})
        assert "0.333333333333" in text
        assert "0.3333333333333333" not in text

    def test_numpy_scalars_serializable(self, tmp_path):
        doc = {"i": np.int64(3), "f": np.float64(0.5),
               "arr": np.arange(3), "c": True, "n": None}
        path = tmp_path / "doc.json"
        dump_json(doc, path)
        assert json.loads(path.read_text()) == {
            "i": 3, "f": 0.5, "arr": [0, 1, 2], "c": True, "n": None,
        }

    def test_non_finite_floats_become_null(self):
        def reject(token):
            raise AssertionError(f"non-JSON constant {token}")

        text = json_text({"v": float("nan"), "w": [float("inf"), np.float64(-np.inf)]})
        assert json.loads(text, parse_constant=reject) == {"v": None, "w": [None, None]}


def _plain_reference(obj, num):
    """Plain JSON types for obj, one element at a time: each finite float
    passed through ``num``, each non-finite one None, keys made strings."""
    if isinstance(obj, dict):
        return {str(k): _plain_reference(v, num) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain_reference(v, num) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain_reference(v, num) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            return None
        return num(float(obj))
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reference_text(obj, num):
    """``json.dumps`` of ``_plain_reference(obj, num)`` as the writers lay it out."""
    doc = _plain_reference(obj, num)
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _rounded(x):
    return float(f"{x:.12g}")


def _dumped(obj, path):
    """The text ``dump_json`` writes for obj."""
    dump_json(obj, path)
    return path.read_text(encoding="utf-8")


def _outcome(write, obj):
    """The written text, which tells -0.0 from 0.0 and 1 from 1.0 or true,
    or the exception type raised."""
    try:
        return write(obj)
    except TypeError:
        return TypeError


SPECIAL_F64 = [0.5, 1 / 3, 0.0, -0.0, 5e-324, 1e-310, 1e-05, 1e16,
               1.7976931348623157e308, np.nan, np.inf, -np.inf]
SPECIAL_F32 = [0.5, 1 / 3, 0.0, -0.0, 1e-45, 1e-40, 3.4e38, np.nan, np.inf, -np.inf]
PLAIN_INPUTS = [
    np.array(-0.0),
    np.array(5e-324),
    np.array(np.nan, dtype=np.float32),
    np.array(1e-45, dtype=np.float32),
    np.array(SPECIAL_F64),
    np.array(SPECIAL_F64[:-2]).reshape(2, 5),
    np.array(SPECIAL_F32, dtype=np.float32),
    np.array(SPECIAL_F32, dtype=np.float32).reshape(5, 2),
    np.zeros((3, 0)),
    np.array([True, False, True]),
    np.array([[True], [False]]),
    np.arange(6, dtype=np.int32).reshape(2, 3),
    np.array([2**62, -(2**62)]),
    tuple(SPECIAL_F64),
    (1, 2.0, True, None),
    tuple(np.float64(v) for v in SPECIAL_F64),
    {"a": (np.float32(0.1), 1.0), "b": [np.array([-0.0, 2.5]), ()], 3: np.bool_(True)},
    # the 48x48 state of the embed envelope: 34 nonzero entries
    pytest.param(dump_state(embed_cqq(*one_sided_coherence_example())), id="embed_cqq_state"),
]


@pytest.mark.parametrize("obj", PLAIN_INPUTS, ids=lambda obj: type(obj).__name__)
def test_fast_float_lists_convert_as_one_element_at_a_time(obj, tmp_path):
    # json_text rounds for envelopes; dump_json keeps every digit with float
    path = tmp_path / "doc.json"
    for write, num in ((json_text, _rounded), (lambda o: _dumped(o, path), float)):
        assert _outcome(write, obj) == _outcome(lambda o: _reference_text(o, num), obj)


# NaNs with other payloads than np.nan's, which each must still read null:
# the smallest signalling NaN and the all-ones bit pattern
_NANS = [float(np.array(bits, dtype=np.int64).view(np.float64))
         for bits in (0x7FF0000000000001, -1)]
_ARRAY_FLOATS = st.sampled_from(SPECIAL_F64 + _NANS + [-5e-324, -1e-310, 2.5, -2.5]) | st.floats()
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5)


@st.composite
def _float64_arrays(draw):
    """Float64 arrays of 1 to 3 dimensions, empty axes included, that
    repeat a few drawn values and both zeros; some are strided views: the
    real or the imaginary part of a complex array, or a transpose."""
    shape = draw(_SHAPES)
    values = st.sampled_from([0.0, -0.0] + draw(st.lists(_ARRAY_FLOATS, min_size=1, max_size=4)))
    parts = [draw(hnp.arrays(np.float64, shape, elements=values)) for _ in range(2)]
    view = draw(st.sampled_from(["plain", "real", "imag", "transpose"]))
    if view in ("real", "imag"):
        z = np.empty(shape, dtype=complex)
        z.real, z.imag = parts
        return np.real(z) if view == "real" else np.imag(z)
    return parts[0].T if view == "transpose" else parts[0]


_SIGNED_ZEROS = np.array([[complex(0.0, -0.0), complex(-0.0, 0.0)], [1j, complex(-0.0, 5e-324)]])


@settings(max_examples=200)
@given(arr=_float64_arrays())
@example(arr=np.real(_SIGNED_ZEROS))
@example(arr=np.imag(_SIGNED_ZEROS))
@example(arr=np.array(_NANS + [np.nan, -np.inf, np.inf]))
@example(arr=np.zeros((2, 0, 3)))
def test_float_arrays_write_what_json_dumps_writes(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("arrays") / "doc.json"
    doc = {"a": arr, "b": [arr]}
    assert _dumped(doc, path) == _reference_text(doc, float)
    assert json_text(doc) == _reference_text(doc, _rounded)


_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e-05, 1e12, 123456789012345.67, 1e16, 1.7976931348623157e308])
_STRINGS = st.text() | st.sampled_from(
    ['"', "\\", 'a "quoted" \\ word', "\x00\x1f\x7f\n\t", "é", "ü\u2028😀", ""])
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.sampled_from([2**64, -(10**40)]) | _FLOATS | _STRINGS)
_KEYS = _STRINGS | st.sampled_from(["10", "9", "B", "a", "_", "é", "Z", " "])
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.lists(_FLOATS, max_size=5)
    | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300)
@given(doc=_DOCS)
@example(doc=[1, 2.0, True, None])
@example(doc=[-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308])
@example(doc={"10": [], "9": {}, "B": [[]], "a": [{}], "é": "ü\x00\"", "Z": 2**70})
@example(doc=[True, 1, False, 0, 1.0, 0.0])
# integer-valued floats, and 1e12 <= |x| < 1e16, where %.12g writes an
# exponent and repr does not
@example(doc=[1.0, -2.0, 3e12, 1e15, 2.0**53])
@example(doc=[1e12, -1e12, 123456789012345.67, 9999999999999998.0, -5.5e15])
@example(doc=[5e-324, -5e-324, -0.0, 0.0, [-0.0], {"z": -0.0}])
@example(doc=[float("nan"), 0.5, float("-inf"), [float("inf"), 1]])
@example(doc={"s": np.float32(0.1), "v": np.array([0.1, -0.0, 1e-45, np.nan], dtype=np.float32),
              "m": np.array([[0.5, 1e13], [2.0, -0.0]], dtype=np.float32)})
@example(doc={"b": np.bool_(False), "i": np.int64(-7), "u": np.uint8(200),
              "f": np.float64(1e14 / 3), "a": np.array([[1, 2]], dtype=np.int32)})
@example(doc=(1.5, (2, "x", ()), [np.float64(2.5), (None, True)]))
@example(doc={3: "int", 2.5: [1e13], None: 0, False: 1.0, "3x": {7: -0.0}})
def test_renderer_writes_what_json_dumps_writes(tmp_path_factory, doc):
    # json.dumps of the plain document: a drawn doc holds plain types only,
    # so _plain_reference(doc, float) is doc with null for each non-finite float
    path = tmp_path_factory.mktemp("writer") / "doc.json"
    assert _dumped(doc, path) == _reference_text(doc, float)
    assert json_text(doc) == _reference_text(doc, _rounded)


class TestSha256:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"abc123")
        assert sha256_file(path) == hashlib.sha256(b"abc123").hexdigest()

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            sha256_file(tmp_path / "absent.bin")


@given(seed=st.integers(0, 2**32 - 1), offset=st.floats(-1e-12, 1e-12))
def test_pmf_round_trip_is_bitwise(tmp_path_factory, seed, offset):
    # a valid pmf whose sum sits anywhere in the validation band comes back
    # bitwise: rounding the written entries could push the sum out of it
    p = np.random.default_rng(seed).random((3, 3, 2))
    p = p / p.sum() * (1.0 + offset)
    try:
        d = Dist3(p)
    except InvalidDistribution:
        reject()
    path = tmp_path_factory.mktemp("pmf") / "d.json"
    dump_json(dump_dist(d), path)
    assert load_dist(path).p.tobytes() == d.p.tobytes()


# One valid document per integer-carrying format, with the loader that reads
# it; the rejection cases below each replace one integer by a non-integer.
VALID_DOCS = {
    "dist": (load_dist, {"dims": [1, 2, 2], "p": [[[0.25, 0.25], [0.25, 0.25]]]}),
    "sparse": (load_dist, {"dims": [2, 2, 1], "entries": [
        {"x": 0, "y": 0, "z": 0, "p": 0.5}, {"x": 1, "y": 1, "z": 0, "p": 0.5}]}),
    "phases": (lambda path: load_phases(path, (2, 2, 1)),
               {"entries": [{"x": 1, "y": 1, "z": 0, "phi": 1.0}]}),
    "state": (load_state, {"dims": [1, 2], "re": [[0.5, 0.0], [0.0, 0.5]]}),
    "tree": (load_tree, {"rounds": 0, "dim_a": 1, "dim_b": 1, "nodes": {},
                         "leaf_a": {"": [{"re": [[1.0]]}]},
                         "leaf_b": {"": [{"re": [[1.0]]}]}}),
}


def _load_with(tmp_path, kind, where, value):
    """Load VALID_DOCS[kind] with the field at path ``where`` set to value."""
    loader, doc = VALID_DOCS[kind]
    doc = copy.deepcopy(doc)
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return loader(path)


@pytest.mark.parametrize("kind", sorted(VALID_DOCS))
def test_valid_integer_fields_load(tmp_path, kind):
    loader, doc = VALID_DOCS[kind]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    loader(path)


@pytest.mark.parametrize("kind, where, value", [
    ("dist", ("dims", 0), True),
    ("dist", ("dims", 0), 1.0),
    ("sparse", ("entries", 1, "x"), 1.7),
    ("sparse", ("entries", 1, "y"), "1"),
    ("sparse", ("entries", 0, "z"), False),
    ("phases", ("entries", 0, "x"), True),
    ("phases", ("entries", 0, "y"), "1"),
    ("phases", ("entries", 0, "z"), 0.0),
    ("phases", ("entries", 0, "x"), -1),
    ("state", ("dims", 0), True),
    ("tree", ("rounds",), False),
    ("tree", ("dim_a",), True),
    ("tree", ("dim_b",), 1.0),
])
def test_integer_fields_reject_non_integers(tmp_path, kind, where, value):
    with pytest.raises(UsageError):
        _load_with(tmp_path, kind, where, value)


@pytest.mark.parametrize("kind, where, value", [
    ("dist", ("p",), [[[True, 0], [0, 0]]]),
    ("dist", ("p",), [[["1", 0], [0, 0]]]),
    ("sparse", ("entries", 0, "p"), "0.5"),
    ("sparse", ("entries",), [{"x": 0, "y": 0, "z": 0, "p": True}]),
    ("phases", ("entries", 0, "phi"), "3.14"),
    ("phases", ("entries", 0, "phi"), True),
    ("state", ("re", 0, 0), "0.5"),
    ("state", ("re", 0, 1), False),
    ("state", ("im",), [[0, False], [False, 0]]),
    ("tree", ("leaf_a", "", 0, "re", 0, 0), "1"),
    ("dist", ("p", 0, 0, 0), 10**400),
    ("dist", ("p", 0, 0, 0), math.nan),
    ("sparse", ("entries", 0, "p"), 10**400),
    ("sparse", ("entries", 0, "p"), math.inf),
    ("phases", ("entries", 0, "phi"), 10**400),
    ("phases", ("entries", 0, "phi"), -math.inf),
    ("state", ("re", 0, 0), 10**400),
    ("state", ("im",), [[0, 10**400], [-(10**400), 0]]),
    ("tree", ("leaf_a", "", 0, "re", 0, 0), 10**400),
    ("tree", ("leaf_a", "", 0, "re", 0, 0), math.nan),
    ("dist", ("p", 0, 0, 0), None),
    ("dist", ("p", 0, 0, 0), math.inf),
    ("dist", ("p", 0, 1), [0.5, -math.inf]),
    ("dist", ("p", 0, 1), [0.5, [0.5]]),
    ("state", ("re", 0, 0), None),
    ("state", ("im",), [[0.0, 0.0], [0.0]]),
], ids=lambda v: "huge" if type(v) is int and v > 2**1024 else None)
def test_number_fields_reject_non_numbers(tmp_path, kind, where, value):
    # float() would read the strings and booleans as valid numbers; the
    # rest do not convert to a finite float (json writes NaN and Infinity)
    with pytest.raises(UsageError):
        _load_with(tmp_path, kind, where, value)


@pytest.mark.parametrize("value, verdict", [
    (0.5, True), (3, True), ([], True), ([[]], True), ([1, 0.5, -2], True),
    ([[0.5], [1, 2.0, 3]], True),  # ragged
    ([0.5, [0.25, [1]]], True),  # nested to different depths
    (True, False), ([0.5, True], False), ([[1.0], [False]], False),
    ("0.5", False), (["0.5"], False), (None, False), ([0.5, None], False),
    ([math.nan], False), ([[0.5, math.inf]], False), ([-math.inf, 0.5], False),
    (10**400, False), ([0.5, 10**400], False), ([[1], [-(10**400)]], False),
    ({"p": 0.5}, False), ([0.5, {"p": 0.5}], False),
], ids=lambda v: "huge" if type(v) is int and v > 2**1024 else None)
def test_only_numbers_accepts_finite_numbers_in_nested_lists(value, verdict):
    # a number is an int or float, not a bool, that converts to a finite float
    assert io._only_numbers(value) is verdict


def _two_round_tree(nodes: tuple[str, ...], leaf_a: str, leaf_b: str) -> dict:
    """1x1 tree document with one-outcome nodes under the given keys."""
    op = [{"re": [[1.0]]}]
    return {"rounds": 2, "dim_a": 1, "dim_b": 1,
            "nodes": {k: [op] for k in nodes},
            "leaf_a": {leaf_a: op}, "leaf_b": {leaf_b: op}}


@pytest.mark.parametrize("nodes, leaf_a, leaf_b", [
    (("", " 0"), "0,0", "0,0"),
    (("", "+0"), "0,0", "0,0"),
    (("", "00"), "0,0", "0,0"),
    (("", "0"), "+0,0", "0,0"),
    (("", "0"), "0,0", "0, 0"),
    (("", "0"), "0,0", "0,0 "),
])
def test_tree_keys_must_be_canonical(tmp_path, nodes, leaf_a, leaf_b):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(_two_round_tree(("", "0"), "0,0", "0,0")))
    assert load_tree(path).histories() == ((0, 0),)
    path.write_text(json.dumps(_two_round_tree(nodes, leaf_a, leaf_b)))
    with pytest.raises(UsageError, match="bad history key"):
        load_tree(path)


def test_tree_rejects_unreached_key(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(_two_round_tree(("", "0", "7,7"), "0,0", "0,0")))
    with pytest.raises(UsageError, match="no transcript reaches"):
        load_tree(path)


# ---------------------------------------------------------------------------
# the file writer: an existing --out file is rewritten in place


def _lemma(out: Path | str) -> int:
    return cli.run(["reproduce", "lemma", "--seed", "0", "--out", str(out)])


@pytest.fixture(scope="module")
def lemma_bytes(tmp_path_factory):
    """The envelope's bytes as written into a new file."""
    path = tmp_path_factory.mktemp("fresh") / "lemma.json"
    assert _lemma(path) == 0
    return path.read_bytes()


@pytest.mark.parametrize("old", [b"x" * 100_000, b"x"], ids=["longer", "shorter"])
def test_out_over_an_existing_file_leaves_exactly_the_new_bytes(tmp_path, lemma_bytes, old):
    target = tmp_path / "lemma.json"
    target.write_bytes(old)
    assert _lemma(target) == 0
    assert target.read_bytes() == lemma_bytes


def test_dump_json_over_an_existing_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "doc.json"
    long, short = {"p": [0.125] * 1000}, {"p": [1.0]}
    for doc in (long, short, long):
        dump_json(doc, path)
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_out_keeps_the_inode_mode_and_hard_links(tmp_path, lemma_bytes):
    target, twin = tmp_path / "lemma.json", tmp_path / "twin.json"
    target.write_bytes(b"x" * 100_000)
    target.chmod(0o600)
    os.link(target, twin)
    before = target.stat()
    assert _lemma(target) == 0
    after = target.stat()
    assert (after.st_ino, after.st_nlink) == (before.st_ino, 2)
    assert stat.S_IMODE(after.st_mode) == 0o600
    assert twin.read_bytes() == lemma_bytes


def test_out_writes_through_a_symlink(tmp_path, lemma_bytes):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_bytes(b"old")
    link.symlink_to(real)
    assert _lemma(link) == 0
    assert link.is_symlink()
    assert real.read_bytes() == lemma_bytes


def test_out_to_dev_null(tmp_path):
    assert _lemma(os.devnull) == 0


def test_no_existing_output_is_opened_with_truncation(tmp_path, monkeypatch):
    # open(path, "w") and O_TRUNC cut a file to length 0 before writing,
    # which makes ext4 flush it on close; the writer cuts it at its new end
    target, doc = tmp_path / "lemma.json", tmp_path / "doc.json"
    assert _lemma(target) == 0
    dump_json({"p": [0.5]}, doc)
    real_os_open, real_open = os.open, builtins.open
    opened, truncated = [], []

    def spy_os_open(path, flags, *args, **kwargs):
        opened.append(os.fspath(path))
        if flags & os.O_TRUNC and os.path.exists(path):
            truncated.append(os.fspath(path))
        return real_os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int):
            opened.append(os.fspath(file))
            if "w" in mode and os.path.exists(file):
                truncated.append(os.fspath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr("io.open", spy_open)  # the name pathlib opens through
    assert _lemma(target) == 0
    dump_json({"p": [0.25]}, doc)
    assert {str(target), str(doc)} <= set(opened)
    assert truncated == []
