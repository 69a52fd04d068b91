"""The report writer against the two-pass serializer it replaced.

``_oracle_dump`` is that serializer, kept verbatim: ``_to_jsonable``
turned numpy values into nested Python lists and scalars, then ``_emit``
walked the result and formatted one float at a time.  The writer in
``gascert.config`` must give the same bytes and the same errors.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import gascert.cli
from conftest import CONFIG_DIR
from gascert.cli import main
from gascert.config import dump_report


def _to_jsonable(x):
    if isinstance(x, np.ndarray):
        return [_to_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, dict):
        return {str(k): _to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_to_jsonable(v) for v in x]
    return x


def _emit(x, out, indent):
    pad = "  " * indent
    if x is None:
        out.append("null")
    elif isinstance(x, bool):
        out.append("true" if x else "false")
    elif isinstance(x, int):
        out.append(str(x))
    elif isinstance(x, float):
        if not np.isfinite(x):
            raise ValueError("reports must not contain non-finite numbers")
        out.append(f"{x:.17g}")
    elif isinstance(x, str):
        out.append(json.dumps(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(x)
        for i, k in enumerate(keys):
            out.append(f"{pad}  {json.dumps(str(k))}: ")
            _emit(x[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(x):
            out.append(pad + "  ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(x) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")


def _oracle_dump(report):
    out = []
    _emit(_to_jsonable(report), out, 0)
    out.append("\n")
    return "".join(out)


DEMOS = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("command", ["connective", "riccati", "smallgain", "simulate"])
@pytest.mark.parametrize("demo", DEMOS)
def test_demo_reports_match_oracle(demo, command, tmp_path, monkeypatch, capsys):
    docs = []

    def checked_dump(doc):
        text = dump_report(doc)
        assert text == _oracle_dump(doc)
        docs.append(doc)
        return text

    monkeypatch.setattr(gascert.cli, "dump_report", checked_dump)
    argv = [command, str(CONFIG_DIR / f"{demo}.json")]
    if command == "simulate":
        argv += ["--mode", "dist", "--out", str(tmp_path / "trace.csv")]
    rc = main(argv)
    # dc_pair and weak_pair have no scenario, so simulate writes no report
    assert len(docs) == (0 if rc == 1 else 1)
    assert rc != 1 or command == "simulate"


RNG = np.random.default_rng(7)

HAND_MADE = {
    "float (0,)": np.zeros(0),
    "float (0, 3)": np.zeros((0, 3)),
    "float (3, 0)": np.zeros((3, 0)),
    "float (2, 0, 3)": np.zeros((2, 0, 3)),
    "float (1, 1)": np.array([[-0.0]]),
    "float (4,)": RNG.normal(size=4),
    "float (3, 5)": RNG.normal(size=(3, 5)) * 10.0 ** RNG.integers(-300, 300, size=(3, 5)),
    "float (2, 3, 4)": RNG.normal(size=(2, 3, 4)),
    "float32": RNG.normal(size=(3, 2)).astype(np.float32),
    "float16": np.array([0.1, 65504.0], dtype=np.float16),
    "transposed view": RNG.normal(size=(3, 4)).T,
    "int": np.arange(6).reshape(2, 3),
    "int empty": np.zeros((2, 0), dtype=int),
    "bool": np.array([[True, False], [False, True]]),
    "numpy scalars": [np.float64(0.1), np.float32(0.1), np.int64(-3), np.int8(7),
                      np.bool_(True), np.bool_(False)],
    "list of arrays": [np.eye(2), np.ones(3, dtype=int), [np.zeros((0, 2)), np.eye(1)]],
    "tuple": (1, 2.5, None, "x"),
    "strings": ["100% of %s and %d", 'say "hi"', "it's", "\\ back", "\n", "é "],
    "nested": {"b": {"z": [], "y": {}}, "a": [[[]]], 3: "int key", "c": True},
    "plain": {"none": None, "t": True, "f": False, "i": 10 ** 20, "x": 1e-320},
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_hand_made_documents_match_oracle(name):
    doc = {"value": HAND_MADE[name], "pad": {"deeper": [HAND_MADE[name]]}}
    assert dump_report(doc) == _oracle_dump(doc)


@pytest.mark.parametrize("value", [np.array(2.5), np.array(-3), np.array(True)])
def test_zero_dimensional_array_is_its_scalar(value):
    # the old serializer could not iterate a 0-D array and raised
    # TypeError; the writer gives the value of its only entry
    with pytest.raises(TypeError):
        _oracle_dump({"v": value})
    assert dump_report({"v": value}) == _oracle_dump({"v": value[()]})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["scalar", "numpy scalar", "array", "deep array"])
def test_non_finite_rejected_like_oracle(bad, where):
    value = {
        "scalar": float(bad),
        "numpy scalar": np.float64(bad),
        "array": np.array([[1.0, bad], [0.0, 2.0]]),
        "deep array": [{"P": np.array([1.0, 2.0, bad], dtype=np.float32)}],
    }[where]
    with pytest.raises(ValueError) as want:
        _oracle_dump({"v": value})
    with pytest.raises(ValueError) as got:
        dump_report({"v": value})
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [object(), {1, 2}, np.array([1 + 2j]), 1j])
def test_unserializable_rejected_like_oracle(value):
    with pytest.raises(TypeError):
        _oracle_dump({"v": value})
    with pytest.raises(TypeError):
        dump_report({"v": value})


def _scalars_for_oracle(x):
    """``x`` with each 0-D array as its only entry, which the oracle cannot
    iterate (see the test above)."""
    if isinstance(x, np.ndarray) and x.ndim == 0:
        return x[()]
    if isinstance(x, dict):
        return {k: _scalars_for_oracle(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(_scalars_for_oracle, x))
    return x


def _reports(finite):
    """Nested reports: dicts with text keys (non-ASCII, escapes) and int keys,
    lists and tuples of Python and numpy scalars (``np.float64`` is a ``float``
    subclass) and of arrays of every rank up to 3, 0-D and empty ones too."""
    def floats(width=64):
        return st.floats(allow_nan=not finite, allow_infinity=not finite, width=width)

    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(), floats(), st.text(), floats().map(np.float64),
        floats(32).map(np.float32), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
        st.booleans().map(np.bool_),
        hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
                   hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                   elements={"allow_nan": not finite, "allow_infinity": not finite}))
    keys = st.one_of(st.text(), st.integers())
    return st.dictionaries(keys, st.recursive(
        leaves, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                        st.lists(inner, max_size=4).map(tuple),
                                        st.dictionaries(keys, inner, max_size=4)),
        max_leaves=12), max_size=4)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(report=_reports(finite=True))
def test_random_reports_match_oracle(report):
    assert dump_report(report) == _oracle_dump(_scalars_for_oracle(report))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(report=_reports(finite=False))
def test_random_non_finite_reports_raise_like_oracle(report):
    try:
        want = _oracle_dump(_scalars_for_oracle(report))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            dump_report(report)
        assert str(got.value) == str(exc)
    else:
        assert dump_report(report) == want
