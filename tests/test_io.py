import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelcodes import (
    Field,
    StiefelCode,
    dumps_code,
    loads_code,
    read_code_file,
    ssc_sphere,
    write_code_file,
)
from stiefelcodes.errors import InvalidParameter, SchemaError
from stiefelcodes.io import code_from_dict, code_to_dict, render_json

from conftest import random_code

R, C = Field.REAL, Field.COMPLEX


def test_round_trip_bit_exact():
    code = random_code(C, 4, 2, 5, seed=3)
    back, meta = loads_code(dumps_code(code, {"note": "x"}))
    assert back.field is C
    assert np.array_equal(back.array, code.array)
    assert meta == {"note": "x"}


def test_round_trip_real_code():
    code = ssc_sphere(R, 3, 4)
    back, _ = loads_code(dumps_code(code))
    assert back.field is R
    assert np.array_equal(back.array, code.array)


def test_file_round_trip(tmp_path):
    code = random_code(R, 3, 1, 4, seed=1)
    path = tmp_path / "code.json"
    write_code_file(path, code, {"seed": 1})
    back, meta = read_code_file(path)
    assert np.array_equal(back.array, code.array)
    assert meta["seed"] == 1


def test_serialization_deterministic():
    code = random_code(C, 3, 2, 4, seed=9)
    assert dumps_code(code, {"b": 1, "a": 2}) == dumps_code(code, {"a": 2, "b": 1})


def test_seventeen_digit_floats_round_trip():
    # an awkward double must survive the text round trip exactly
    val = 0.1 + 0.2
    arr = np.zeros((2, 1, 1), dtype=np.complex128)
    arr[0, 0, 0] = val
    arr[1, 0, 0] = -1.0
    code = StiefelCode(C, arr / np.abs(arr))
    text = dumps_code(code)
    back, _ = loads_code(text)
    assert np.array_equal(back.array, code.array)


def test_schema_version_present():
    data = json.loads(dumps_code(ssc_sphere(R, 2, 2)))
    assert data["schema_version"] == 1
    assert data["field"] == "R"
    assert data["n"] == 2


def test_real_field_rejects_imaginary_parts():
    data = code_to_dict(ssc_sphere(C, 1, 3))
    data["field"] = "R"
    with pytest.raises(SchemaError):
        code_from_dict(data)


def test_malformed_inputs():
    with pytest.raises(SchemaError):
        loads_code("{broken")
    with pytest.raises(SchemaError):
        code_from_dict({"schema_version": 1})
    good = code_to_dict(ssc_sphere(R, 2, 2))
    bad = dict(good, field="Q")
    with pytest.raises(SchemaError):
        code_from_dict(bad)
    bad = dict(good, n=3)
    with pytest.raises(SchemaError):
        code_from_dict(bad)
    bad = dict(good, matrices=[[[["x", 0]]]])
    with pytest.raises(SchemaError):
        code_from_dict(bad)


def test_single_point_file_rejected():
    good = code_to_dict(ssc_sphere(R, 2, 2))
    bad = dict(good, n=1, matrices=good["matrices"][:1])
    with pytest.raises(SchemaError):
        code_from_dict(bad)


# Written by the writer before it was vectorised; the bytes must not change.
PINNED_TEXT = (
    '{"schema_version": 1, "field": "C", "d": 2, "r": 1, "n": 2, '
    '"metadata": {"k": 2, "note": "pinned"}, "matrices": '
    "[[[[0.30000000000000004, -0]], [[4.9406564584124654e-324, 1]]], "
    "[[[-0, 1.1125369292536007e-308]], [[-1, 1.0000000000000001e+300]]]]}\n"
)


def pinned_code():
    arr = np.array(
        [
            [[complex(0.1 + 0.2, -0.0)], [complex(5e-324, 1.0)]],
            [[complex(-0.0, 1.1125369292536007e-308)], [complex(-1.0, 1e300)]],
        ]
    )
    return StiefelCode(C, arr)


def test_writer_bytes_pinned():
    assert dumps_code(pinned_code(), {"note": "pinned", "k": 2}) == PINNED_TEXT


def test_pinned_text_reads_back_bit_identical():
    back, meta = loads_code(PINNED_TEXT)
    assert back.array.tobytes() == pinned_code().array.tobytes()  # keeps both -0.0
    assert meta == {"k": 2, "note": "pinned"}


def test_code_to_dict_matches_written_file():
    code = pinned_code()
    assert render_json(code_to_dict(code, {"a": 1})) + "\n" == dumps_code(code, {"a": 1})


def test_writer_rejects_non_finite():
    arr = np.zeros((2, 1, 1), dtype=np.complex128)
    arr[1, 0, 0] = complex(1.0, np.inf)
    with pytest.raises(InvalidParameter, match="non-finite"):
        dumps_code(StiefelCode(C, arr))


edge_doubles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, sys.float_info.min / 3, sys.float_info.max, -sys.float_info.max]
)


@st.composite
def codes(draw):
    field = draw(st.sampled_from([R, C]))
    r = draw(st.integers(1, 3))
    d = draw(st.integers(r, 4))
    n = draw(st.integers(2, 5))
    re = draw(st.lists(edge_doubles, min_size=n * d * r, max_size=n * d * r))
    arr = np.array(re, dtype=np.complex128).reshape(n, d, r)
    if field is C:
        im = draw(st.lists(edge_doubles, min_size=n * d * r, max_size=n * d * r))
        arr.imag = np.array(im).reshape(n, d, r)
    return StiefelCode(field, arr)


@settings(max_examples=200, deadline=None)
@given(codes())
def test_round_trip_bit_identical_doubles(code):
    back, _ = loads_code(dumps_code(code))
    assert back.field is code.field
    assert back.array.tobytes() == code.array.tobytes()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=40,
)


@st.composite
def code_like_dicts(draw):
    """A valid code file's dict with some fields replaced by arbitrary JSON."""
    data = code_to_dict(random_code(draw(st.sampled_from([R, C])), 2, 1, 2, seed=0))
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=3)):
        data[key] = draw(json_values)
    return data


@settings(max_examples=300, deadline=None)
@given(json_values | code_like_dicts())
def test_parser_gives_a_code_or_schema_error(data):
    try:
        code, meta = code_from_dict(data)
    except SchemaError:
        return
    assert isinstance(code, StiefelCode) and isinstance(meta, dict)
    assert np.isfinite(code.array.view(np.float64)).all()


def file_text(matrices, **header):
    data = {"schema_version": 1, "field": "R", "d": 1, "r": 1, "n": 2, "metadata": {}}
    data.update(header)
    return json.dumps(data)[:-1] + ', "matrices": ' + matrices + "}"


HOSTILE_FILES = {
    "booleans": file_text("[[[[true, 0]]], [[[-1, false]]]]"),
    "nan": file_text("[[[[NaN, 0]]], [[[-1, 0]]]]"),
    "infinity": file_text("[[[[Infinity, 0]]], [[[-1, 0]]]]"),
    "minus-infinity": file_text("[[[[-Infinity, 0]]], [[[-1, 0]]]]"),
    "float-overflow": file_text("[[[[1e400, 0]]], [[[-1, 0]]]]"),
    "int-overflow": file_text("[[[[" + "9" * 400 + ", 0]]], [[[-1, 0]]]]"),
    "string-entry": file_text('[[[["1", 0]]], [[[-1, 0]]]]'),
    "null-entry": file_text("[[[[null, 0]]], [[[-1, 0]]]]"),
    "triple": file_text("[[[[1, 0, 0]]], [[[-1, 0]]]]"),
    "ragged-rows": file_text("[[[[1, 0]]], [[[-1, 0], [0, 0]]]]"),
    "nested-entry": file_text("[[[[1, [0]]]], [[[-1, 0]]]]"),
    "negative-d": file_text("[[[[1, 0]]], [[[-1, 0]]]]", d=-1),
    "boolean-d": file_text("[[[[1, 0]]], [[[-1, 0]]]]", d=True),
    "float-n": file_text("[[[[1, 0]]], [[[-1, 0]]]]", n=2.0),
    "string-r": file_text("[[[[1, 0]]], [[[-1, 0]]]]", r="1"),
    "huge-header": file_text("[]", d=10**6, n=10**6),
    "boolean-version": file_text("[[[[1, 0]]], [[[-1, 0]]]]", schema_version=True),
    "deep-nesting": "[" * 100000,
}


@pytest.mark.parametrize("text", HOSTILE_FILES.values(), ids=HOSTILE_FILES.keys())
def test_hostile_files_rejected(text):
    with pytest.raises(SchemaError):
        loads_code(text)
    with pytest.raises(SchemaError):
        loads_code(text.encode("utf-8", "surrogatepass"))


def test_schema_errors_are_not_rewrapped():
    with pytest.raises(SchemaError, match="^matrices array has shape"):
        loads_code(file_text("[[[[1, 0]]]]"))


def test_non_utf8_bytes_rejected():
    with pytest.raises(SchemaError, match="not valid JSON"):
        loads_code(b"\xff\xfe{}")


def test_valid_integer_entries_accepted():
    code, _ = loads_code(file_text("[[[[1, 0]]], [[[-1, -0]]]]"))
    assert code.array.view(np.float64).tolist() == [[[1.0, 0.0]], [[-1.0, -0.0]]]
    assert np.signbit(code.array[1, 0, 0].imag)
