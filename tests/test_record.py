"""Value semantics of the five record classes: construction checks, tuple
storage, equality, hashing, repr and read-only fields; and ``read_json``,
which must read a file as ``json.loads`` reads its text."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from repvar.affc import affc_closed_form, affc_datum
from repvar.finite_group import ConjugacyClasses, FiniteGroup
from repvar.poly import ONE, Q
from repvar.record import MAX_JSON_DEPTH, echo, read_json
from repvar.tqft import (
    GENUS_TUBE,
    SurfaceSpec,
    TqftDatum,
    TubeGenerator,
    epoly_rep_variety,
    puncture_tube,
)

# name -> (builder from list arguments, the value each field must hold)
RECORDS = {
    "TubeGenerator": (
        lambda: TubeGenerator("puncture", "t"),
        {"kind": "puncture", "label": "t"},
    ),
    "SurfaceSpec": (
        lambda: SurfaceSpec(2, ["a", "b"]),
        {"genus": 2, "punctures": ("a", "b")},
    ),
    "TqftDatum": (
        lambda: TqftDatum(
            e_g=ONE,
            tubes={GENUS_TUBE: [[Q]], puncture_tube("t"): [[ONE]]},
            disc_in=[ONE],
            disc_out=[ONE],
        ),
        {
            "e_g": ONE,
            "tubes": {GENUS_TUBE: ((Q,),), puncture_tube("t"): ((ONE,),)},
            "disc_in": (ONE,),
            "disc_out": (ONE,),
        },
    ),
    "FiniteGroup": (
        lambda: FiniteGroup([[0, 1], [1, 0]], [0, 1]),
        {"mult": ((0, 1), (1, 0)), "inverse": (0, 1)},
    ),
    "ConjugacyClasses": (
        lambda: ConjugacyClasses([0, 1], [[0], [1]]),
        {"class_of": (0, 1), "members": ((0,), (1,))},
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_sequence_arguments_are_stored_as_tuples(record):
    build, fields = record
    value = build()
    for name, expected in fields.items():
        # A list never equals a tuple, so this also checks the type.
        assert getattr(value, name) == expected


def test_equal_values_compare_and_hash_equal(record):
    build, _ = record
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert not first != second
    if isinstance(first, TqftDatum):
        # Its tubes are a dict, so a datum is not hashable.
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


def test_fields_are_read_only(record):
    build, fields = record
    value = build()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert build() == value


def test_values_differ_by_field():
    assert SurfaceSpec(2) != SurfaceSpec(3)
    assert SurfaceSpec(1, ("a",)) != SurfaceSpec(1, ("b",))
    assert TubeGenerator("genus") != TubeGenerator("identity")
    assert FiniteGroup([[0]], [0]) != FiniteGroup([[0, 1], [1, 0]], [0, 1])
    # A record never equals a tuple of its fields.
    assert SurfaceSpec(0) != (0, ())


def test_repr_names_every_field():
    assert repr(TubeGenerator("genus")) == "TubeGenerator(kind='genus', label=None)"
    assert repr(SurfaceSpec(1, ["t"])) == "SurfaceSpec(genus=1, punctures=('t',))"
    assert repr(ConjugacyClasses([0], [[0]])) == "ConjugacyClasses(class_of=(0,), members=((0,),))"


def test_validation_messages():
    with pytest.raises(ValueError, match="unknown tube kind 'pair_of_pants'"):
        TubeGenerator("pair_of_pants")
    with pytest.raises(ValueError, match="exactly puncture tubes carry a label"):
        TubeGenerator("genus", "spurious-label")
    with pytest.raises(ValueError, match="exactly puncture tubes carry a label"):
        TubeGenerator("puncture")
    with pytest.raises(ValueError, match="genus must be >= 0"):
        SurfaceSpec(-1)


def test_evaluating_a_datum_leaves_its_value_and_repr_unchanged():
    datum = affc_datum()
    before = repr(datum)
    assert epoly_rep_variety(datum, SurfaceSpec(2)) == affc_closed_form(2)
    assert datum == affc_datum()
    assert repr(datum) == before
    assert sorted(vars(datum)) == sorted(TqftDatum._fields)  # nothing is cached on it


def test_echo_quotes_a_short_value_whole_and_cuts_a_long_one():
    assert echo([0, "a"]) == "[0, 'a']"
    cut = echo("x" * 5000)
    assert cut.startswith("'xxx") and cut.endswith("... (5002 characters)")
    assert len(cut) < 120


def test_echo_cuts_another_form_of_the_value_the_same_way():
    assert echo("x", str) == "x"
    assert echo("x" * 5000, str) == "x" * 80 + "... (5000 characters)"


def test_a_record_pickled_in_another_process_hashes_as_here():
    # A cached hash would travel with the pickle, but a string's hash
    # differs between processes, so the tube could not be looked up.
    code = (
        "import pickle, sys; from repvar.tqft import puncture_tube; "
        "tubes = {puncture_tube('t'): 1}; hash(puncture_tube('t')); "
        "sys.stdout.buffer.write(pickle.dumps(tubes))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "1"}
    dumped = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True
    ).stdout
    assert pickle.loads(dumped)[puncture_tube("t")] == 1


ROOT = Path(__file__).resolve().parent.parent


class Refused(Exception):
    pass


def read_json_outcome(path):
    """What ``read_json`` gives for the file: the ``repr`` of the value or
    the message it refuses the file with."""
    try:
        return repr(read_json(path, "group", Refused))
    except Refused as exc:
        return f"refused: {exc}"


def loads_outcome(text):
    """The same for ``json.loads`` on ``text``."""
    try:
        return repr(json.loads(text))
    except json.JSONDecodeError as exc:
        return f"refused: group file is not valid JSON: {exc}"


@pytest.mark.parametrize(
    "path", sorted((ROOT / "data").glob("*/*.json")), ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_read_json_gives_what_json_loads_gives_on_every_shipped_file(path):
    assert read_json_outcome(path) == loads_outcome(path.read_text(encoding="utf-8"))


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.text()
    | st.text(st.characters(categories=["Cs", "Cc", "Co"]) | st.sampled_from('"\\/\t\n'))
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=MAX_JSON_DEPTH // 4,
)
JSON_SPACE = st.text(" \t\n\r", max_size=3) | st.text(" \t\n\r\x0c\u00a0\ufeffx]", max_size=3)


@pytest.fixture(scope="module")
def json_file(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "file.json"


@settings(max_examples=300, deadline=None)
@given(
    value=JSON_VALUES, ensure_ascii=st.booleans(), raw=st.booleans(), before=JSON_SPACE, after=JSON_SPACE,
    edit=st.none() | st.tuples(
        st.floats(0, 1), st.booleans(), st.text(st.sampled_from('\t\x00"\\,]}') | st.characters(), max_size=2)
    ),
)
def test_read_json_gives_what_json_loads_gives(json_file, value, ensure_ascii, raw, before, after, edit):
    # The same value, or the same refusal in json.loads' words, for texts
    # json.dumps writes, with tabs and newlines in strings left raw as
    # strict JSON forbids, padded with whitespace or other characters, and
    # edited: a few characters inserted at a point, the rest of the text
    # kept or cut off.
    text = json.dumps(value, ensure_ascii=ensure_ascii)
    if raw:
        text = text.replace("\\t", "\t").replace("\\n", "\n")
    text = before + text + after
    if edit is not None:
        where, cut, inserted = edit
        at = round(where * len(text))
        text = text[:at] + inserted + ("" if cut else text[at:])
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, written unescaped
        assume(False)
    json_file.write_bytes(data)
    assert read_json_outcome(json_file) == loads_outcome(json_file.read_text(encoding="utf-8"))
