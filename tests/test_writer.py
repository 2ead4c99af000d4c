"""The instance writer: ``dump_instance`` streams the bytes that
``json.dump`` writes of the dict form, checks the digit limit before it
opens its file, and leaves its arguments as they were."""
import json
import sys
import tracemalloc
from fractions import Fraction

import pytest

from ncmatch import adversaries, serial
from ncmatch.cli import FAMILIES
from ncmatch.errors import RationalTooLarge
from ncmatch.geometry import BNM, GENERAL, MNM, Instance, plane_point

# one call per family of `ncmatch generate`, varied by seed
_BUILDS = {
    "bnm-perm": lambda s: FAMILIES["bnm-perm"](((1,), (2, 1, 3), (3, 1, 2, 5, 4))[s]),
    "mnm-family": lambda s: FAMILIES["mnm-family"](2, s + 1, range(1, 3 * s + 2, 3)),
    "markov": lambda s: FAMILIES["markov"](12 + s, s),
    "random-convex": lambda s: FAMILIES["random-convex"](5 + s, (MNM, BNM)[s % 2], s),
    "random-general": lambda s: FAMILIES["random-general"](6 + s, s),
}


def _dict_form(payload, meta=None) -> dict:
    if isinstance(payload, adversaries.AnnotatedInstance):
        doc = serial.annotated_to_json(payload)
        return {**doc, "meta": {**doc["meta"], **(meta or {})}}
    return serial.instance_to_json(payload, meta=meta)


def _dumped(tmp_path, payload, meta=None) -> str:
    path = tmp_path / "out.json"
    serial.dump_instance(path, payload, meta=meta)
    return path.read_text()


@pytest.fixture
def digit_limit():
    """Sets the interpreter's int-to-str digit limit for one test."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", list(FAMILIES))
def test_dump_writes_json_dump_of_the_dict_form(tmp_path, family, seed):
    assert set(_BUILDS) == set(FAMILIES)
    payload = _BUILDS[family](seed)
    meta = {"family": family, "seed": seed}
    for m in (None, meta):
        expected = json.dumps(_dict_form(payload, m), indent=2) + "\n"
        assert _dumped(tmp_path, payload, m) == expected


def test_dump_of_bare_and_annotated_instances_matches_the_dict_form(tmp_path):
    inst = Instance.build(
        [plane_point(Fraction(1, 3), Fraction(-2, 7), 1), plane_point(5, Fraction(1, 2), 2)],
        MNM, GENERAL,
    )
    for meta in (None, {}, {"note": "two points", "nested": {"a": [1, 2]}}):
        assert _dumped(tmp_path, inst, meta) == json.dumps(
            serial.instance_to_json(inst, meta=meta), indent=2
        ) + "\n"
    empty = Instance.from_rows([], MNM, GENERAL, validate=False)  # "points": []
    assert _dumped(tmp_path, empty) == json.dumps(serial.instance_to_json(empty), indent=2) + "\n"
    ai = adversaries.markov_instance(3, 1)
    meta = {"seed": 99, "generator": "x"}
    assert _dumped(tmp_path, ai, meta) == json.dumps(_dict_form(ai, meta), indent=2) + "\n"


def test_dump_merges_meta_into_a_copy(tmp_path):
    ai = adversaries.markov_instance(3, 1)
    before = dict(ai.meta)
    written = json.loads(_dumped(tmp_path, ai, {"seed": 99, "generator": "x"}))
    assert written["meta"] == {**before, "seed": 99, "generator": "x"}
    assert list(written["meta"]) == [*before, "generator"]
    assert ai.meta == before and "generator" not in ai.meta
    serial.annotated_to_json(ai)["meta"]["seed"] = 99
    assert ai.meta == before


def test_dumping_a_markov_file_at_n_2000_peaks_under_1_mb(tmp_path):
    # the dict form of this 3.7 MB file takes 4.8 MB; the writer holds a few points
    ai = adversaries.markov_instance(2000, 1)
    tracemalloc.start()
    try:
        serial.dump_instance(tmp_path / "m.json", ai)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"{peak / 1e6:.2f} MB"


def test_a_dump_past_the_digit_limit_leaves_the_file_as_it_was(tmp_path, digit_limit):
    digit_limit(4300)
    inst = Instance.build([plane_point(10**4400, 0, 1), plane_point(1, 1, 2)], MNM, GENERAL)
    path = tmp_path / "kept.json"
    path.write_bytes(b"previous contents\n")
    with pytest.raises(RationalTooLarge) as dumped:
        serial.dump_instance(path, inst)
    assert path.read_bytes() == b"previous contents\n"
    with pytest.raises(RationalTooLarge) as listed:
        serial.instance_to_json(inst)
    assert str(dumped.value) == str(listed.value)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("digits", [640, 641])
def test_the_digit_check_agrees_with_the_interpreter_on_signed_literals(
    tmp_path, digit_limit, sign, digits
):
    digit_limit(640)
    value = sign * (10**digits - 1)
    try:
        str(value)
        converts = True
    except ValueError:
        converts = False
    assert converts == (digits == 640)  # the interpreter does not count the sign
    inst = Instance.build([plane_point(value, 0, 1), plane_point(1, 1, 2)], MNM, GENERAL)
    if converts:
        expected = json.dumps(serial.instance_to_json(inst), indent=2) + "\n"
        assert _dumped(tmp_path, inst) == expected
    else:
        with pytest.raises(RationalTooLarge):
            serial.dump_instance(tmp_path / "x.json", inst)
        assert not (tmp_path / "x.json").exists()


def test_a_unit_past_the_limit_whose_literals_are_not_is_written(tmp_path, digit_limit):
    # the unit 2**2000 * 5**850 has 1196 digits, each literal at most 603
    digit_limit(640)
    inst = Instance.build(
        [plane_point(Fraction(1, 2**2000), 0, 1), plane_point(Fraction(1, 5**850), 1, 2)],
        MNM, GENERAL,
    )
    with pytest.raises(ValueError):
        str(inst.grid[1])
    expected = json.dumps(serial.instance_to_json(inst), indent=2) + "\n"
    assert _dumped(tmp_path, inst) == expected
