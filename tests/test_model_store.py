"""Model persistence: canonical layout, round-trips, corruption handling."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import make_lognormal

from errant import (
    CorruptModelError,
    KdeModel,
    ModelBundle,
    ModelFileError,
    ProfileKey,
    VersionError,
    dumps,
    fit,
    load,
    save,
)

KEY_A = ProfileKey.from_string("specific/norway/telia/4G/good")
KEY_B = ProfileKey.from_string("universal/any/any/3G/bad")


def two_model_bundle():
    return ModelBundle(
        models={
            KEY_A: fit(make_lognormal(120, seed=1)),
            KEY_B: fit(make_lognormal(150, seed=2)),
        },
        created="2026-08-14T12:00:00+00:00",
    )


def test_models_by_name_view():
    bundle = two_model_bundle()
    by_name = bundle.models_by_name()
    assert set(by_name) == {KEY_A.as_string(), KEY_B.as_string()}
    assert by_name[KEY_A.as_string()] is bundle.models[KEY_A]


def test_round_trip_identity(tmp_path):
    bundle = two_model_bundle()
    path = tmp_path / "models.json"
    save(bundle, path)
    loaded = load(path)
    assert json.loads(path.read_text())["format_version"] == 1
    assert loaded.created == bundle.created
    assert set(loaded.models) == set(bundle.models)
    for key, original in bundle.models.items():
        restored = loaded.models[key]
        np.testing.assert_array_equal(restored.points, original.points)
        np.testing.assert_array_equal(restored.covariance, original.covariance)
        assert restored.bandwidth_factor == original.bandwidth_factor


def test_save_load_save_byte_identical(tmp_path):
    bundle = two_model_bundle()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save(bundle, first)
    save(load(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_empty_bundle_round_trips(tmp_path):
    path = tmp_path / "empty.json"
    save(ModelBundle(created="2026-01-01T00:00:00+00:00"), path)
    assert load(path).models == {}


def test_file_is_plain_json_with_one_point_per_line(tmp_path):
    bundle = ModelBundle(models={KEY_A: fit(make_lognormal(100, seed=3))})
    path = tmp_path / "m.json"
    save(bundle, path)
    text = path.read_text()
    # independent reader: stdlib json sees the same structure
    doc = json.loads(text)
    assert doc["format_version"] == 1
    assert doc["models"][KEY_A.as_string()]["n"] == 100
    assert len(doc["models"][KEY_A.as_string()]["points"]) == 100
    assert len(doc["models"][KEY_A.as_string()]["covariance"]) == 9
    # layout: exactly 100 single-line point rows
    point_lines = [line for line in text.splitlines() if re.fullmatch(r"\s+\[[-0-9005.e+, ]+\],?", line)]
    assert len(point_lines) == 100


def test_model_keys_sorted_in_file():
    bundle = two_model_bundle()
    text = dumps(bundle)
    position_a = text.index(KEY_A.as_string())
    position_b = text.index(KEY_B.as_string())
    assert position_a < position_b  # "specific/..." sorts before "universal/..."


def test_floats_round_trip_exactly(tmp_path):
    # awkward values: many digits, tiny magnitudes
    points = make_lognormal(10, seed=4) * 1e-3 + 1e-9
    bundle = ModelBundle(models={KEY_A: fit(points)})
    path = tmp_path / "m.json"
    save(bundle, path)
    np.testing.assert_array_equal(load(path).models[KEY_A].points, points)


def test_negative_factor_rejected_with_profile_name(tmp_path):
    bundle = ModelBundle(models={KEY_A: fit(make_lognormal(50, seed=5))})
    path = tmp_path / "m.json"
    save(bundle, path)
    text = path.read_text()
    factor = re.search(r'"bandwidth_factor": ([0-9.e+-]+)', text).group(1)
    path.write_text(text.replace(f'"bandwidth_factor": {factor}', '"bandwidth_factor": -0.5'))
    with pytest.raises(CorruptModelError, match=re.escape(KEY_A.as_string())):
        load(path)



@pytest.mark.parametrize("factor", [float("inf"), 1e308])
def test_nonfinite_kernel_covariance_rejected_with_profile_name(tmp_path, factor):
    doc = json.loads(dumps(two_model_bundle()))
    doc["models"][KEY_B.as_string()]["bandwidth_factor"] = factor
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))  # json writes inf as Infinity, which json reads back
    with pytest.raises(CorruptModelError, match=re.escape(f"model {KEY_B.as_string()}: ")):
        load(path)


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_nonpositive_point_rejected_with_profile_name(tmp_path, value):
    doc = json.loads(dumps(two_model_bundle()))
    doc["models"][KEY_B.as_string()]["points"][3][1] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModelError, match=re.escape(f"model {KEY_B.as_string()}: stored")):
        load(path)

def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "m.json"
    save(ModelBundle(), path)
    path.write_text(path.read_text().replace('"format_version": 1', '"format_version": 99'))
    with pytest.raises(VersionError, match="99"):
        load(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("not json at all {{{")
    with pytest.raises(ModelFileError):
        load(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ModelFileError, match="nope.json"):
        load(tmp_path / "nope.json")


def test_point_count_mismatch_rejected(tmp_path):
    bundle = ModelBundle(models={KEY_A: fit(make_lognormal(10, seed=6))})
    path = tmp_path / "m.json"
    save(bundle, path)
    path.write_text(path.read_text().replace('"n": 10,', '"n": 11,'))
    with pytest.raises(CorruptModelError, match="11"):
        load(path)


def test_non_psd_covariance_rejected(tmp_path):
    doc = {
        "format_version": 1,
        "created": "",
        "models": {
            KEY_A.as_string(): {
                "n": 2,
                "bandwidth_factor": 0.5,
                "covariance": [1.0, 0, 0, 0, -1.0, 0, 0, 0, 1.0],
                "points": [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
            }
        },
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModelError, match="semi-definite"):
        load(path)


def test_bad_profile_key_rejected(tmp_path):
    doc = {"format_version": 1, "created": "", "models": {"bogus": {}}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModelError, match="bogus"):
        load(path)


GOLDEN = Path(__file__).parent / "golden" / "model_awkward_floats.json"


def awkward_float_bundle():
    """Two models whose floats stress repr: subnormals, 1e16, long mantissas."""
    return ModelBundle(
        models={
            KEY_A: KdeModel(
                points=np.array(
                    [
                        [5e-324, 0.1, 2.0],
                        [1e16, 123456789.12345679, 1e-310],
                        [0.1, 2.0, 0.30000000000000004],
                    ]
                ),
                covariance=np.array(
                    [[2.0, -0.5, 0.1], [-0.5, 1.0, -1e-310], [0.1, -1e-310, 0.5]]
                ),
                bandwidth_factor=0.1,
            ),
            KEY_B: KdeModel(
                points=np.array([[1e16, 5e-324, 2.0], [1e-310, 123456789.12345679, 0.1]]),
                covariance=np.array(
                    [[1.0, -0.25, -0.125], [-0.25, 1e16, -2.0], [-0.125, -2.0, 1.0]]
                ),
                bandwidth_factor=2.0,
            ),
        },
        created="2026-10-18T00:00:00+00:00",
    )


def test_dumps_awkward_floats_matches_golden(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8")
    assert dumps(awkward_float_bundle()) == expected
    path = tmp_path / "m.json"
    save(load(GOLDEN), path)
    assert path.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize(
    "first,second",
    [
        ("universal/any/any/4G/good", "universal/x/y/4G/good"),
        ("specific/Norway/telia/4G/good", "specific/norway/telia/4G/good"),
        ("specific/norway/telia/4G/good", "specific/norway/telia/4G/good"),
    ],
)
def test_two_texts_naming_one_profile_rejected(tmp_path, first, second):
    body = json.dumps(json.loads(dumps(two_model_bundle()))["models"][KEY_A.as_string()])
    path = tmp_path / "m.json"
    models = f"{json.dumps(first)}: {body}, {json.dumps(second)}: {body}"
    path.write_text(f'{{"format_version": 1, "created": "", "models": {{{models}}}}}')
    with pytest.raises(CorruptModelError) as caught:
        load(path)
    assert repr(first) in str(caught.value) and repr(second) in str(caught.value)
