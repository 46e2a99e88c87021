"""Model persistence: canonical layout, round-trips, corruption handling."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import make_lognormal

import errant
from errant import (
    CorruptModelError,
    FitError,
    FormatError,
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
from errant.model_store import load_model

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
    assert doc["models"][KEY_A]["n"] == 100
    assert len(doc["models"][KEY_A]["points"]) == 100
    assert len(doc["models"][KEY_A]["covariance"]) == 9
    # layout: exactly 100 single-line point rows
    point_lines = [line for line in text.splitlines() if re.fullmatch(r"\s+\[[-0-9005.e+, ]+\],?", line)]
    assert len(point_lines) == 100


def test_model_keys_sorted_in_file():
    bundle = two_model_bundle()
    text = dumps(bundle)
    position_a = text.index(KEY_A)
    position_b = text.index(KEY_B)
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
    with pytest.raises(CorruptModelError, match=re.escape(KEY_A)):
        load(path)



@pytest.mark.parametrize("factor", [float("inf"), 1e308])
def test_nonfinite_kernel_covariance_rejected_with_profile_name(tmp_path, factor):
    doc = json.loads(dumps(two_model_bundle()))
    doc["models"][KEY_B]["bandwidth_factor"] = factor
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))  # json writes inf as Infinity, which json reads back
    with pytest.raises(CorruptModelError, match=re.escape(f"model {KEY_B}: ")):
        load(path)


def _with_point(points, value):
    """``points`` with one entry set to ``value``, or only its first point for None."""
    if value is None:
        return points[:1]
    points = points.copy()
    points[3, 1] = value
    return points


@pytest.mark.parametrize("value", [0.0, -1.0, pytest.param(None, id="one-point")])
def test_nonpositive_point_rejected_with_profile_name(tmp_path, value):
    # a model cannot hold what load refuses, and both refuse it in the same words
    model = two_model_bundle().models[KEY_B]
    points = _with_point(model.points, value)
    if value is None:
        reason = "points must be an (n, 3) array with n >= 2"
    else:
        reason = "stored points must be positive"
    with pytest.raises(FitError, match=f"^{re.escape(reason)}$"):
        KdeModel(points, model.covariance, model.bandwidth_factor)
    doc = json.loads(dumps(two_model_bundle()))
    doc["models"][KEY_B].update(n=len(points), points=points.tolist())
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModelError, match=re.escape(f"model {KEY_B}: {reason}")):
        load(path)


@pytest.mark.parametrize(
    "value",
    [0.0, -1.0, pytest.param(None, id="one-point"), np.nan, np.inf, 5.0],
)
def test_a_model_that_exists_saves_and_reads_back(tmp_path, value):
    # KdeModel refuses the points, or the model it builds reads back as saved
    model = two_model_bundle().models[KEY_B]
    try:
        built = KdeModel(_with_point(model.points, value), model.covariance, model.bandwidth_factor)
    except FitError:
        return
    text = dumps(ModelBundle(models={KEY_B: built}))
    path = tmp_path / "m.json"
    path.write_text(text)
    assert dumps(load(path)) == text


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


SAVE_OVER_THE_SIZE_LIMIT = """
import resource, signal, sys
from errant import ModelFileError, load, save
bundle = load(sys.argv[1])
bundle.created = "later"  # a save that went through would change the file
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # so a write past the limit fails with EFBIG
resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    save(bundle, sys.argv[1])
except ModelFileError as exc:
    print(exc)
"""


def test_failed_save_keeps_the_previous_file(tmp_path):
    # the child alone runs under the file size limit, which cuts its save short
    path = tmp_path / "m.json"
    save(ModelBundle(models={KEY_A: fit(make_lognormal(3000, seed=8))}), path)
    before = path.read_bytes()
    assert len(before) > 100_000
    env = dict(os.environ, PYTHONPATH=str(Path(errant.__file__).parent.parent))
    child = subprocess.run([sys.executable, "-c", SAVE_OVER_THE_SIZE_LIMIT, str(path)], env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    assert child.stdout.startswith(f"cannot write model file {path}: ")
    assert "File too large" in child.stdout
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["m.json"]


def test_save_to_a_name_at_the_length_limit(tmp_path):
    # the temporary file's name does not grow with the target's
    path = tmp_path / ("m" * 250 + ".json")
    save(two_model_bundle(), path)
    assert dumps(load(path)) == dumps(two_model_bundle())
    assert [entry.name for entry in tmp_path.iterdir()] == [path.name]


def test_unwritable_path_rejected(tmp_path):
    with pytest.raises(ModelFileError, match="cannot write model file .*nowhere"):
        save(two_model_bundle(), tmp_path / "nowhere" / "m.json")


@pytest.mark.parametrize(
    "field,value,message",
    [
        (None, [], " must be an object"),
        ("points", None, ": missing field 'points'"),
        ("bandwidth_factor", "0.5", ": bandwidth_factor must be a number"),
        ("bandwidth_factor", True, ": bandwidth_factor must be a number"),
        ("covariance", ["x"] * 9, ": covariance and points must be numeric arrays"),
        ("covariance", [1.0] * 8, ": covariance must hold exactly 9 numbers"),
        ("points", [[1.0, 2.0, 3.0]], ": points must be an (n, 3) array with n >= 2"),
    ],
)
def test_malformed_model_object_rejected_with_profile_name(tmp_path, field, value, message):
    doc = json.loads(dumps(two_model_bundle()))
    models = doc["models"]
    if field is None:  # the whole model object
        models[KEY_B] = value
    elif value is None:
        del models[KEY_B][field]
    else:
        models[KEY_B][field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    expected = f"model {KEY_B}{message}"
    with pytest.raises(CorruptModelError, match=f"^{re.escape(expected)}$"):
        load(path)


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
            KEY_A: {
                "n": 2,
                "bandwidth_factor": 0.5,
                "covariance": [1.0, 0, 0, 0, -1.0, 0, 0, 0, 1.0],
                "points": [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
            }
        },
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptModelError, match="not positive definite"):
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
    body = json.dumps(json.loads(dumps(two_model_bundle()))["models"][KEY_A])
    path = tmp_path / "m.json"
    models = f"{json.dumps(first)}: {body}, {json.dumps(second)}: {body}"
    path.write_text(f'{{"format_version": 1, "created": "", "models": {{{models}}}}}')
    with pytest.raises(CorruptModelError) as caught:
        load(path)
    assert repr(first) in str(caught.value) and repr(second) in str(caught.value)


KEY_NON_ASCII = ProfileKey.from_string("specific/curaçao/digicel/3G/ordinary")


def three_model_bundle():
    bundle = two_model_bundle()
    bundle.models[KEY_NON_ASCII] = fit(make_lognormal(90, seed=7))
    return bundle


def assert_same_model(loaded, expected):
    np.testing.assert_array_equal(loaded.points, expected.points)
    np.testing.assert_array_equal(loaded.covariance, expected.covariance)
    assert loaded.bandwidth_factor == expected.bandwidth_factor


@pytest.mark.parametrize("indent", [None, 1], ids=["canonical", "reindented"])
def test_load_model_equals_whole_bundle_load(tmp_path, monkeypatch, indent):
    path = tmp_path / "m.json"
    save(three_model_bundle(), path)
    if indent is not None:  # another layout: read in full through load
        path.write_text(json.dumps(json.loads(path.read_text()), indent=indent))
    assert "\\u00e7" in path.read_text()  # the key is escaped the way dumps writes it
    bundle = load(path)
    assert len(bundle.models) == 3
    if indent is None:  # a canonical file is never decoded in full

        def whole_bundle_decode(text, path):
            raise AssertionError("a canonical file was decoded in full")

        monkeypatch.setattr("errant.model_store._bundle", whole_bundle_decode)
    reads = []
    monkeypatch.setattr(
        "errant.model_store._read_text", lambda path: reads.append(path) or Path(path).read_text()
    )
    for key, model in bundle.models.items():
        assert_same_model(load_model(path, key), model)
    assert reads == [path] * 3  # the file is read once per call, in either layout


def test_load_model_refuses_other_version(tmp_path):
    path = tmp_path / "m.json"
    save(two_model_bundle(), path)
    path.write_text(path.read_text().replace('"format_version": 1', '"format_version": 2'))
    with pytest.raises(VersionError, match="format_version 2"):
        load_model(path, KEY_A)


def test_load_model_refuses_key_written_twice(tmp_path):
    # the marker line occurs twice, so the whole file is read and refused
    path = tmp_path / "m.json"
    save(two_model_bundle(), path)
    text = path.read_text()
    body = text[text.index(f'    "{KEY_A}"') : text.index(f'    "{KEY_B}"')]
    path.write_text(text.replace(body, body + body))
    with pytest.raises(CorruptModelError, match="appears twice"):
        load_model(path, KEY_A)


def test_load_model_names_available_profiles(tmp_path):
    path = tmp_path / "m.json"
    save(two_model_bundle(), path)
    missing = ProfileKey.from_string("universal/any/any/4G/good")
    expected = (
        f"profile {missing} not in model file; "
        f"available: {KEY_A}, {KEY_B}"
    )
    with pytest.raises(FormatError, match=f"^{re.escape(expected)}$"):
        load_model(path, missing)
