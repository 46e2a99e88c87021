"""Model persistence: canonical layout, round-trips, corruption handling."""

import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest
from conftest import CSV_HEADER, make_lognormal

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
    fit,
    load,
    save,
)
from errant import model_store

KEY_A = ProfileKey.from_string("specific/norway/telia/4G/good")
KEY_B = ProfileKey.from_string("universal/any/any/3G/bad")


def saved_text(bundle, tmp_path, name="saved.json"):
    """The text ``save`` writes for ``bundle``."""
    path = tmp_path / name
    save(bundle, path)
    return path.read_text(encoding="utf-8")


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


def test_model_keys_sorted_in_file(tmp_path):
    bundle = two_model_bundle()
    text = saved_text(bundle, tmp_path)
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
    doc = json.loads(saved_text(two_model_bundle(), tmp_path))
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
    doc = json.loads(saved_text(two_model_bundle(), tmp_path))
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
    path = tmp_path / "m.json"
    save(ModelBundle(models={KEY_B: built}), path)
    assert saved_text(load(path), tmp_path) == path.read_text(encoding="utf-8")


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


def eight_model_bundle():
    return ModelBundle(
        models={
            ProfileKey.from_string(f"specific/country{index}/telia/4G/good"):
                fit(make_lognormal(2000, seed=index))
            for index in range(8)
        },
        created="2026-08-14T12:00:00+00:00",
    )


@pytest.mark.parametrize(
    "make_bundle",
    [lambda: ModelBundle(created="2026-01-01T00:00:00+00:00"),
     lambda: ModelBundle(models={KEY_A: fit(make_lognormal(120, seed=1))}),
     eight_model_bundle],
    ids=["empty", "one-model", "eight-models"],
)
def test_save_writes_the_same_bytes_at_any_block_size(tmp_path, monkeypatch, make_bundle):
    bundle = make_bundle()
    save(bundle, tmp_path / "default.json")
    monkeypatch.setattr(model_store, "_BLOCK", 1)
    save(bundle, tmp_path / "one.json")
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "default.json").read_bytes()


def test_save_memory_stays_per_model(tmp_path):
    # guards the streamed save: it holds one block's text at a time, never the whole file's
    bundle = eight_model_bundle()
    path = tmp_path / "m.json"
    tracemalloc.start()
    try:
        save(bundle, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def one_piece_text(model):
    """A model's points as one format call over all of them: the layout blocks must keep."""
    values = tuple(map(float.__repr__, model.points.ravel().tolist()))
    return ",\n".join(["        [%s, %s, %s]"] * model.n) % values


def one_piece_file_text(bundle):
    """The canonical text with each model's points rendered in one piece."""
    head = f'{{\n  "format_version": 1,\n  "created": {json.dumps(bundle.created)},\n  "models": {{'
    tail = "\n  }\n}\n"
    models = []
    for key in sorted(bundle.models):
        model = bundle.models[key]
        covariance = ", ".join(map(float.__repr__, model.covariance.ravel().tolist()))
        models.append("\n".join([
            f"\n    {json.dumps(key)}: {{",
            f'      "n": {model.n},',
            f'      "bandwidth_factor": {float(model.bandwidth_factor)!r},',
            f'      "covariance": [{covariance}],',
            '      "points": [',
            one_piece_text(model),
            "      ]",
            "    }",
        ]))
    return head + ",".join(models) + tail


BLOCK = errant.model_store._BLOCK


@pytest.mark.parametrize(
    "n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1], ids=["2", "B-1", "B", "B+1", "2B+1"]
)
def test_blocks_render_the_one_piece_bytes(tmp_path, n):
    # point counts at the edges of a block of B points
    points = np.exp(np.random.default_rng(n).normal(size=(n, 3))) * 1000
    bundle = ModelBundle(
        models={KEY_A: KdeModel(points, np.eye(3), 0.25),
                KEY_B: fit(make_lognormal(n + 3, seed=2))},
        created="2026-10-19T00:00:00+00:00",
    )
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save(bundle, first)
    save(load(first), second)
    assert first.read_text(encoding="utf-8") == one_piece_file_text(bundle)
    assert first.read_bytes() == second.read_bytes()


def test_save_memory_stays_per_block(tmp_path):
    # guards the blocked save: a 20k-point model is rendered a block of points at a time
    model = fit(make_lognormal(20000, seed=4))
    bundle = ModelBundle(models={KEY_A: model})
    tracemalloc.start()
    try:
        one_piece_text(model)
        _, one_piece = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        save(bundle, tmp_path / "m.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_piece / 4  # 5.8 times below here; the one-piece save read about 1


def test_load_memory_stays_per_model(tmp_path):
    # guards the model-by-model read: one model's text and nested lists are alive at a time,
    # never the whole file's text or every model's lists
    models = {
        ProfileKey(f"specific/{country}/telia/4G/good"):
            fit(np.round(make_lognormal(5000, seed=index), 3))  # rounded as the bench bundle's
        for index, country in enumerate(("denmark", "finland", "norway", "sweden"))
    }
    path = tmp_path / "m.json"
    save(ModelBundle(models=models), path)
    tracemalloc.start()
    try:
        bundle = load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    points = sum(model.n for model in bundle.models.values())
    assert points == 20000
    # 66.4 here, as three-decimal points are read with no lists (91.8 for unrounded points,
    # which JSON reads); the file's whole text read 113 (142 unrounded), every model's lists at
    # once 240
    assert peak / points < 76


def test_load_model_memory_stays_per_model(tmp_path):
    # guards the one-model read: the file is scanned a chunk at a time and only the chosen
    # model's text is decoded, so the peak follows that model, not the file
    models = {
        ProfileKey(f"specific/country{index}/telia/4G/good"):
            fit(np.round(make_lognormal(5000, seed=index), 3))  # rounded as the bench bundle's
        for index in range(8)
    }
    path = tmp_path / "m.json"
    save(ModelBundle(models=models), path)
    key = sorted(models)[3]
    tracemalloc.start()
    try:
        model = load(path, (key,)).models[key]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.n == 5000
    # 193 here (294 for unrounded points); decoding the whole file read 625, growing with it
    assert peak / model.n < 283


def test_load_reads_each_byte_once(tmp_path, monkeypatch):
    # the scan reads the file through one buffer and keeps a decoded model's text from it, so
    # no byte is read twice, whichever models it decodes
    bundle = eight_model_bundle()
    for index, key in enumerate(sorted(bundle.models)[::2]):  # half of them in three decimals
        bundle.models[key] = fit(np.round(make_lognormal(2000 + index, seed=index), 3))
    path = tmp_path / "m.json"
    save(bundle, path)
    counts = []

    class CountedFile(io.FileIO):
        def readinto(self, buffer):
            counts.append(super().readinto(buffer))
            return counts[-1]

    monkeypatch.setattr(model_store, "open", lambda name, mode: io.BufferedReader(
        CountedFile(name)), raising=False)
    refuse_whole_bundle_decode(monkeypatch)
    for keys in (None, (), [sorted(bundle.models)[5]]):
        counts.clear()
        assert len(load(path, keys).models) == len(bundle.models if keys is None else keys)
        assert sum(counts) == path.stat().st_size


def test_missing_profile_is_named_after_one_read_of_each_byte(tmp_path, monkeypatch):
    # the scan's key lines name the available profiles, so a profile that save's layout lacks
    # is refused at the scan's end: no byte read twice, and no whole-file decode
    bundle = eight_model_bundle()
    path = tmp_path / "m.json"
    save(bundle, path)
    counts = []

    class CountedFile(io.FileIO):
        def readinto(self, buffer):
            counts.append(super().readinto(buffer))
            return counts[-1]

    monkeypatch.setattr(model_store, "open", lambda name, mode: io.BufferedReader(
        CountedFile(name)), raising=False)
    refuse_whole_bundle_decode(monkeypatch)
    missing = ProfileKey("specific/narnia/telia/4G/good")
    expected = f"profile {missing} not in model file; available: {', '.join(sorted(bundle.models))}"
    with pytest.raises(FormatError, match=f"^{re.escape(expected)}$"):
        load(path, (missing,))
    assert sum(counts) == path.stat().st_size
    counts.clear()  # trace-run's read: a profile the file holds does not hide one it lacks
    with pytest.raises(FormatError, match=f"^{re.escape(expected)}$"):
        load(path, {missing, sorted(bundle.models)[3]})
    assert sum(counts) == path.stat().st_size


def test_missing_profile_is_reported_before_a_fault_in_another_model(tmp_path):
    # the scan decodes only the models it is asked for, so a model that is not asked for is not
    # checked, and the missing profile is what a file in save's layout reports
    path = tmp_path / "m.json"
    save(two_model_bundle(), path)
    path.write_text(path.read_text().replace('"n": 150,', '"n": 151,'))
    with pytest.raises(CorruptModelError, match="n=151"):
        load(path)
    with pytest.raises(FormatError, match="not in model file; available: "):
        load(path, (ProfileKey("specific/narnia/telia/4G/good"),))


def test_refused_key_keeps_the_previous_file(tmp_path):
    path = tmp_path / "m.json"
    save(two_model_bundle(), path)
    before = path.read_bytes()
    refused = ModelBundle(models={"specific/norway/telia/4g/good": two_model_bundle().models[KEY_A]})
    with pytest.raises(FormatError, match="would read back as"):
        save(refused, path)
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["m.json"]


def test_failed_replace_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    save(two_model_bundle(), path)
    before = path.read_bytes()

    def refuse(source, target):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(errant.model_store.os, "replace", refuse)
    bundle = two_model_bundle()
    bundle.created = "later"  # a save that went through would change the file
    with pytest.raises(ModelFileError, match=f"cannot write model file {path}: .*Permission denied"):
        save(bundle, path)
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["m.json"]


def test_save_to_a_name_at_the_length_limit(tmp_path):
    # the temporary file's name does not grow with the target's
    path = tmp_path / ("m" * 250 + ".json")
    save(two_model_bundle(), path)
    assert [entry.name for entry in tmp_path.iterdir()] == [path.name]
    assert saved_text(load(path), tmp_path) == path.read_text(encoding="utf-8")


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
        # lists the decode cannot turn into an array, kept as they are for this check
        ("points", [[1.0, 2.0, 3.0], [1.0, 2.0]], ": covariance and points must be numeric arrays"),
        ("points", [["x", 2.0, 3.0]] * 2, ": covariance and points must be numeric arrays"),
        ("points", [[10**400, 2.0, 3.0]] * 2, ": covariance and points must fit in a float"),
    ],
)
def test_malformed_model_object_rejected_with_profile_name(tmp_path, field, value, message):
    doc = json.loads(saved_text(two_model_bundle(), tmp_path))
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


@pytest.mark.parametrize(
    "pattern,value,reason",
    [
        (r"(\n        \[)[^,]+", '"1e3"', "covariance and points must be numeric arrays"),
        (r"(\n        \[[^,]+, )[^,]+", "true", "covariance and points must be numeric arrays"),
        (r'("covariance": \[)[^,]+', '"1e3"', "covariance and points must be numeric arrays"),
        (r'("covariance": \[)[^,]+', "true", "covariance and points must be numeric arrays"),
        (r'("n": )\d+', "150.0", "n=150.0 is not the count of 150 stored points"),
    ],
    ids=["point-text", "point-bool", "covariance-text", "covariance-bool", "n-float"],
)
def test_value_save_never_writes_is_refused(tmp_path, pattern, value, reason):
    # JSON keeps text, booleans and integers apart from floats; reading one as a number
    # would make save -> load -> save change the file
    text = saved_text(two_model_bundle(), tmp_path)
    start = text.index(json.dumps(KEY_B))
    path = tmp_path / "m.json"
    path.write_text(text[:start] + re.sub(pattern, lambda m: m.group(1) + value, text[start:], 1))
    expected = f"^{re.escape(f'model {KEY_B}: {reason}')}$"
    with pytest.raises(CorruptModelError, match=expected):
        load(path)
    with pytest.raises(CorruptModelError, match=expected):
        load(path, (KEY_B,)).models[KEY_B]  # the canonical layout, so only this model is decoded


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


@pytest.mark.parametrize("name", ["norway\x00", "nor\nway", "nor\u2028way"])
def test_unprintable_profile_key_rejected(tmp_path, name):
    # a hand-edited key that could not print on one line or be named on a command line
    escaped = json.dumps(name)[1:-1]
    text = saved_text(two_model_bundle(), tmp_path)
    text = text.replace("specific/norway/", f"specific/{escaped}/")
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorruptModelError, match="unprintable character in profile key"):
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


def test_save_awkward_floats_matches_golden(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8")
    assert saved_text(awkward_float_bundle(), tmp_path, "awkward.json") == expected
    path = tmp_path / "m.json"
    save(load(GOLDEN), path)
    assert path.read_text(encoding="utf-8") == expected


def repr_lines(points):
    """The reference rendering of a block of points: every value through float's repr."""
    rows = np.asarray(points, dtype=float).reshape(-1, 3).tolist()
    return ",\n".join("        [%s, %s, %s]" % tuple(map(float.__repr__, row)) for row in rows)


def test_block_text_is_what_repr_writes():
    # short decimals take the integer part and fraction table, anything else repr; both must give
    # repr's text
    rng = np.random.default_rng(30)
    blocks = [
        np.array([[2.675, 1.005, 0.125]]),  # a two-decimal format rounds the first two down
        np.array([[2.5, 1e16, 3.0], [0.5, 7.0, 12.25]]),  # repr writes 1e+16
        np.array([[2.5, 0.1, 3.0], [1.2, 123456789.12345679, 7.0]]),  # one long value
    ]
    for decimals in range(7):
        for exponent in range(-5, 18):
            values = np.round(rng.uniform(1, 10, size=(64, 3)) * 10.0 ** exponent, decimals)
            blocks += [values, np.floor(values),
                       np.nextafter(values, np.inf), np.nextafter(values, 0)]
    pool = np.concatenate([block.ravel() for block in blocks])
    blocks += [rng.choice(pool, size=(64, 3)) for _ in range(200)]  # mixed blocks
    for block in blocks:
        assert model_store._points_text(block) == repr_lines(block)


def test_short_decimals_skip_repr(monkeypatch):
    # the speed-test CSV's values, kbit/s and ms with at most three decimals
    block = np.array([[2.675, 1.005, 0.125], [16387.2, 12780.6, 44.5], [3.0, 1e11, 999.999],
                      [1000.0, 0.001, 999999999999.999]])
    monkeypatch.setattr(model_store, "_POINT", None)  # so a fall back to repr would raise
    assert model_store._points_text(block) == repr_lines(block)


def test_every_fraction_at_edge_integer_parts_is_what_repr_writes(monkeypatch):
    # the double nearest each three-decimal number, and its neighbours both ways, which the
    # three-decimal test must leave to repr; each alone among short values in a one-line block
    exact = np.array([(whole * 1000 + fraction) / 1000
                      for whole in (0, 1, 7, 65535, 999_999_999, 999_999_999_999)
                      for fraction in range(1000)])
    neighbours = [np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)]
    for value in np.concatenate([exact, *neighbours]):
        block = np.array([[2.5, value, 7.0]])
        assert model_store._points_text(block) == repr_lines(block)
    monkeypatch.setattr(model_store, "_POINT", None)  # every exact value but 0.0 skips repr
    block = np.append(exact[1:], 2.5).reshape(-1, 3)
    assert model_store._points_text(block) == repr_lines(block)


@pytest.mark.parametrize("edge", [1e12, 9.99e-5, 0.0001])
def test_values_outside_three_decimal_range_take_repr(monkeypatch, edge):
    monkeypatch.setattr(model_store, "_SHORT_POINT", None)  # so the three-decimal path would raise
    block = np.array([[2.5, edge, 7.0], [1000.0, 0.001, 999999999999.999]])
    assert model_store._points_text(block) == repr_lines(block)


def test_short_and_long_blocks_save_load_save(tmp_path):
    short = np.round(make_lognormal(BLOCK + 5, seed=9), 3)
    mixed = short.copy()
    mixed[BLOCK + 2, 1] += 1e-7  # one long value, in the second block
    bundle = ModelBundle(
        models={KEY_A: fit(short), KEY_B: fit(make_lognormal(40, seed=10)),
                KEY_NON_ASCII: fit(mixed)},
        created="2026-10-20T00:00:00+00:00",
    )
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save(bundle, first)
    save(load(first), second)
    assert first.read_text(encoding="utf-8") == one_piece_file_text(bundle)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "first,second",
    [
        ("universal/any/any/4G/good", "universal/x/y/4G/good"),
        ("specific/Norway/telia/4G/good", "specific/norway/telia/4G/good"),
        ("specific/norway/telia/4G/good", "specific/norway/telia/4G/good"),
    ],
)
def test_two_texts_naming_one_profile_rejected(tmp_path, first, second):
    body = json.dumps(json.loads(saved_text(two_model_bundle(), tmp_path))["models"][KEY_A])
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
    assert "\\u00e7" in path.read_text()  # the key is escaped the way save writes it
    bundle = load(path)
    assert len(bundle.models) == 3
    opens, decodes = [], []

    def counted_open(path, mode):
        opens.append(path)
        return open(path, mode)

    decode_whole = model_store._decode_whole
    monkeypatch.setattr(model_store, "open", counted_open, raising=False)
    monkeypatch.setattr(model_store, "_decode_whole",
                        lambda path: decodes.append(path) or decode_whole(path))
    for key, model in bundle.models.items():
        assert_same_model(load(path, (key,)).models[key], model)
    assert opens == [path] * 3  # the model-by-model scan opens the file once per call
    # a canonical file is never decoded in full; any other layout is, once per call
    assert decodes == ([] if indent is None else [path] * 3)


def refuse_whole_bundle_decode(monkeypatch):
    def whole_bundle_decode(path):
        raise AssertionError("a canonical file was decoded in full")

    monkeypatch.setattr("errant.model_store._decode_whole", whole_bundle_decode)


def outcome(read, *args):
    """What ``read(*args)`` gives: a model, or its error's type and text."""
    try:
        return read(*args)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)


def assert_same_outcome(got, expected):
    if isinstance(expected, KdeModel):
        assert_same_model(got, expected)
    elif isinstance(expected, ModelBundle):
        assert (got.created, list(got.models)) == (expected.created, list(expected.models))
        for key, model in expected.models.items():
            assert_same_model(got.models[key], model)
    else:
        assert got == expected


# a country and an operator may hold "{" and "}", so the "}" that ends a model is searched
# for only after its key line
BRACE_KEYS = [ProfileKey(text) for text in
              ("specific/a{b/op}/4G/good", "specific/}x{/{/3G/bad", "universal/any/any/4G/good")]


def brace_bundle(decimals=None):
    points = [make_lognormal(40 + 10 * index, seed=index) for index in range(len(BRACE_KEYS))]
    return ModelBundle(
        models={key: fit(block if decimals is None else np.round(block, decimals))
                for key, block in zip(BRACE_KEYS, points)},
        created="2026-10-20T00:00:00+00:00",
    )


def test_load_model_reads_one_model_under_a_key_with_braces(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    save(brace_bundle(), path)
    bundle = load(path)
    refuse_whole_bundle_decode(monkeypatch)
    for key in BRACE_KEYS:
        assert_same_model(load(path, (key,)).models[key], bundle.models[key])


@pytest.mark.parametrize("scan", [1, 2, 3, 5, 8, 13, None], ids=str)
@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
def test_load_model_finds_its_model_across_chunk_seams(tmp_path, monkeypatch, scan, position):
    # a file is read through a buffer of ``scan`` bytes: short buffers put seams all through a
    # model, and at None a buffer ends just before the model's closing "}", so "}" opens the
    # next one; three-decimal points are also decoded in blocks of lines of about that size
    refuse_whole_bundle_decode(monkeypatch)
    for decimals in (None, 3):  # points written by repr, then three-decimal ones
        path = tmp_path / f"m{decimals}.json"
        save(brace_bundle(decimals), path)
        bundle = load(path)
        key = sorted(bundle.models)[position]
        marker = f"\n{model_store._key_line(key)}\n".encode()
        size = scan
        if size is None:  # the buffers start at the file's start
            data = path.read_bytes()
            size = data.index(b"}", data.index(marker) + len(marker))
        else:
            assert size < len(marker) < len(model_store._HEAD)
        with monkeypatch.context() as patch:
            patch.setattr(model_store, "_DECODE_BYTES", size)
            patch.setattr(model_store, "open", lambda name, mode: io.BufferedReader(
                io.FileIO(name), size), raising=False)
            assert_same_model(load(path, (key,)).models[key], bundle.models[key])
            assert_same_outcome(load(path), bundle)  # every key, each across the same seams


def model_block(text, key):
    """``key``'s model in a canonical ``text``: its key line up to its closing brace."""
    start = text.index(f"\n{model_store._key_line(key)}\n") + 1
    return text[start:text.index("\n    }", start) + len("\n    }")]


def edit_key_line(key, edit):
    """A rewrite of the text: ``edit`` of ``key``'s key line."""
    return lambda text: text.replace(model_store._key_line(key), edit(model_store._key_line(key)))


def block_twice(key, edit=lambda block: block):
    """A rewrite of the text: ``key``'s model, then ``edit`` of it."""
    return lambda text: text.replace(model_block(text, key),
                                     f"{model_block(text, key)},\n{edit(model_block(text, key))}")


def blocks_swapped(text):
    first, second = model_block(text, BRACE_KEYS[0]), model_block(text, BRACE_KEYS[1])
    return text.replace(first, "\0").replace(second, first).replace("\0", second)


# each a rewrite of the canonical text of brace_bundle() that save does not write: its line
# endings, or key lines that are not all save's, where BRACE_KEYS[0] is the profile a command
# names and BRACE_KEYS[1] another
ANOTHER_LAYOUT = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "bom": lambda text: "\ufeff" + text,
    "escaped-character": edit_key_line(BRACE_KEYS[0], lambda line: line.replace("good",
                                                                                "goo\\u0064")),
    "space-before-colon": edit_key_line(BRACE_KEYS[0], lambda line: line.replace('": {', '" : {')),
    "upper-case": edit_key_line(BRACE_KEYS[0], str.upper),
    "upper-case-beside-canonical": block_twice(BRACE_KEYS[0], lambda block: block.replace(
        BRACE_KEYS[0], BRACE_KEYS[0].upper(), 1)),
    "other-key-twice": block_twice(BRACE_KEYS[1]),
    "models-swapped": blocks_swapped,
    "key-names-no-profile": edit_key_line(BRACE_KEYS[1], lambda line: line.replace(
        BRACE_KEYS[1], "bogus")),
}


@pytest.mark.parametrize("rewrite", list(ANOTHER_LAYOUT.values()), ids=list(ANOTHER_LAYOUT))
def test_load_model_of_another_layout_equals_load(tmp_path, rewrite):
    # a file that is not save's layout is decoded whole, which checks every key and builds the
    # models by their parsed keys, so each profile reads as the whole read gives it: the same
    # bits, or the same refusal
    bundle, path = brace_bundle(), tmp_path / "m.json"
    save(bundle, path)
    text = path.read_text(encoding="utf-8")
    path.write_bytes(rewrite(text).encode())
    assert path.read_bytes() != text.encode()
    expected = outcome(load, path)
    for key in BRACE_KEYS:
        if isinstance(expected, ModelBundle):
            assert_same_model(expected.models[key], bundle.models[key])
        wanted = expected.models[key] if isinstance(expected, ModelBundle) else expected
        assert_same_outcome(outcome(lambda: load(path, (key,)).models[key]), wanted)


def test_whole_decode_builds_only_the_models_asked_for(tmp_path):
    # a file decoded whole has every key checked but builds only the models of ``keys``, so a
    # fault in another model's body does not stop a one-profile read on any layout
    bundle, path = brace_bundle(), tmp_path / "m.json"
    save(bundle, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["models"][BRACE_KEYS[1]]["points"][0][0] = -1.0
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    with pytest.raises(CorruptModelError, match=re.escape(f"model {BRACE_KEYS[1]}: ")):
        load(path)
    loaded = load(path, (BRACE_KEYS[0],))
    assert list(loaded.models) == [BRACE_KEYS[0]]
    assert_same_model(loaded.models[BRACE_KEYS[0]], bundle.models[BRACE_KEYS[0]])


def short_bundle():
    return ModelBundle(
        models={KEY_A: fit(np.round(make_lognormal(40, seed=11), 3)),
                KEY_B: fit(np.round(make_lognormal(50, seed=12), 3))},
        created="2026-10-21T00:00:00+00:00",
    )


def canonical_text(bundle):
    return "".join(model_store._pieces(bundle))


def in_model_b(pattern, value):
    """A rewrite of the text: in KEY_B's model, ``pattern``'s first match after its group 1."""
    def rewrite(text):
        start = text.index(json.dumps(KEY_B))
        return text[:start] + re.sub(pattern, lambda m: m.group(1) + value, text[start:], 1)
    return rewrite


def in_doc(edit):
    """A rewrite of the text: ``edit`` of its document, written by ``json.dumps``."""
    def rewrite(text):
        doc = json.loads(text)
        edit(doc["models"])
        return json.dumps(doc)
    return rewrite


def key_a_twice(text):
    body = text[text.index(f'    "{KEY_A}"'):text.index(f'    "{KEY_B}"')]
    return text.replace(body, body + body)


def byte_not_utf8_in_model_b(text):
    data = text.encode()
    at = data.index(b'"points"', data.index(json.dumps(KEY_B).encode())) + 1
    return data[:at] + b"\xff" + data[at:]


def whole_text_outcome(monkeypatch, path):
    """What ``load(path)`` gives when it skips its scan and decodes the file's whole text."""
    def unopenable(path, mode):
        raise OSError("the scan is skipped")

    with monkeypatch.context() as patch:  # the whole decode reads through Path, not open
        patch.setattr(model_store, "open", unopenable, raising=False)
        return outcome(load, path)


MISSING, DIRECTORY = object(), object()
# each a rewrite of the canonical text of two_model_bundle(): the corrupt files of the tests
# here and of the CLI's data errors, other layouts, and canonical files of other bundles
FORK_CASES = {
    "canonical": lambda text: text,
    "empty": lambda text: canonical_text(ModelBundle(created="2026-01-01T00:00:00+00:00")),
    "brace-keys": lambda text: canonical_text(brace_bundle()),
    "non-ascii-key": lambda text: canonical_text(three_model_bundle()),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "bom": lambda text: "\ufeff" + text,
    "reindented": lambda text: json.dumps(json.loads(text), indent=1),
    "no-final-newline": lambda text: text[:-1],
    "trailing-data": lambda text: text + "{}\n",
    "truncated": lambda text: text[:len(text) // 2],
    "trailing-comma": lambda text: text.replace("\n  }\n}\n", ",\n  }\n}\n"),
    "negative-factor": lambda text: re.sub(r'("bandwidth_factor": )[^,]+', r"\1-0.5", text, 1),
    "nonfinite-factor": in_doc(lambda models: models[KEY_B].update(bandwidth_factor=np.inf)),
    "model-not-object": in_doc(lambda models: models.update({KEY_B: []})),
    "point-overflow": in_doc(lambda models: models[KEY_B].update(points=[[10**400, 2.0, 3.0]] * 2)),
    "nonpositive-point": in_model_b(r"(\n        \[)", "-"),
    "point-text": in_model_b(r"(\n        \[)[^,]+", '"1e3"'),
    "point-bool": in_model_b(r"(\n        \[[^,]+, )[^,]+", "true"),
    "covariance-text": in_model_b(r'("covariance": \[)[^,]+', '"1e3"'),
    "covariance-bool": in_model_b(r'("covariance": \[)[^,]+', "true"),
    "n-float": in_model_b(r'("n": )\d+', "150.0"),
    "n-mismatch": in_model_b(r'("n": )\d+', "151"),
    "non-psd": in_model_b(r'("covariance": \[)[^\]]+', "1.0, 0, 0, 0, -1.0, 0, 0, 0, 1.0"),
    "bad-key": lambda text: text.replace(json.dumps(KEY_A), '"bogus"'),
    "key-not-text": lambda text: text.replace(json.dumps(KEY_A), "5"),
    # a key line of save's length whose text after the key is not JSON's
    "key-line-not-json": lambda text: text.replace(f"{json.dumps(KEY_B)}: {{",
                                                   f"{json.dumps(KEY_B)}::{{"),
    "unprintable-key": lambda text: text.replace("specific/norway/", "specific/nor\\u2028way/"),
    "other-version": lambda text: text.replace('"format_version": 1', '"format_version": 2'),
    "created-not-text": lambda text: re.sub(r'"created": "[^"]*"', '"created": 5', text),
    "key-twice": key_a_twice,
    "field-twice": lambda text: text.replace('      "n": ', '      "n": 1,\n      "n": ', 1),
    "profile-twice": lambda text: text.replace(json.dumps(KEY_B), json.dumps("specific/Norway/"
                                                                             "telia/4G/good")),
    # a fault in the first model that the whole decode would report after its JSON error
    "bad-n-then-bad-json": lambda text: re.sub(r'("n": )\d+', r"\g<1>7", in_model_b(
        r"(\n        \[)", "oops, ")(text), 1),
    "not-utf8-in-model-b": byte_not_utf8_in_model_b,
    "garbage": lambda text: "{",
    "not-json": lambda text: "not json at all {{{",
    "latin1": lambda text: f"{CSV_HEADER}\n".encode() + "café\n".encode("latin-1"),
    "array": lambda text: "[]",
    "nomodels": lambda text: '{"format_version": 1}',
    "badjson": lambda text: text.replace("        [", "        [oops, ", 1),
    "three-decimal": lambda text: canonical_text(short_bundle()),
    # the closing lines of the first model's points, as long as save's, hold a second "n"
    "three-decimal-then-a-field": lambda text: canonical_text(short_bundle()).replace(
        "\n      ]\n    }", '\n ],"n": 1   }', 1),
    "missing": lambda text: MISSING,
    "directory": lambda text: DIRECTORY,
}


@pytest.mark.parametrize("rewrite", list(FORK_CASES.values()), ids=list(FORK_CASES))
def test_load_gives_what_the_whole_text_decode_gives(tmp_path, monkeypatch, rewrite):
    # the model-by-model scan and the whole-text decode it falls back to read alike
    data = rewrite(canonical_text(two_model_bundle()))
    path = tmp_path / "m.json"
    if data is DIRECTORY:
        path.mkdir()
    elif data is not MISSING:
        path.write_bytes(data.encode() if isinstance(data, str) else data)
    assert_same_outcome(outcome(load, path), whole_text_outcome(monkeypatch, path))


# each the text that replaces the third point line of KEY_B's model in the canonical text of
# short_bundle(), with the ",\n" before it; {a}, {b} and {c} are that line's values
SHORT_LINE_CASES = {
    "canonical": ",\n        [{a}, {b}, {c}]",
    "twelve-digit-integer-part": ",\n        [999999999999.999, {b}, {c}]",
    "leading-zero": ",\n        [0{a}, {b}, {c}]",
    "no-fraction-digit": ",\n        [1., {b}, {c}]",
    "no-integer-digit": ",\n        [.5, {b}, {c}]",
    "four-decimals": ",\n        [1.2345, {b}, {c}]",
    "integer": ",\n        [15, {b}, {c}]",
    "thirteen-digit-integer-part": ",\n        [1234567890123.5, {b}, {c}]",
    "exponent": ",\n        [1e3, {b}, {c}]",
    "minus": ",\n        [-1.5, {b}, {c}]",
    "plus": ",\n        [+1.5, {b}, {c}]",
    "tab": ",\n        [{a},\t{b}, {c}]",
    "extra-space": ",\n        [{a},  {b}, {c}]",
    "value-outside-its-slot": ",\n   {a}     [, {b}, {c}]",
    "digits-outside-a-slot": ",\n   15     [{a}, {b}, {c}]",
    "two-values-in-a-slot": ",\n        [{a}, {b} {b}, {c}]",
    "two-dots-in-a-slot": ",\n        [{a}.5, 25, {c}]",
    "empty-slot": ",\n        [{a}, , {c}]",
    "no-line-break": ", [{a}, {b}, {c}]",
    "no-comma": "\n        [{a}, {b}, {c}]",
}


@pytest.mark.parametrize("scan", [None, 1], ids=["one-block", "line-blocks"])
@pytest.mark.parametrize("case", list(SHORT_LINE_CASES.values()), ids=list(SHORT_LINE_CASES))
def test_three_decimal_points_read_as_json_reads_them(tmp_path, monkeypatch, case, scan):
    # the three-decimal reader takes only save's lines; any other text gives what JSON gives,
    # by JSON of the one model if JSON reads the text, else by the whole-text decode
    text = canonical_text(short_bundle())
    lines = re.compile(r",\n        \[([\d.]+), ([\d.]+), ([\d.]+)\]")  # all but the first
    match = list(lines.finditer(text, text.index(json.dumps(KEY_B))))[1]
    text = "".join([text[:match.start()], case.format(a=match[1], b=match[2], c=match[3]),
                    text[match.end():]])
    path = tmp_path / "m.json"
    path.write_text(text)
    expected = whole_text_outcome(monkeypatch, path)
    with suppress(json.JSONDecodeError):  # a text that JSON reads is never decoded whole
        json.loads(text)
        refuse_whole_bundle_decode(monkeypatch)
    if scan is not None:
        monkeypatch.setattr(model_store, "_DECODE_BYTES", scan)
    assert_same_outcome(outcome(load, path), expected)
    assert_same_outcome(outcome(lambda: load(path, (KEY_B,)).models[KEY_B]),
                        expected.models[KEY_B] if isinstance(expected, ModelBundle) else expected)


@pytest.mark.parametrize("scan", [None, 1, 100], ids=str)
def test_three_decimal_points_read_bit_for_bit(tmp_path, monkeypatch, scan):
    # every fraction at the edges of the integer part reads as float() reads its text, and never
    # through JSON: no text that json.loads reads holds a point line
    exact = [(whole * 1000 + fraction) / 1000
             for whole in (0, 1, 7, 65535, 999_999_999_999) for fraction in range(1000)]
    points = np.array(exact[1:] + [2.5, 3.5]).reshape(-1, 3)  # 0.0 is written by repr
    path = tmp_path / "m.json"
    save(ModelBundle(models={KEY_A: KdeModel(points, np.eye(3), 1.0)}), path)
    lines = path.read_text().split('"points": [')[1].split("\n      ]")[0]
    texts = re.findall(r"[^ \[\],\n]+", lines)
    assert len(texts) == points.size
    assert all(re.fullmatch(r"(0|[1-9][0-9]{0,11})\.[0-9]{1,3}", text) for text in texts)
    json_loads = json.loads

    def loads(text, **kwargs):
        assert "        [" not in text
        return json_loads(text, **kwargs)

    if scan is not None:
        monkeypatch.setattr(model_store, "_DECODE_BYTES", scan)
    monkeypatch.setattr(json, "loads", loads)
    refuse_whole_bundle_decode(monkeypatch)
    loaded = load(path).models[KEY_A].points
    assert loaded.tobytes() == np.array([float(text) for text in texts]).tobytes()


@pytest.mark.parametrize("broken", [1, 0], ids=["other-model", "selected-model"])
def test_load_model_reads_past_a_byte_that_is_not_utf8_only_in_another_model(tmp_path, broken):
    path = tmp_path / "m.json"
    save(brace_bundle(), path)
    clean = load(path)
    data = path.read_bytes()
    # a byte that is not UTF-8 inside a field name of one model; the other model is read
    at = data.index(b'"points"', data.index(json.dumps(BRACE_KEYS[broken]).encode())) + 1
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    refused = outcome(load, path)
    assert refused[0] is ModelFileError and f"in position {at}:" in refused[1]
    got = outcome(lambda: load(path, (BRACE_KEYS[0],)).models[BRACE_KEYS[0]])
    assert_same_outcome(got, clean.models[BRACE_KEYS[0]] if broken else refused)


def test_load_model_refuses_other_version(tmp_path):
    path = tmp_path / "m.json"
    save(two_model_bundle(), path)
    path.write_text(path.read_text().replace('"format_version": 1', '"format_version": 2'))
    with pytest.raises(VersionError, match="format_version 2"):
        load(path, (KEY_A,)).models[KEY_A]


def test_load_model_refuses_key_written_twice(tmp_path):
    # a key line occurs twice, so the file is not save's layout: it is decoded whole and refused
    path = tmp_path / "m.json"
    save(two_model_bundle(), path)
    text = path.read_text()
    body = text[text.index(f'    "{KEY_A}"') : text.index(f'    "{KEY_B}"')]
    path.write_text(text.replace(body, body + body))
    with pytest.raises(CorruptModelError, match="appears twice"):
        load(path, (KEY_A,)).models[KEY_A]


@pytest.mark.parametrize("indent", [None, 1], ids=["canonical", "reindented"])
def test_load_names_every_missing_profile_and_every_available_one(tmp_path, indent):
    path = tmp_path / "m.json"
    save(two_model_bundle(), path)
    if indent is not None:  # decoded whole, so its models name the available profiles
        path.write_text(json.dumps(json.loads(path.read_text()), indent=indent))
    missing = sorted(map(ProfileKey, ("universal/any/any/4G/good", "specific/narnia/telia/4G/good")))
    expected = f"profiles {missing[0]}, {missing[1]} not in model file; available: {KEY_A}, {KEY_B}"
    with pytest.raises(FormatError, match=f"^{re.escape(expected)}$"):
        load(path, [missing[1], KEY_A, missing[0]])


def test_load_model_names_available_profiles(tmp_path):
    path = tmp_path / "m.json"
    save(two_model_bundle(), path)
    missing = ProfileKey.from_string("universal/any/any/4G/good")
    expected = (
        f"profile {missing} not in model file; "
        f"available: {KEY_A}, {KEY_B}"
    )
    with pytest.raises(FormatError, match=f"^{re.escape(expected)}$"):
        load(path, (missing,))
