"""Profile grouping, filtering, and summary statistics."""

import numpy as np
import pytest
from conftest import make_lognormal

from errant import (
    FormatError,
    ModelBundle,
    ProfileKey,
    Rat,
    SpeedTests,
    bin_signal,
    build_profiles,
    dimension_stats,
    filter_profiles,
    fit,
    load,
    save,
)


def record(country="norway", operator="telia", rat=Rat.FOUR_G, rssi=-70.0, values=(1000, 500, 40)):
    return (country, operator, rat, rssi, tuple(values))


def speed_tests(records):
    """Stack ``record()`` tuples into the columnar table build_profiles takes."""
    countries, operators, rats, rssi, values = zip(*records)
    return SpeedTests(
        country=np.array(countries, dtype=str),
        operator=np.array(operators, dtype=str),
        rat=np.array([rat.value for rat in rats], dtype=str),
        rssi=np.array(rssi, dtype=float),
        samples=np.array(values, dtype=float),
    )


def test_every_record_in_one_specific_and_one_universal():
    records = [
        record(),
        record(),
        record(operator="ice"),
    ]
    profiles = build_profiles(speed_tests(records))
    telia = ProfileKey.from_string("specific/norway/telia/4G/good")
    ice = ProfileKey.from_string("specific/norway/ice/4G/good")
    universal = ProfileKey.from_string("universal/any/any/4G/good")
    assert len(profiles[telia]) == 2
    assert len(profiles[ice]) == 1
    assert len(profiles[universal]) == 3


def test_universal_pools_across_operators_only_same_rat_quality():
    records = [record(), record(rat=Rat.THREE_G, rssi=-90.0)]
    profiles = build_profiles(speed_tests(records))
    assert len(profiles[ProfileKey.from_string("universal/any/any/4G/good")]) == 1
    assert len(profiles[ProfileKey.from_string("universal/any/any/3G/ordinary")]) == 1


def test_partition_property():
    rng = np.random.default_rng(11)
    countries = ["norway", "italy"]
    operators = ["a", "b", "c"]
    records = []
    for _ in range(500):
        rat = Rat.THREE_G if rng.random() < 0.5 else Rat.FOUR_G
        records.append(
            record(
                country=countries[rng.integers(2)],
                operator=operators[rng.integers(3)],
                rat=rat,
                rssi=float(rng.uniform(-120, -40)),
                values=tuple(rng.uniform(1, 100, 3)),
            )
        )
    profiles = build_profiles(speed_tests(records))
    specific_total = sum(len(p) for key, p in profiles.items() if key.startswith("specific/"))
    universal_total = sum(len(p) for key, p in profiles.items() if key.startswith("universal/"))
    assert specific_total == 500
    assert universal_total == 500


def per_row_profiles(records):
    """Reference grouping: bin_signal per record, a dict of sample lists."""
    buckets = {}
    for country, operator, rat, rssi, values in records:
        quality = bin_signal(rat, rssi)
        specific = ProfileKey(f"specific/{country}/{operator}/{rat}/{quality}")
        universal = ProfileKey(f"universal/any/any/{rat}/{quality}")
        for key in (specific, universal):
            buckets.setdefault(key, []).append(values)
    return buckets


def test_grouping_matches_per_row_reference():
    rng = np.random.default_rng(23)
    pairs = [("norway", "telia"), ("norway", "ice"), ("italy", "tim"), ("italy", "wind tre"),
             ("spain", "movistar"), ("spain", "orange"), ("italy, north", "a:b")]
    edges = [-100.0, -85.0, -75.0]
    data = make_lognormal(3000, seed=24)
    records = []
    for values in data:
        country, operator = pairs[rng.integers(len(pairs))]
        rat = Rat.THREE_G if rng.random() < 0.4 else Rat.FOUR_G
        rssi = edges[rng.integers(3)] if rng.random() < 0.5 else float(rng.uniform(-120, -50))
        records.append(record(country, operator, rat, rssi, tuple(values)))
    expected = per_row_profiles(records)
    profiles = build_profiles(speed_tests(records))
    assert list(profiles) == list(expected)  # first-appearance order
    for key, rows in expected.items():
        assert np.array_equal(profiles[key], np.array(rows))
    on_edges = {(rat, rssi) for _, _, rat, rssi, _ in records if rssi in edges}
    assert len(on_edges) == 6  # every edge is hit under both RATs


def test_no_rows_give_no_profiles():
    empty = SpeedTests(
        country=np.array([], dtype=str),
        operator=np.array([], dtype=str),
        rat=np.array([], dtype=str),
        rssi=np.array([], dtype=float),
        samples=np.empty((0, 3)),
    )
    assert build_profiles(empty) == {}


def test_filter_boundary_inclusive():
    at_99 = {"k99": make_lognormal(99, seed=1)}
    at_100 = {"k100": make_lognormal(100, seed=2)}
    assert filter_profiles(at_99) == {}
    assert filter_profiles(at_100) == at_100


def test_filter_min_one_keeps_everything():
    profiles = {"a": make_lognormal(3, seed=1), "b": make_lognormal(7, seed=2)}
    assert filter_profiles(profiles, min_samples=1) == profiles
    with pytest.raises(ValueError, match="at least 1"):
        filter_profiles(profiles, min_samples=0)


def test_filter_idempotent():
    profiles = {"a": make_lognormal(150, seed=1), "b": make_lognormal(50, seed=2)}
    once = filter_profiles(profiles)
    assert filter_profiles(once) == once


def test_dimension_stats_small_series():
    stats = dimension_stats([10.0, 20.0, 30.0])
    assert stats.median == 20.0


def test_dimension_stats_refuses_empty_series():
    with pytest.raises(ValueError, match="empty series"):
        dimension_stats([])


def test_dimension_stats_single_sample():
    stats = dimension_stats([42.0])
    assert stats.median == stats.q1 == stats.q3 == stats.p5 == stats.p95 == 42.0
    assert stats.iqr == 0.0


def test_quantiles_against_sorted_positions():
    # linear-interpolated quantiles sit within one order-statistic step
    values = make_lognormal(10000, seed=9)[:, 0]
    ordered = np.sort(values)
    stats = dimension_stats(values)
    for quantile, got in [(0.05, stats.p5), (0.25, stats.q1), (0.5, stats.median), (0.75, stats.q3), (0.95, stats.p95)]:
        position = int(quantile * (len(ordered) - 1))
        assert ordered[position] <= got <= ordered[min(position + 1, len(ordered) - 1)]


def test_quantile_ordering_invariant():
    rng = np.random.default_rng(21)
    for _ in range(20):
        stats = dimension_stats(rng.uniform(0, 1000, size=rng.integers(1, 200)))
        assert stats.p5 <= stats.q1 <= stats.median <= stats.q3 <= stats.p95
        assert stats.iqr >= 0


def test_profile_requires_positive_samples():
    # a profile's samples are rows of SpeedTests.samples, which refuses any other
    for value in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            speed_tests([record(), record(values=(1000, 500, value))])


def test_profile_key_round_trip():
    for text in (
        "specific/norway/telia/4G/good",
        "universal/any/any/3G/bad",
        "specific/italy/vodafone/3G/ordinary",
    ):
        assert ProfileKey(text) == ProfileKey.from_string(text) == text


def test_profile_key_validation():
    with pytest.raises(ValueError, match="need a country and an operator"):
        ProfileKey("specific//telia/4G/good")
    with pytest.raises(ValueError, match="quality"):
        ProfileKey("specific/norway/telia/4G/excellent")
    with pytest.raises(ValueError):
        ProfileKey("not-a-key")


def test_build_profiles_refuses_a_name_that_is_not_lower_case():
    # "Norway" and "norway" would share one key, and the later group would overwrite the earlier
    tests = speed_tests([record(country="norway"), record(country="Norway")])
    with pytest.raises(FormatError, match="lower-case: 'specific/Norway/telia/4G/good'"):
        build_profiles(tests)


BAD_KEY = "expected <specific|universal>/<country>/<operator>/<rat>/<quality>"


# (text, its canonical key, or None and the refusal's message)
@pytest.mark.parametrize(
    "text,canonical,refusal",
    [
        ("specific/norway/telia/4G/good", "specific/norway/telia/4G/good", None),
        ("  Specific/NORWAY/Telia/4g/GOOD\n", "specific/norway/telia/4G/good", None),
        ("universal/norway/telia/3G/bad", "universal/any/any/3G/bad", None),
        ("UNIVERSAL//x/3g/Ordinary", "universal/any/any/3G/ordinary", None),
        ("specific/Curaçao/Digicel/3G/ordinary", "specific/curaçao/digicel/3G/ordinary", None),
        ("specific/italy, north/a:b/4G/bad", "specific/italy, north/a:b/4G/bad", None),
        ("not-a-key", None, f"bad profile key 'not-a-key'; {BAD_KEY}"),
        ("specific/norway/t/mobile/4G/good", None, "bad profile key 'specific/norway/t/mobile/"),
        ("specific/norway/telia/4G", None, "bad profile key 'specific/norway/telia/4G'"),
        ("regional/norway/telia/4G/good", None, "bad profile kind 'regional'"),
        ("specific/norway/telia/5g/good", None, "unknown rat '5g'"),
        ("specific/norway/telia/4G/excellent", None, "unknown quality 'excellent'"),
        ("specific//telia/4G/good", None, "specific profiles need a country and an operator"),
        ("specific/norway//4G/good", None, "specific profiles need a country and an operator"),
    ],
)
def test_profile_key_table(tmp_path, text, canonical, refusal):
    model = fit(make_lognormal(50, seed=3))
    plain = ModelBundle(models={text: model})  # a hand-built bundle with a plain text key
    if refusal is not None:
        for refuse in (lambda: ProfileKey(text), lambda: save(plain, tmp_path / "models.json")):
            with pytest.raises(FormatError) as refused:
                refuse()
            assert str(refused.value).startswith(refusal)
        assert not (tmp_path / "models.json").exists()
        return
    key = ProfileKey(text)
    assert type(key) is ProfileKey and key == canonical
    assert ProfileKey(key) == key == ProfileKey(canonical) == ProfileKey.from_string(text)
    save(ModelBundle(models={key: model}), tmp_path / "models.json")
    assert load(tmp_path / "models.json").models[canonical].n == 50  # a plain str indexes
    if text != canonical:
        with pytest.raises(FormatError, match="would read back as"):
            save(plain, tmp_path / "models.json")
    else:
        save(plain, tmp_path / "plain.json")  # a canonical plain key saves as its key does
        assert (tmp_path / "plain.json").read_text() == (tmp_path / "models.json").read_text()
