"""Schema round-trips and input validation errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toleq as tq
from toleq import serialize


def test_game_round_trip(tmp_path):
    built = tq.build_game(tq.TravelersDilemma(2, 5, 2))
    path = tmp_path / "game.json"
    serialize.dump_json(serialize.game_to_obj(built.game), str(path))
    loaded = serialize.game_from_obj(serialize.load_json(str(path)), str(path))
    assert loaded == built.game


def test_profile_round_trip():
    profile = tq.MixedProfile((tq.MixedStrategy((0.25, 0.75)), tq.MixedStrategy((1.0, 0.0))))
    assert serialize.profile_from_obj(serialize.profile_to_obj(profile)) == profile


def test_discrete_distribution_round_trip():
    dist = tq.DiscreteToleranceDist((0.0, 1.5, 3.0), (0.2, 0.5, 0.3))
    obj = serialize.discrete_dist_to_obj(dist)
    assert serialize.distribution_from_obj(obj) == dist


@pytest.mark.parametrize(
    "cdf",
    [
        tq.UniformCdf(0.5, 4.0),
        tq.PiecewiseLinearCdf((0.0, 1.0, 2.5), (0.0, 0.4, 1.0)),
        tq.TruncatedExponentialCdf(rate=2.0, cap=5.0, shift=0.25),
    ],
)
def test_cdf_round_trip(cdf):
    assert serialize.distribution_from_obj(serialize.cdf_to_obj(cdf)) == cdf


def test_tolerance_profile_round_trip():
    pi = tq.DiscreteToleranceProfile(
        (tq.point_mass(0.0), tq.DiscreteToleranceDist((0.5, 2.0), (0.4, 0.6)))
    )
    assert serialize.tolerance_profile_from_obj(serialize.tolerance_profile_to_obj(pi)) == pi


def test_type_strategy_map_round_trip():
    g = tq.TypeStrategyMap(
        (0.0, 2.0),
        (tq.MixedStrategy((0.0, 1.0)), tq.MixedStrategy((0.3, 0.7))),
    )
    assert serialize.type_strategy_map_from_obj(serialize.type_strategy_map_to_obj(g)) == g


def test_verdict_round_trip():
    game = tq.build_game(tq.PrisonersDilemma(5, 2)).game
    profile = tq.MixedProfile((tq.MixedStrategy((0.3, 0.7)),) * 2)
    pi = tq.DiscreteToleranceProfile.iid(tq.DiscreteToleranceDist((0.0, 3.0), (0.7, 0.3)), 2)
    verdict = tq.verify_tolerant_equilibrium(game, profile, pi)
    obj = serialize.verdict_to_obj(verdict)
    assert serialize.verdict_from_obj(obj) == verdict
    negative = tq.verify_tolerant_equilibrium(
        game, tq.MixedProfile((tq.MixedStrategy((0.5, 0.5)),) * 2), pi
    )
    assert serialize.verdict_from_obj(serialize.verdict_to_obj(negative)) == negative


def test_dilemma_spec_round_trip():
    for spec in (
        tq.PrisonersDilemma(5, 2),
        tq.TravelersDilemma(2, 100, 2),
        tq.PublicGoods(3, 0.5),
        tq.BertrandCompetition(2, 2, 100),
    ):
        assert serialize.dilemma_spec_from_obj(serialize.dilemma_spec_to_obj(spec)) == spec


def test_schema_errors_carry_context():
    with pytest.raises(serialize.SchemaError) as err:
        serialize.game_from_obj({"players": 2, "strategies": [["a", "b"]]}, "game.json")
    assert "game.json" in str(err.value)
    with pytest.raises(serialize.SchemaError):
        serialize.profile_from_obj({"strategies": [[0.5, 0.4]]})
    with pytest.raises(serialize.SchemaError):
        serialize.distribution_from_obj({"type": "mystery"})
    with pytest.raises(serialize.SchemaError):
        serialize.tolerance_profile_from_obj({"players": [{"type": "uniform", "lo": 0, "hi": 1}]})


def test_profiles_checked_against_a_game_name_their_path():
    game = tq.build_game(tq.PrisonersDilemma(5, 2)).game
    dist = {"type": "discrete", "support": [0.0], "probs": [1.0]}
    fits = {"strategies": [[0.5, 0.5], [1.0, 0.0]]}
    assert serialize.profile_from_obj(fits, "p.json", game) == serialize.profile_from_obj(fits)
    assert len(serialize.tolerance_profile_from_obj({"players": [dist, dist]}, "pi.json", game)) == 2
    for bad in ({"strategies": [[0.5, 0.5]]}, {"strategies": [[0.5, 0.5], [0.5, 0.25, 0.25]]}):
        with pytest.raises(serialize.SchemaError) as err:
            serialize.profile_from_obj(bad, "p.json", game)
        assert err.value.path == "p.json"
    with pytest.raises(serialize.SchemaError) as err:
        serialize.tolerance_profile_from_obj({"players": [dist]}, "pi.json", game)
    assert err.value.path == "pi.json"


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(serialize.SchemaError) as err:
        serialize.load_json(str(path))
    assert "line" in str(err.value)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_numbers_rejected(tmp_path, number):
    path = tmp_path / "nonfinite.json"
    path.write_text(f'{{"type": "uniform", "lo": 0, "hi": {number}}}')
    with pytest.raises(serialize.SchemaError) as err:
        serialize.load_json(str(path))
    assert err.value.path == str(path) and number in str(err.value)


def test_payoff_tensor_layout_is_player_major():
    built = tq.build_game(tq.PrisonersDilemma(5, 2))
    obj = serialize.game_to_obj(built.game)
    # payoffs[row strategy][column strategy] -> per-player vector
    assert obj["payoffs"][0][1] == [-2.0, 5.0]
    assert obj["payoffs"][1][0] == [5.0, -2.0]


@st.composite
def _regular_lists(draw):
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))

    def fill(dims):
        if len(dims) == 1:
            return draw(st.lists(st.integers(-5, 5), min_size=dims[0], max_size=dims[0]))
        return [fill(dims[1:]) for _ in range(dims[0])]

    return fill(shape)


_ragged_lists = st.recursive(st.lists(st.floats(-5.0, 5.0), max_size=3), lambda inner: st.lists(inner, max_size=3),
                             max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_regular_lists(), _ragged_lists))
def test_payoff_shape_is_the_one_numpy_gives(value):
    # the game header checks the shape of the payoffs without numpy; where
    # numpy cannot build an array from them, the header leaves them to numpy
    serialize._check_numbers(value, "payoffs")
    try:
        want = np.asarray(value, dtype=float).shape
    except ValueError:
        want = None
    assert serialize._shape(value) == want
