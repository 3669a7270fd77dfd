from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from votingpower.errors import InputError
from votingpower.game import (
    And,
    Bloc,
    BlocPartition,
    Or,
    Roster,
    Voter,
    VotingGame,
    WeightedRule,
    WeightKind,
    build_qmv,
    evaluate,
    expr_leaves,
    merge_blocs,
    quota_from_fraction,
)
from votingpower.scenarios import builtin_scenario, scenario_game

from randgames import random_game

EEC_VOTERS = (
    Voter("FR", "France", 0, 4),
    Voter("DE", "Germany", 0, 4),
    Voter("IT", "Italy", 0, 4),
    Voter("BE", "Belgium", 0, 2),
    Voter("NL", "Netherlands", 0, 2),
    Voter("LU", "Luxembourg", 0, 1),
)


def eec_game() -> VotingGame:
    return VotingGame(Roster(EEC_VOTERS), WeightedRule(WeightKind.SEATS, 12))


class TestTypes:
    def test_voter_rejects_negative_pop(self):
        with pytest.raises(InputError):
            Voter("A", "Alpha", -1)

    def test_voter_rejects_zero_seats(self):
        with pytest.raises(InputError):
            Voter("A", "Alpha", 5, 0)

    def test_voter_normalises_numpy_integers(self):
        v = Voter("A", "Alpha", np.int64(5), np.int32(2))
        assert (v.pop_weight, v.seat_weight) == (5, 2)
        assert type(v.pop_weight) is int and type(v.seat_weight) is int

    @pytest.mark.parametrize("bad", [True, np.bool_(False), 5.0, np.float64(5), "5", None])
    @pytest.mark.parametrize("field", ["pop_weight", "seat_weight"])
    def test_voter_rejects_non_integer_weights(self, field, bad):
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            Voter("A", "Alpha", **{"pop_weight": 5, "seat_weight": 1, field: bad})

    def test_roster_totals(self):
        r = Roster((Voter("A", "Alpha", 10, 2), Voter("B", "Beta", 5)))
        assert r.total_pop == 15
        assert r.total_seats == 3

    def test_roster_rejects_duplicate_ids(self):
        with pytest.raises(InputError, match="duplicate"):
            Roster((Voter("A", "Alpha", 1), Voter("A", "Other", 2)))

    def test_roster_rejects_empty(self):
        with pytest.raises(InputError):
            Roster(())

    def test_rule_rejects_zero_quota(self):
        with pytest.raises(InputError):
            WeightedRule(WeightKind.SEATS, 0)

    def test_connectives_need_two_children(self):
        leaf = WeightedRule(WeightKind.SEATS, 1)
        with pytest.raises(InputError):
            And((leaf,))
        with pytest.raises(InputError):
            Or((leaf,))

    def test_game_rejects_unattainable_quota(self):
        r = Roster((Voter("A", "Alpha", 10),))
        with pytest.raises(InputError, match="exceeds"):
            VotingGame(r, WeightedRule(WeightKind.POPULATION, 11))


class TestEvaluate:
    def test_grand_coalition_wins(self):
        game = scenario_game(builtin_scenario("eu27"))
        assert evaluate(game, game.roster.ids()) == 1

    def test_empty_coalition_loses(self):
        game = scenario_game(builtin_scenario("eu27"))
        assert evaluate(game, ()) == 0

    def test_eec_benelux_loses(self):
        # Belgium + Netherlands + Luxembourg muster 5 of the 12 needed votes
        assert evaluate(eec_game(), {"BE", "NL", "LU"}) == 0

    def test_eec_three_large_plus_one(self):
        assert evaluate(eec_game(), {"FR", "DE", "IT"}) == 1

    def test_unknown_id_rejected(self):
        with pytest.raises(InputError, match="unknown voter"):
            evaluate(eec_game(), {"FR", "XX"})

    def test_duplicates_counted_once(self):
        assert evaluate(eec_game(), ["BE", "BE", "NL", "LU"]) == 0


class TestQuotaFromFraction:
    @pytest.mark.parametrize(
        "total,fraction,expected",
        [
            (27, Fraction(55, 100), 15),
            (33, Fraction(55, 100), 19),
            (36, Fraction(55, 100), 20),
            (20, Fraction(50, 100), 10),
            (9999, Fraction(65, 100), 6500),
            (1, Fraction(1, 1), 1),
        ],
    )
    def test_examples(self, total, fraction, expected):
        assert quota_from_fraction(total, fraction) == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            quota_from_fraction(0, Fraction(1, 2))
        with pytest.raises(InputError):
            quota_from_fraction(10, Fraction(0, 1))
        with pytest.raises(InputError):
            quota_from_fraction(10, Fraction(3, 2))

    @given(
        total=st.integers(min_value=1, max_value=10_000),
        num=st.integers(min_value=1, max_value=1000),
        den=st.integers(min_value=1, max_value=1000),
    )
    def test_bracketing(self, total, num, den):
        # quota passes the fraction test, quota - 1 fails it
        if num > den:
            num, den = den, num
        fraction = Fraction(num, den)
        q = quota_from_fraction(total, fraction)
        assert 1 <= q <= total
        assert Fraction(q, total) >= fraction
        assert Fraction(q - 1, total) < fraction


class TestBuildQmv:
    def test_eu27_quotas(self):
        roster = builtin_scenario("eu27").roster
        game = build_qmv(roster, include_blocking=True)
        leaves = expr_leaves(game.expr)
        assert [(l.kind, l.quota) for l in leaves] == [
            (WeightKind.POPULATION, 6500),
            (WeightKind.SEATS, 15),
            (WeightKind.SEATS, 24),
        ]

    def test_eu36_seat_quota(self):
        game = scenario_game(builtin_scenario("eu36"))
        seat_leaves = [l for l in expr_leaves(game.expr) if l.kind is WeightKind.SEATS]
        assert seat_leaves[0].quota == 20

    def test_blocking_off_by_default(self):
        roster = builtin_scenario("eu27").roster
        game = build_qmv(roster)
        assert isinstance(game.expr, And)
        assert len(expr_leaves(game.expr)) == 2

    def test_single_voter_dictator(self):
        roster = Roster((Voter("A", "Alpha", 100),))
        game = build_qmv(roster)
        pop_leaf = expr_leaves(game.expr)[0]
        assert pop_leaf.quota == 65  # ceil(0.65 * 100)
        assert evaluate(game, {"A"}) == 1
        assert evaluate(game, ()) == 0

    def test_zero_population_roster_rejected(self):
        roster = Roster((Voter("A", "Alpha", 0), Voter("B", "Beta", 0)))
        with pytest.raises(InputError, match="zero-population"):
            build_qmv(roster)


class TestMergeBlocs:
    def test_franco_german_sums(self):
        roster = builtin_scenario("eu27").roster
        merged = merge_blocs(
            roster, BlocPartition((Bloc("fg", "Franco-German", ("DE", "FR")),))
        )
        bloc = merged.get("fg")
        assert bloc.pop_weight == 1881 + 1518 == 3399
        assert bloc.seat_weight == 2
        assert len(merged) == 26
        # bloc occupies the position of its earliest member
        assert merged.voters[0].id == "fg"

    def test_v4_sums(self):
        roster = builtin_scenario("eu27").roster
        merged = merge_blocs(
            roster, BlocPartition((Bloc("v4", "V4", ("PL", "CZ", "HU", "SK")),))
        )
        bloc = merged.get("v4")
        assert bloc.pop_weight == 820 + 241 + 214 + 121 == 1396
        assert bloc.seat_weight == 4

    def test_empty_partition_is_identity(self):
        roster = builtin_scenario("eu27").roster
        assert merge_blocs(roster, BlocPartition(())) == roster

    def test_totals_preserved(self):
        roster = builtin_scenario("eu27").roster
        merged = merge_blocs(
            roster,
            BlocPartition(
                (
                    Bloc("a", "A", ("DE", "MT")),
                    Bloc("b", "B", ("FR", "LU", "CY")),
                )
            ),
        )
        assert merged.total_pop == roster.total_pop
        assert merged.total_seats == roster.total_seats

    def test_overlapping_blocs_rejected(self):
        with pytest.raises(InputError, match="'DE'"):
            BlocPartition((Bloc("a", "A", ("DE", "FR")), Bloc("b", "B", ("DE", "IT"))))

    def test_unknown_member_rejected(self):
        roster = builtin_scenario("eu27").roster
        with pytest.raises(InputError, match="XX"):
            merge_blocs(roster, BlocPartition((Bloc("a", "A", ("DE", "XX")),)))


class TestMonotonicity:
    def test_random_subset_pairs(self):
        # v(S) <= v(T) whenever S is a subset of T
        rng = random.Random(2024)
        checked = 0
        while checked < 1000:
            game = random_game(rng, max_players=10)
            ids = list(game.roster.ids())
            for _ in range(10):
                t_set = {i for i in ids if rng.random() < 0.6}
                s_set = {i for i in t_set if rng.random() < 0.6}
                assert evaluate(game, s_set) <= evaluate(game, t_set)
                checked += 1

    def test_blocking_only_adds_winners(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(4, 10)
            voters = tuple(
                Voter(f"v{i}", f"v{i}", rng.randint(1, 40)) for i in range(n)
            )
            roster = Roster(voters)
            plain = build_qmv(roster, include_blocking=False)
            blocking = build_qmv(roster, include_blocking=True)
            for _ in range(20):
                coalition = {v.id for v in voters if rng.random() < 0.5}
                assert evaluate(plain, coalition) <= evaluate(blocking, coalition)
