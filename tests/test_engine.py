from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from votingpower import engine
from votingpower.errors import ResourceLimitError
from votingpower.game import (
    Roster,
    Voter,
    VotingGame,
    WeightedRule,
    WeightKind,
    build_qmv,
)
from votingpower.scenarios import builtin_scenario, scenario_game, with_bloc


def three_voter_game() -> VotingGame:
    # quota 51 over weights 50, 49, 1
    roster = Roster((Voter("A", "Alpha", 50), Voter("B", "Beta", 49), Voter("C", "Gamma", 1)))
    return VotingGame(roster, WeightedRule(WeightKind.POPULATION, 51))


class TestSmallGames:
    def test_banzhaf_scores_hand_enumerated(self):
        # all 8 coalitions enumerated by hand: A swings {B},{C},{B,C};
        # B and C swing only {A}
        result = engine.banzhaf(three_voter_game())
        assert [e.banzhaf_score for e in result.entries] == [3, 1, 1]
        assert [e.banzhaf_value for e in result.entries] == [
            Fraction(3, 4),
            Fraction(1, 4),
            Fraction(1, 4),
        ]
        assert [e.banzhaf_index for e in result.entries] == [
            Fraction(3, 5),
            Fraction(1, 5),
            Fraction(1, 5),
        ]
        assert result.entries[0].shapley_shubik is None

    def test_shapley_hand_enumerated(self):
        # all 6 orderings: A pivots in 4, B and C in 1 each
        result = engine.shapley_shubik(three_voter_game())
        assert [e.shapley_shubik for e in result.entries] == [
            Fraction(2, 3),
            Fraction(1, 6),
            Fraction(1, 6),
        ]
        assert result.entries[0].banzhaf_score is None

    def test_compute_all_matches_separate_calls(self):
        game = three_voter_game()
        combined = engine.compute_all(game)
        b = engine.banzhaf(game)
        s = engine.shapley_shubik(game)
        for all_e, b_e, s_e in zip(combined.entries, b.entries, s.entries):
            assert all_e.banzhaf_score == b_e.banzhaf_score
            assert all_e.banzhaf_value == b_e.banzhaf_value
            assert all_e.banzhaf_index == b_e.banzhaf_index
            assert all_e.shapley_shubik == s_e.shapley_shubik

    def test_symmetric_five_voters(self):
        roster = Roster(tuple(Voter(f"v{i}", f"v{i}", 7) for i in range(5)))
        game = VotingGame(roster, WeightedRule(WeightKind.SEATS, 3))
        result = engine.compute_all(game)
        assert all(e.banzhaf_index == Fraction(1, 5) for e in result.entries)
        assert all(e.shapley_shubik == Fraction(1, 5) for e in result.entries)

    def test_dictator(self):
        roster = Roster((Voter("D", "Dictator", 42),))
        result = engine.compute_all(build_qmv(roster))
        assert result.entries[0].banzhaf_score == 1
        assert result.entries[0].banzhaf_value == 1
        assert result.entries[0].banzhaf_index == 1
        assert result.entries[0].shapley_shubik == 1


class TestNullPlayer:
    def test_eec_1958_luxembourg(self):
        game = scenario_game(builtin_scenario("eec1958"))
        result = engine.compute_all(game)
        lux = result.entry("LU")
        assert lux.banzhaf_score == 0
        assert lux.banzhaf_index == 0
        assert lux.shapley_shubik == 0

    def test_eec_single_rule_form(self):
        # same game expressed as a bare seats rule instead of the
        # collapsed double rule
        roster = Roster(
            tuple(
                Voter(i, i, 0, w)
                for i, w in (
                    ("FR", 4), ("DE", 4), ("IT", 4), ("BE", 2), ("NL", 2), ("LU", 1),
                )
            )
        )
        game = VotingGame(roster, WeightedRule(WeightKind.SEATS, 12))
        result = engine.compute_all(game)
        assert result.entry("LU").banzhaf_score == 0
        assert result.entry("LU").shapley_shubik == 0


class TestEu27:
    def test_germany_france_reference_values(self, eu27_result):
        assert abs(eu27_result.banzhaf_index("DE") * 100 - Fraction(1221, 100)) < Fraction(15, 100)
        assert abs(eu27_result.banzhaf_index("FR") * 100 - Fraction(1008, 100)) < Fraction(15, 100)
        assert abs(eu27_result.shapley_index("DE") * 100 - Fraction(1814, 100)) < Fraction(15, 100)
        assert abs(eu27_result.shapley_index("FR") * 100 - Fraction(1360, 100)) < Fraction(15, 100)

    def test_efficiency_exact(self, eu27_result):
        assert sum(e.banzhaf_index for e in eu27_result.entries) == 1
        assert sum(e.shapley_shubik for e in eu27_result.entries) == 1

    def test_local_monotonicity(self, eu27_result):
        # roster is ordered by strictly decreasing population
        entries = eu27_result.entries
        for prev, cur in zip(entries, entries[1:]):
            assert prev.banzhaf_index >= cur.banzhaf_index
            assert prev.shapley_shubik >= cur.shapley_shubik


class TestDeletion:
    @pytest.mark.parametrize("bloc", [None, "v4"], ids=["eec1958", "eu27+v4"])
    def test_prefix_counts_without_each_voter_cover_all_coalitions(self, bloc):
        if bloc is None:
            game = scenario_game(builtin_scenario("eec1958"))
        else:
            game = scenario_game(with_bloc(builtin_scenario("eu27"), bloc))
        prefix = engine._prefix_table(game, engine.DEFAULT_MEMORY_BUDGET)
        n, levels, width = prefix.shape
        everything = np.full((n, levels), width - 1)
        excesses = set()
        for v in game.roster.voters:
            excess = v.seat_weight - 1
            counts = engine._without(prefix, v.pop_weight, excess, everything)
            assert (counts >= 0).all()
            assert int(counts.sum()) == 2 ** (game.n - 1), v.id
            # size t alone: every t-subset of the other n - 1 voters
            assert counts.sum(axis=1).tolist() == [math.comb(n - 1, t) for t in range(n)]
            excesses.add(excess)
        if bloc == "v4":
            assert levels == 4 and 3 in excesses


class TestResourceGuards:
    def test_memory_budget_names_grid(self):
        game = scenario_game(builtin_scenario("eu27"))
        with pytest.raises(ResourceLimitError, match=r"27 sizes x 1 excess-seat levels x 10000"):
            engine.banzhaf(game, memory_budget=1024)

    def test_player_count_guard(self):
        roster = Roster(tuple(Voter(f"v{i}", f"v{i}", 1) for i in range(63)))
        game = VotingGame(roster, WeightedRule(WeightKind.SEATS, 32))
        with pytest.raises(ResourceLimitError, match="63 players"):
            engine.compute_all(game)
