"""Randomized cross-validation of the DP engine against the oracle,
the index axioms on random games, and the duality identity on games
too large for the oracle."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from votingpower import engine, oracle
from votingpower.game import And, Or, Roster, Voter, VotingGame, WeightedRule, WeightKind, build_qmv
from votingpower.scenarios import builtin_scenario, scenario_game, with_bloc

from randgames import random_game


def test_engine_equals_oracle_exactly():
    rng = random.Random(424242)
    for _ in range(60):
        game = random_game(rng, max_players=12)
        dp = engine.compute_all(game)
        brute = oracle.oracle_all(game)
        for a, b in zip(dp.entries, brute.entries):
            assert a.banzhaf_score == b.banzhaf_score
            assert a.banzhaf_value == b.banzhaf_value
            assert a.banzhaf_index == b.banzhaf_index
            assert a.shapley_shubik == b.shapley_shubik


def _axiom_check(result):
    entries = result.entries
    assert sum(e.banzhaf_index for e in entries) == 1
    assert sum(e.shapley_shubik for e in entries) == 1
    assert all(e.banzhaf_score >= 0 for e in entries)
    voters = result.game.roster.voters
    by_weights = {}
    for v, e in zip(voters, entries):
        by_weights.setdefault((v.pop_weight, v.seat_weight), []).append(e)
    for group in by_weights.values():
        # symmetry: identical weights, identical power
        assert len({e.banzhaf_index for e in group}) == 1
        assert len({e.shapley_shubik for e in group}) == 1
    for vi, ei in zip(voters, entries):
        for vj, ej in zip(voters, entries):
            if vi.pop_weight >= vj.pop_weight and vi.seat_weight >= vj.seat_weight:
                assert ei.banzhaf_index >= ej.banzhaf_index
                assert ei.shapley_shubik >= ej.shapley_shubik


def test_axioms_on_random_games():
    rng = random.Random(31337)
    for _ in range(60):
        game = random_game(rng, max_players=10)
        _axiom_check(engine.compute_all(game))


@pytest.mark.parametrize("name", ["eu27", "eu33", "eu36", "eec1958"])
def test_axioms_on_fixtures(name):
    _axiom_check(engine.compute_all(scenario_game(builtin_scenario(name))))


@st.composite
def rule_tree_games(draw, max_players=12, max_depth=3):
    """Random AND/OR trees over SEATS and POPULATION leaves.

    Voters draw their (pop, seat) weights from a small pool, so equal
    weight classes, zero populations and seat weights > 1 all occur.
    """
    pool = draw(
        st.lists(
            st.tuples(st.integers(0, 60), st.integers(1, 4)), min_size=1, max_size=6
        )
    )
    weights = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_players))
    if all(pop == 0 for pop, _ in weights):
        weights[0] = (draw(st.integers(1, 60)), weights[0][1])
    roster = Roster(
        tuple(Voter(f"v{i}", f"voter {i}", pop, seat) for i, (pop, seat) in enumerate(weights))
    )
    totals = {WeightKind.SEATS: roster.total_seats, WeightKind.POPULATION: roster.total_pop}

    def tree(depth):
        if depth == max_depth or draw(st.booleans()):
            kind = draw(st.sampled_from(WeightKind))
            return WeightedRule(kind, draw(st.integers(1, totals[kind])))
        connective = draw(st.sampled_from((And, Or)))
        return connective(tuple(tree(depth + 1) for _ in range(draw(st.integers(2, 3)))))

    return VotingGame(roster, tree(0))


@settings(max_examples=200, deadline=None)
@given(rule_tree_games())
def test_engine_equals_oracle_on_rule_trees(game):
    assert engine.compute_all(game).entries == oracle.oracle_all(game).entries


def dual_game(game):
    """AND and OR swapped, each quota q mapped to T - q + 1: v*(S) = 1 - v(N \\ S)."""
    totals = {WeightKind.SEATS: game.roster.total_seats, WeightKind.POPULATION: game.roster.total_pop}

    def dual(expr):
        if isinstance(expr, WeightedRule):
            return WeightedRule(expr.kind, totals[expr.kind] - expr.quota + 1)
        children = tuple(dual(c) for c in expr.children)
        return Or(children) if isinstance(expr, And) else And(children)

    return VotingGame(game.roster, dual(game.expr))


def pareto_roster(seed, n=36, total=100_000):
    """n positive Pareto(1.2) populations summing exactly to total."""
    rng = random.Random(seed)
    raw = [rng.paretovariate(1.2) for _ in range(n)]
    pops = [max(1, int(x * total / sum(raw))) for x in raw]
    pops[pops.index(max(pops))] += total - sum(pops)
    return Roster(tuple(Voter(f"R{i:02d}", f"Region {i:02d}", p) for i, p in enumerate(pops)))


def _eu36(include_blocking=False, bloc=None):
    scenario = builtin_scenario("eu36")
    scenario = replace(scenario, options=replace(scenario.options, include_blocking=include_blocking))
    return scenario_game(with_bloc(scenario, bloc) if bloc else scenario)


FULL_SIZE_GAMES = {
    "eu36": lambda: _eu36(),
    "eu36-blocking": lambda: _eu36(include_blocking=True),
    "eu36+2004": lambda: _eu36(bloc="2004"),
    "pareto36": lambda: build_qmv(pareto_roster(20260)),
    "pareto36-blocking": lambda: build_qmv(pareto_roster(20260), include_blocking=True),
}


@pytest.mark.parametrize("name", list(FULL_SIZE_GAMES))
def test_dual_game_gives_identical_indices(name):
    # Both index families are self-dual; at n = 36 no oracle can check the engine.
    game = FULL_SIZE_GAMES[name]()
    assert game.n >= 27 and game.roster.total_pop >= 10_000
    assert engine.compute_all(dual_game(game)).entries == engine.compute_all(game).entries
