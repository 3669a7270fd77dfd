"""Exact power indices from one coalition-count table per game.

Coalitions are counted, never enumerated, by (player count t, excess
seat weight e, population weight w).  Seat weight decomposes as t + e
because almost every voter holds exactly one seat; only merged blocs
contribute excess, so the e axis stays tiny.  Each game takes three
steps:

1. The rule tree compiles to a threshold vector: thr[s] is the least
   winning population weight at seat total s, or total_pop + 1 if none
   wins.  Every rule is monotone, so at a fixed s the winning weights
   are exactly w >= thr[s].  A population leaf gives its quota, a seats
   leaf 0 or total_pop + 1; AND takes the max and OR the min.
2. One forward DP counts F[t, e, w] over all n voters for t < n and
   turns it in place into prefix sums P[t, e, p] along w.  The table
   holds n x (total_excess + 1) x (total_pop + 1) int64 cells; the
   memory guard checks exactly that product before allocating it.
3. Each voter i is deleted from the table, not rebuilt without it.
   The counts without i satisfy G[t] = F[t] - shift_(e_i, w_i) G[t-1],
   so their prefix sums are alternating sums
   sum_k (-1)^k P[t-k, e-k*e_i, p-k*w_i], negative indices counting 0.
   Voter i swings the coalitions with thr[s+seat_i] - w_i <= w < thr[s],
   s = t + e, so each (t, e) needs two such sums, at points that do not
   depend on the grid width.  Voters with equal weights share them.

Counts are int64.  Every table cell counts subsets of the n voters, so
it is at most 2^n <= 2^62; a guard refuses more than 62 players.  An
alternating sum may wrap while it accumulates.  That is harmless:
int64 arithmetic is exact modulo 2^64 and the true value lies in
[0, 2^(n-1)], so the wrapped result is that value.  Everything
downstream of the per-size swing counts is exact: Banzhaf values and
indices as Fractions of big integers, Shapley-Shubik via factorial
weights over the per-size swing counts.  Rounding happens only at
rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NormalizationError, ResourceLimitError
from .game import And, RuleExpr, VotingGame, WeightedRule, WeightKind

DEFAULT_MEMORY_BUDGET = 256 * 1024 * 1024  # bytes for the one count table
_MAX_PLAYERS = 62  # every table cell is at most 2^n, which int64 holds up to n = 62


@dataclass(frozen=True)
class VoterPower:
    """Power of one voter; fields are None for families not computed."""

    id: str
    name: str
    banzhaf_score: int | None = None
    banzhaf_value: Fraction | None = None
    banzhaf_index: Fraction | None = None
    shapley_shubik: Fraction | None = None


@dataclass(frozen=True)
class PowerResult:
    """Per-voter indices in roster order, plus the game they belong to."""

    game: VotingGame
    entries: tuple[VoterPower, ...]

    @property
    def n(self) -> int:
        return self.game.n

    @property
    def quotas(self) -> tuple[tuple[str, int], ...]:
        """(weight kind, quota) for every threshold leaf of the game."""
        from .game import expr_leaves

        return tuple((leaf.kind.value, leaf.quota) for leaf in expr_leaves(self.game.expr))

    def entry(self, voter_id: str) -> VoterPower:
        for e in self.entries:
            if e.id == voter_id:
                return e
        raise KeyError(voter_id)

    def banzhaf_index(self, voter_id: str) -> Fraction:
        index = self.entry(voter_id).banzhaf_index
        if index is None:
            raise ValueError("Banzhaf family not computed for this result")
        return index

    def shapley_index(self, voter_id: str) -> Fraction:
        phi = self.entry(voter_id).shapley_shubik
        if phi is None:
            raise ValueError("Shapley-Shubik family not computed for this result")
        return phi


def _thresholds(expr: RuleExpr, total_seats: int, total_pop: int) -> np.ndarray:
    """thr[s]: least winning population weight at seat total s, or total_pop + 1."""
    seats = np.arange(total_seats + 1)

    def rec(node: RuleExpr) -> np.ndarray:
        if isinstance(node, WeightedRule):
            if node.kind is WeightKind.POPULATION:
                return np.full(total_seats + 1, node.quota, dtype=np.int64)
            return np.where(seats >= node.quota, 0, total_pop + 1)
        combine = np.maximum if isinstance(node, And) else np.minimum
        return combine.reduce([rec(c) for c in node.children])

    return rec(expr)


def _prefix_table(game: VotingGame, memory_budget: int) -> np.ndarray:
    """P[t, e, p]: coalitions of t voters with t + e seats and population <= p."""
    voters = game.roster.voters
    n = len(voters)
    levels = game.roster.total_seats - n + 1
    width = game.roster.total_pop + 1
    nbytes = n * levels * width * 8
    if nbytes > memory_budget:
        raise ResourceLimitError(
            f"swing table needs {n} sizes x {levels} excess-seat levels x "
            f"{width} population cells = {nbytes} bytes, over the "
            f"{memory_budget}-byte budget"
        )
    table = np.zeros((n, levels, width), dtype=np.int64)
    table[0, 0, 0] = 1
    # Lightest voters first: cells past the weights added so far are zero,
    # so most slices stay short until the heavy voters arrive.
    reach_e = reach_w = 0
    for added, v in enumerate(sorted(voters, key=lambda voter: voter.pop_weight), 1):
        ej, wj = v.seat_weight - 1, v.pop_weight
        reach_e, reach_w = reach_e + ej, reach_w + wj
        for t in range(min(added, n - 1), 0, -1):
            table[t, ej : reach_e + 1, wj : reach_w + 1] += table[
                t - 1, : reach_e + 1 - ej, : reach_w + 1 - wj
            ]
    np.cumsum(table, axis=2, out=table)
    return table


def _without(prefix: np.ndarray, pop_i: int, excess_i: int, points: np.ndarray) -> np.ndarray:
    """Prefix counts over the roster minus one voter with the given weights.

    ``points[t, e]`` is a population weight p (negative counts nothing);
    the result at [t, e] is the number of coalitions of the other voters
    with t members, t + e seats and population weight <= p, computed as
    sum_k (-1)^k P[t-k, e-k*excess_i, p-k*pop_i].
    """
    n, levels, _ = prefix.shape
    k = np.arange(n)[:, None, None]
    t = np.arange(n)[None, :, None] - k
    e = np.arange(levels)[None, None, :] - k * excess_i
    p = points[None] - k * pop_i
    terms = prefix[t.clip(0), e.clip(0), p.clip(0)]
    terms = np.where((t >= 0) & (e >= 0) & (p >= 0), terms, 0)
    return (terms * (1 - 2 * (k & 1))).sum(axis=0)


def _swings(prefix: np.ndarray, thr: np.ndarray, pop_i: int, seat_i: int) -> np.ndarray:
    """g[t] = number of size-t coalitions losing without voter i and winning with i."""
    n, levels, _ = prefix.shape
    seats = np.arange(n)[:, None] + np.arange(levels)[None, :]
    # Seat totals past the roster's hold no coalition without i: their
    # prefix counts are zero whatever threshold the clipped index reads.
    with_i = np.minimum(seats + seat_i, len(thr) - 1)
    lose_alone = _without(prefix, pop_i, seat_i - 1, thr[seats] - 1)
    lose_with_i = _without(prefix, pop_i, seat_i - 1, thr[with_i] - pop_i - 1)
    return (lose_alone - lose_with_i).sum(axis=1)


def _compute(
    game: VotingGame, want_banzhaf: bool, want_shapley: bool, memory_budget: int
) -> PowerResult:
    voters = game.roster.voters
    n = len(voters)
    if n > _MAX_PLAYERS:
        raise ResourceLimitError(
            f"{n} players exceeds the {_MAX_PLAYERS}-player int64 counting range"
        )
    prefix = _prefix_table(game, memory_budget)
    thr = _thresholds(game.expr, game.roster.total_seats, game.roster.total_pop)
    by_weights: dict[tuple[int, int], np.ndarray] = {}
    for v in voters:
        key = (v.pop_weight, v.seat_weight)
        if key not in by_weights:
            by_weights[key] = _swings(prefix, thr, *key)
    swings = [by_weights[v.pop_weight, v.seat_weight] for v in voters]
    scores = [int(g.sum()) for g in swings]
    total = sum(scores)
    if total == 0:
        raise NormalizationError("no voter is critical in any coalition")
    fact = [math.factorial(k) for k in range(n + 1)]
    entries = []
    for v, g, eta in zip(voters, swings, scores):
        phi = None
        if want_shapley:
            numer = sum(fact[t] * fact[n - 1 - t] * int(g[t]) for t in range(n))
            phi = Fraction(numer, fact[n])
        entries.append(
            VoterPower(
                id=v.id,
                name=v.name,
                banzhaf_score=eta if want_banzhaf else None,
                banzhaf_value=Fraction(eta, 1 << (n - 1)) if want_banzhaf else None,
                banzhaf_index=Fraction(eta, total) if want_banzhaf else None,
                shapley_shubik=phi,
            )
        )
    return PowerResult(game=game, entries=tuple(entries))


def banzhaf(game: VotingGame, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> PowerResult:
    """Banzhaf scores, values, and normalised indices, all exact."""
    return _compute(game, want_banzhaf=True, want_shapley=False, memory_budget=memory_budget)


def shapley_shubik(game: VotingGame, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> PowerResult:
    """Shapley-Shubik indices as exact rationals."""
    return _compute(game, want_banzhaf=False, want_shapley=True, memory_budget=memory_budget)


def compute_all(game: VotingGame, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> PowerResult:
    """Both families from one pass over shared swing tables."""
    return _compute(game, want_banzhaf=True, want_shapley=True, memory_budget=memory_budget)
