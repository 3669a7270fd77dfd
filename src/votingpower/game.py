"""Voters, weighted threshold rules, and their Boolean composition.

A voter carries two integer weights: a population weight (in whatever
quantized unit the roster uses) and a seat weight (1 for a single state,
k for a merged bloc of k states).  A rule is a threshold test on one of
the two weight kinds; rules combine under AND/OR into a monotone
characteristic function.  The EU Council's qualified majority is the
double rule (population AND seats), optionally OR-ed with a high seats
threshold that encodes the minimum size of a blocking minority.

All types are immutable after construction and safe to share.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Union

from .errors import InputError

DEFAULT_POP_FRACTION = Fraction(65, 100)
DEFAULT_SEAT_FRACTION = Fraction(55, 100)
DEFAULT_BLOCKING_MEMBERS = 4


@dataclass(frozen=True)
class Voter:
    """One player: a member state or a merged bloc acting as one."""

    id: str
    name: str
    pop_weight: int
    seat_weight: int = 1

    def __post_init__(self):
        if not self.id:
            raise InputError("voter id must be non-empty")
        for name in ("pop_weight", "seat_weight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise InputError(f"voter {self.id!r}: {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.pop_weight < 0:
            raise InputError(f"voter {self.id!r}: pop_weight must be >= 0")
        if self.seat_weight < 1:
            raise InputError(f"voter {self.id!r}: seat_weight must be >= 1")


@dataclass(frozen=True)
class Roster:
    """Ordered, duplicate-free collection of voters with cached totals."""

    voters: tuple[Voter, ...]
    total_pop: int = field(init=False)
    total_seats: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "voters", tuple(self.voters))
        if not self.voters:
            raise InputError("roster must contain at least one voter")
        seen = set()
        for v in self.voters:
            if v.id in seen:
                raise InputError(f"duplicate voter id {v.id!r} in roster")
            seen.add(v.id)
        object.__setattr__(self, "total_pop", sum(v.pop_weight for v in self.voters))
        object.__setattr__(self, "total_seats", sum(v.seat_weight for v in self.voters))

    def __len__(self) -> int:
        return len(self.voters)

    def __iter__(self):
        return iter(self.voters)

    def ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.voters)

    def get(self, voter_id: str) -> Voter:
        for v in self.voters:
            if v.id == voter_id:
                return v
        raise InputError(f"unknown voter id {voter_id!r}")


class WeightKind(enum.Enum):
    POPULATION = "population"
    SEATS = "seats"


@dataclass(frozen=True)
class WeightedRule:
    """Threshold test: total weight of the given kind must reach the quota."""

    kind: WeightKind
    quota: int

    def __post_init__(self):
        if self.quota < 1:
            raise InputError(f"rule quota must be >= 1, got {self.quota}")

    def satisfied(self, seats: int, pop: int) -> bool:
        total = seats if self.kind is WeightKind.SEATS else pop
        return total >= self.quota


@dataclass(frozen=True)
class And:
    children: tuple["RuleExpr", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise InputError("AND node needs at least 2 children")


@dataclass(frozen=True)
class Or:
    children: tuple["RuleExpr", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise InputError("OR node needs at least 2 children")


RuleExpr = Union[WeightedRule, And, Or]


def expr_value(expr: RuleExpr, seats: int, pop: int) -> bool:
    """Evaluate a rule tree against aggregate (seats, pop) weights.

    Monotone by construction: leaves are >=-thresholds and AND/OR are
    monotone connectives.
    """
    if isinstance(expr, WeightedRule):
        return expr.satisfied(seats, pop)
    if isinstance(expr, And):
        return all(expr_value(c, seats, pop) for c in expr.children)
    if isinstance(expr, Or):
        return any(expr_value(c, seats, pop) for c in expr.children)
    raise TypeError(f"not a rule expression: {expr!r}")


def expr_leaves(expr: RuleExpr) -> tuple[WeightedRule, ...]:
    if isinstance(expr, WeightedRule):
        return (expr,)
    leaves: list[WeightedRule] = []
    for c in expr.children:
        leaves.extend(expr_leaves(c))
    return tuple(leaves)


@dataclass(frozen=True)
class VotingGame:
    """A roster plus a rule tree; the characteristic function v.

    Construction validates that every quota is attainable (v(N) = 1),
    that the empty coalition loses (v(empty) = 0), and that each leaf
    quota fits the roster's total weight of that kind.
    """

    roster: Roster
    expr: RuleExpr

    def __post_init__(self):
        for leaf in expr_leaves(self.expr):
            total = (
                self.roster.total_seats
                if leaf.kind is WeightKind.SEATS
                else self.roster.total_pop
            )
            if leaf.quota > total:
                raise InputError(
                    f"{leaf.kind.value} quota {leaf.quota} exceeds roster total {total}"
                )
        if expr_value(self.expr, 0, 0):
            raise InputError("degenerate game: empty coalition wins")
        if not expr_value(self.expr, self.roster.total_seats, self.roster.total_pop):
            raise InputError("degenerate game: grand coalition loses")

    @property
    def n(self) -> int:
        return len(self.roster)


def evaluate(game: VotingGame, coalition: Iterable[str]) -> int:
    """Characteristic function: 1 if the coalition wins, else 0.

    Raises InputError for ids not in the roster; duplicate ids in the
    iterable are counted once.
    """
    members = set(coalition)
    known = set(game.roster.ids())
    unknown = members - known
    if unknown:
        raise InputError(f"unknown voter id(s) in coalition: {sorted(unknown)}")
    seats = sum(v.seat_weight for v in game.roster if v.id in members)
    pop = sum(v.pop_weight for v in game.roster if v.id in members)
    return 1 if expr_value(game.expr, seats, pop) else 0


def quota_from_fraction(total: int, fraction: Fraction) -> int:
    """Smallest integer q with q/total >= fraction, in exact arithmetic."""
    if total < 1:
        raise InputError(f"total must be >= 1, got {total}")
    fraction = Fraction(fraction)
    if not 0 < fraction <= 1:
        raise InputError(f"fraction must be in (0, 1], got {fraction}")
    num, den = fraction.numerator, fraction.denominator
    return -((-num * total) // den)  # ceil(num * total / den)


def build_qmv(
    roster: Roster,
    *,
    pop_fraction: Fraction = DEFAULT_POP_FRACTION,
    seat_fraction: Fraction = DEFAULT_SEAT_FRACTION,
    blocking_members: int = DEFAULT_BLOCKING_MEMBERS,
    include_blocking: bool = False,
) -> VotingGame:
    """Qualified-majority game over the roster.

    The core rule is (population >= pop quota) AND (seats >= seat quota).
    With ``include_blocking`` the game adds OR (seats >= total - (b - 1)):
    a coalition too large to leave room for a blocking minority of b
    members wins outright.  The toggle defaults to off.  It reclassifies
    only near-grand coalitions, so on realistic rosters it barely moves
    Banzhaf indices (< 0.0001 pp on eu27), but Shapley-Shubik weighs those
    coalition sizes heavily: on eu27 Germany's index moves by 29/11700
    (0.248 pp).
    """
    if roster.total_pop == 0:
        raise InputError("cannot build a population rule over a zero-population roster")
    pop_rule = WeightedRule(WeightKind.POPULATION, quota_from_fraction(roster.total_pop, pop_fraction))
    seat_rule = WeightedRule(WeightKind.SEATS, quota_from_fraction(roster.total_seats, seat_fraction))
    core = And((pop_rule, seat_rule))
    if not include_blocking:
        return VotingGame(roster, core)
    if blocking_members < 1:
        raise InputError(f"blocking_members must be >= 1, got {blocking_members}")
    block_quota = roster.total_seats - (blocking_members - 1)
    if block_quota < 1:
        raise InputError(
            f"blocking_members {blocking_members} leaves no attainable blocking quota"
        )
    block_rule = WeightedRule(WeightKind.SEATS, block_quota)
    return VotingGame(roster, Or((core, block_rule)))


@dataclass(frozen=True)
class Bloc:
    """A named set of voters assumed to always vote identically."""

    id: str
    name: str
    members: tuple[str, ...]

    def __post_init__(self):
        if not self.members:
            raise InputError(f"bloc {self.id!r} must have at least one member")
        if len(set(self.members)) != len(self.members):
            raise InputError(f"bloc {self.id!r} lists a member twice")


@dataclass(frozen=True)
class BlocPartition:
    """Disjoint blocs over a roster; unlisted voters stay singletons."""

    blocs: tuple[Bloc, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocs", tuple(self.blocs))
        seen: dict[str, str] = {}
        for bloc in self.blocs:
            for m in bloc.members:
                if m in seen:
                    raise InputError(
                        f"voter {m!r} appears in blocs {seen[m]!r} and {bloc.id!r}"
                    )
                seen[m] = bloc.id

    def validate_against(self, roster: Roster) -> None:
        known = set(roster.ids())
        for bloc in self.blocs:
            missing = [m for m in bloc.members if m not in known]
            if missing:
                raise InputError(
                    f"bloc {bloc.id!r} references voter(s) not in roster: {missing}"
                )


def merge_blocs(roster: Roster, partition: BlocPartition) -> Roster:
    """Collapse each bloc into a single voter.

    The merged voter takes the summed population weight and the summed
    seat weight of its members (a bloc of k single states weighs k
    seats).  It occupies the roster position of its earliest member;
    all other voters keep their order.  Totals are preserved exactly.
    """
    partition.validate_against(roster)
    bloc_of: dict[str, Bloc] = {}
    for bloc in partition.blocs:
        for m in bloc.members:
            bloc_of[m] = bloc
    merged: list[Voter] = []
    emitted: set[str] = set()
    for v in roster:
        bloc = bloc_of.get(v.id)
        if bloc is None:
            merged.append(v)
        elif bloc.id not in emitted:
            members = [roster.get(m) for m in bloc.members]
            merged.append(
                Voter(
                    id=bloc.id,
                    name=bloc.name,
                    pop_weight=sum(m.pop_weight for m in members),
                    seat_weight=sum(m.seat_weight for m in members),
                )
            )
            emitted.add(bloc.id)
    return Roster(tuple(merged))
