"""The member kernel against an oracle: the (points, 2, members) kernel it
replaced, kept here verbatim. Shares must be equal, not close, and the
suspect masks must flag the same members."""

import math
from typing import NamedTuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creatorgame import (
    AlgorithmWeights,
    CreatorParams,
    EngagementProfile,
    Exact,
    GameTable,
    InvalidScenarioError,
    Population,
    Quantal,
    Satisficing,
    Strategy,
    UtilityModel,
    creator_utility,
    population,
    switching_delta,
)
from creatorgame.core import features
from creatorgame.response import TIE_TOLERANCE, ResponseRule

LINEAR, NONLINEAR = UtilityModel.LINEAR, UtilityModel.NONLINEAR


# --- the oracle: the kernel that broadcast every utility over members --------


class _Columns(NamedTuple):
    """Per-member feature columns of a population against one table: f1, f2,
    f3 and risk_cost (delta * r) each have shape (2, members), row 0 for
    Collaboration and row 1 for Beefing."""

    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    risk_cost: np.ndarray
    pop: Population
    table: GameTable


def _columns(pop: Population, table: GameTable) -> _Columns:
    models = {m.model for m in pop.members}
    phi = {model: [features(table.profiles[s], model) for s in Strategy] for model in models}
    f1, f2, f3, risk = np.array([phi[m.model] for m in pop.members]).transpose(2, 1, 0).copy()
    deltas = np.array([m.delta for m in pop.members])
    return _Columns(f1, f2, f3, deltas * risk, pop, table)


def _chunk_shares(
    columns: _Columns, rule: ResponseRule, alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The (Collaboration, Beefing) shares at a chunk of weight vectors, with
    respond's semantics, over all members at once.

    alpha, beta and gamma have shape (points,); the utilities have shape
    (points, 2, members) and are ((alpha*f1 + beta*f2) + gamma*f3) - delta*r,
    in creator_utility's order, so exact and satisficing shares are the same
    head-count fractions as the per-member path, bit for bit. Quantal shares
    agree with it to 1e-12 only: np.exp may differ from math.exp by one ulp,
    and the probabilities are summed pairwise.

    Returns both shares as (points,) arrays and a (points, members) mask of
    the members that may have failed at each point, or None when none may
    have: the caller re-runs them through _raise_member_error. Callers
    silence numpy's floating-point warnings.
    """
    a, b, g = alpha[:, None, None], beta[:, None, None], gamma[:, None, None]
    u = ((a * columns.f1 + b * columns.f2) + g * columns.f3) - columns.risk_cost
    u_collab, u_beef = u[:, 0], u[:, 1]
    n = len(columns.pop)
    if isinstance(rule, Quantal):
        scores = np.exp(rule.lam * (u - np.maximum(u_collab, u_beef)[:, None]))
        probs = scores / (scores[:, 0] + scores[:, 1])[:, None]
        totals = probs.sum(axis=2)
        suspects = None
        if not math.isfinite(u.sum() + totals[:, 0].sum()):  # some member may have failed
            suspects = ~(np.isfinite(u).all(axis=1) & np.isfinite(probs[:, 0]))
        return totals[:, 0] / n, totals[:, 1] / n, suspects
    if isinstance(rule, Exact):
        beefing = u_beef - u_collab > rule.tie_tol
    elif isinstance(rule, Satisficing):
        beefing = (u_collab < rule.aspiration) & (
            (u_beef >= rule.aspiration) | (u_beef - u_collab > TIE_TOLERANCE)
        )
    else:
        raise TypeError(f"unknown response rule: {rule!r}")
    suspects = None
    if not math.isfinite(u.sum()):  # some member may have failed
        suspects = ~np.isfinite(u).all(axis=1)
    beefs = np.count_nonzero(beefing, axis=1)
    return (n - beefs) / n, beefs / n, suspects


# --- the property ------------------------------------------------------------

# 1e8 * 1e300 is a finite risk cost that, against 1.7e308 of engagement, overflows a gap
_HUGE = [1e8, 1e10, 1e154, 1e200, 1e300, 1.7e308]


@st.composite
def _kernel_cases(draw):
    """(pop, rule, alpha, beta, gamma, table) with near-ties and overflows."""
    if draw(st.booleans()):  # integral: exact utility ties are common
        metric = st.integers(0, 6).map(float)
    else:
        metric = st.floats(0.0, 10.0)
    extreme = draw(st.booleans())
    if extreme:  # engagement or drama risk large enough to overflow a utility
        metric = st.one_of(metric, st.sampled_from(_HUGE))
    table = GameTable({s: EngagementProfile(*(draw(metric) for _ in range(4))) for s in Strategy})

    count = draw(st.integers(1, 64))
    mix = draw(st.sampled_from([(LINEAR,), (NONLINEAR,), (LINEAR, NONLINEAR)]))
    delta = st.one_of(st.integers(0, 10).map(lambda d: d / 2), st.floats(0.0, 5.0))
    if extreme:
        delta = st.one_of(delta, st.sampled_from(_HUGE))
    members = [CreatorParams(draw(delta), draw(st.sampled_from(mix))) for _ in range(count)]

    weight = st.one_of(st.integers(0, 4).map(lambda w: w / 2), st.floats(0.0, 3.0))
    if extreme:
        weight = st.one_of(weight, st.sampled_from([1e10, 1e300, 1.7e308]))
    points = draw(st.lists(st.tuples(weight, weight, weight), min_size=1, max_size=20))
    if draw(st.booleans()):  # members within a few ulps of their switching delta at one point
        w = AlgorithmWeights(*points[draw(st.integers(0, len(points) - 1))])
        for idx in draw(st.lists(st.integers(0, count - 1), max_size=4)):
            boundary = switching_delta(w, members[idx].model, table)
            if boundary is not None and 0.0 <= boundary < 1e300:
                near = max(_ulps_away(boundary, draw(st.integers(-3, 3))), 0.0)
                members[idx] = CreatorParams(near, members[idx].model)

    kind = draw(st.sampled_from(["exact", "satisficing", "quantal"]))
    if kind == "quantal":
        rule = Quantal(draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.sampled_from([1e3, 1e300]))))
    else:
        # A threshold within a few ulps of one member's gap (exact) or of one
        # of its utilities (satisficing) at one point, when they are finite.
        w = AlgorithmWeights(*points[draw(st.integers(0, len(points) - 1))])
        member = members[draw(st.integers(0, count - 1))]
        try:
            u = [creator_utility(w, member, table.profiles[s]) for s in Strategy]
        except InvalidScenarioError:
            u = [0.0, 0.0]
        target = u[1] - u[0] if kind == "exact" else draw(st.sampled_from(u))
        if not draw(st.booleans()):  # or a drawn threshold
            target = draw(st.sampled_from([0.0, 1e-9, 0.5, 4.0, -1.0]))
        target = _ulps_away(target, draw(st.integers(-3, 3)))
        rule = Exact(max(target, 0.0)) if kind == "exact" else Satisficing(target)
    alpha, beta, gamma = (np.array(axis, dtype=float) for axis in zip(*points))
    return Population(tuple(members)), rule, alpha, beta, gamma, table


def _ulps_away(x, k):
    """x moved k ulps up (k > 0) or down (k < 0), staying finite."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.inf if k > 0 else -math.inf))
    return x if math.isfinite(x) else 0.0


def _flags(suspects, shape):
    return np.zeros(shape, dtype=bool) if suspects is None else suspects


def _case(collab, beef, deltas, rule, *points):
    """A hand-made case of _kernel_cases: linear members, points as (alpha, beta, gamma)."""
    profiles = {Strategy.COLLABORATION: EngagementProfile(*collab), Strategy.BEEFING: EngagementProfile(*beef)}
    table = GameTable(profiles)
    alpha, beta, gamma = (np.array(axis, dtype=float) for axis in zip(*points))
    return Population(tuple(CreatorParams(d) for d in deltas)), rule, alpha, beta, gamma, table


@settings(max_examples=600, deadline=None)
@given(case=_kernel_cases())
# Beefing's utility equals the aspiration and beats Collaboration's by one
# ulp, inside the tie band: the aspiration alone decides.
@example(case=_case((1, 0, 0, 0), (1 + 2**-52, 0, 0, 0), (0.0,), Satisficing(1 + 2**-52), (1.0, 0.0, 0.0)))
# Both utilities are finite, but their gap overflows: lam = 0 makes the
# shifted exponent 0 * -inf, a nan probability, and the member fails.
@example(case=_case((0, 0, 0, 1e300), (1.7e308, 0, 0, 0), (1e8, 0.0), Quantal(0.0), (1.0, 0.0, 0.0)))
# An engagement sum overflows to +inf: the oracle's shifted exponent is
# inf - inf, and both of the member's probabilities are nan.
@example(case=_case((1.7e308, 0, 0, 0), (0, 0, 0, 0), (0.0,), Quantal(1.0), (2.0, 0.0, 0.0)))
def test_property_kernel_equals_the_oracle(case):
    pop, rule, alpha, beta, gamma, table = case
    with np.errstate(all="ignore"):
        expected = _chunk_shares(_columns(pop, table), rule, alpha, beta, gamma)
        actual = population._chunk_shares(population._columns(pop, table), rule, alpha, beta, gamma)
    for got, want in zip(actual[:2], expected[:2]):
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)  # nan only at points whose members fail
    # The oracle may return a mask with no member flagged (its sum of all
    # utilities can overflow although each is finite); the kernel returns
    # None exactly when no member is flagged.
    shape = (len(alpha), len(pop))
    assert np.array_equal(_flags(actual[2], shape), _flags(expected[2], shape))
    assert actual[2] is None or actual[2].any()


def test_one_model_populations_share_one_feature_column():
    table = GameTable({s: EngagementProfile(1.0, 2.0, 3.0, 4.0) for s in Strategy})
    for models, width in (((LINEAR,) * 3, 1), ((NONLINEAR,) * 3, 1), ((NONLINEAR, LINEAR, NONLINEAR), 2)):
        columns = population._columns(Population(tuple(CreatorParams(1.0, m) for m in models)), table)
        assert columns.feat.shape == (3, 2, width)
        assert (columns.model is None) == (width == 1)
        assert columns.risk_cost.shape == (2, 3)
    assert columns.model.tolist() == [1, 0, 1]
