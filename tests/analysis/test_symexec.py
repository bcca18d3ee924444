"""The symbolic domain: units plus Hypothesis soundness laws.

Mirrors the interval-domain suite (``test_intervals.py``): every
symbolic operation is checked against concrete evaluation over sampled
assignments, and the solver's three verdicts (sat / unsat / abstain)
are each pinned against brute force on small problems.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.allocator.chunk import request_to_chunk_size
from repro.analysis.intervals import Interval
from repro.analysis.symexec import (
    ABSTAIN,
    Bounds,
    LinExpr,
    Problem,
    Relation,
    RelationalConstraint,
    UNSAT,
)

# ---------------------------------------------------------------------------
# Units: Bounds and LinExpr
# ---------------------------------------------------------------------------


def test_bounds_arithmetic():
    a = Bounds(2, 5)
    assert a.add(Bounds(1, 1)) == Bounds(3, 6)
    assert a.scale(-2) == Bounds(-10, -4)
    assert a.scale(0) == Bounds.point(0)
    assert Bounds(None, 4).add(Bounds(1, 1)) == Bounds(None, 5)
    assert Bounds(None, 4).scale(-1) == Bounds(-4, None)
    assert Bounds(2, None).contains(10**9)
    assert not Bounds(2, None).contains(1)
    assert Bounds(None, None).describe() == "[-inf,inf]"


def test_linexpr_algebra_and_describe():
    x, y = LinExpr.var("x"), LinExpr.var("y")
    expr = x.scale(2).add(y).shift(3)
    assert expr.evaluate({"x": 5, "y": 1}) == 14
    assert expr.sub(expr) == LinExpr.of(0)
    assert expr.free_vars == ("x", "y")
    assert expr.describe() == "2*x + y + 3"
    assert x.sub(y).describe() == "x - y"
    assert LinExpr.of(-7).describe() == "-7"


def test_linexpr_cancellation_drops_terms():
    x = LinExpr.var("x")
    assert x.add(x.scale(-1)).terms == ()


def test_problem_rejects_duplicates_and_undeclared():
    problem = Problem()
    x = problem.add_var("x", Interval(0, 4))
    with pytest.raises(ValueError):
        problem.add_var("x", Interval(0, 4))
    with pytest.raises(ValueError):
        problem.require(x, Relation.LE, LinExpr.var("ghost"))
    with pytest.raises(ValueError):
        problem.define_monotone("ghost", lambda v: v, x, "id")


# ---------------------------------------------------------------------------
# Hypothesis: symbolic bounds vs concrete evaluation
# ---------------------------------------------------------------------------

_names = ("a", "b", "c")


@st.composite
def _expr_and_env(draw):
    """A random LinExpr plus bounded domains for its variables."""
    terms = []
    env = {}
    for name in _names:
        if draw(st.booleans()):
            continue
        terms.append((name, draw(st.integers(-4, 4))))
        lo = draw(st.integers(0, 20))
        env[name] = Interval(lo, lo + draw(st.integers(0, 10)))
    # Unmentioned variables may appear in env too; harmless.
    expr = LinExpr(tuple(sorted((n, c) for n, c in terms if c)),
                   draw(st.integers(-50, 50)))
    for name in expr.free_vars:
        env.setdefault(name, Interval(0, 5))
    return expr, env


@given(_expr_and_env(), st.data())
def test_bounds_sound_for_sampled_assignments(expr_env, data):
    """Any in-domain assignment evaluates inside the symbolic bounds."""
    expr, env = expr_env
    bounds = expr.bounds(env)
    assignment = {
        name: data.draw(st.integers(env[name].lo, env[name].hi),
                        label=name)
        for name in expr.free_vars}
    assert bounds.contains(expr.evaluate(assignment))


@given(_expr_and_env(), _expr_and_env(), st.data())
def test_algebra_matches_concrete(ee1, ee2, data):
    """add/sub/scale/shift commute with concrete evaluation."""
    e1, env1 = ee1
    e2, env2 = ee2
    env = {**env1, **env2}
    assignment = {
        name: data.draw(st.integers(env[name].lo, env[name].hi),
                        label=name)
        for name in env}
    factor = data.draw(st.integers(-3, 3), label="factor")
    delta = data.draw(st.integers(-10, 10), label="delta")
    v1, v2 = e1.evaluate(assignment), e2.evaluate(assignment)
    assert e1.add(e2).evaluate(assignment) == v1 + v2
    assert e1.sub(e2).evaluate(assignment) == v1 - v2
    assert e1.scale(factor).evaluate(assignment) == v1 * factor
    assert e1.shift(delta).evaluate(assignment) == v1 + delta


# ---------------------------------------------------------------------------
# Hypothesis: solver vs brute force on small random problems
# ---------------------------------------------------------------------------


@st.composite
def _small_problem(draw):
    """A 2-3 variable problem with small bounded domains."""
    count = draw(st.integers(2, 3))
    problem = Problem()
    for index in range(count):
        lo = draw(st.integers(0, 6))
        problem.add_var(_names[index],
                        Interval(lo, lo + draw(st.integers(0, 6))))
    for _ in range(draw(st.integers(1, 3))):
        lhs_terms = tuple(
            (name, draw(st.integers(-3, 3)))
            for name in list(problem.domains) if draw(st.booleans()))
        lhs = LinExpr(tuple(sorted((n, c) for n, c in lhs_terms if c)),
                      draw(st.integers(-10, 10)))
        rel = draw(st.sampled_from(list(Relation)))
        rhs = LinExpr.of(draw(st.integers(-10, 20)))
        problem.relations.append(RelationalConstraint(lhs, rel, rhs))
    return problem


def _brute_models(problem):
    names = list(problem.domains)
    ranges = [range(problem.domains[n].lo, problem.domains[n].hi + 1)
              for n in names]
    for values in itertools.product(*ranges):
        assignment = dict(zip(names, values))
        if all(c.holds(assignment) for c in problem.relations) and \
                all(c.holds(assignment) for c in problem.monotones):
            yield assignment


@given(_small_problem())
def test_solve_agrees_with_brute_force(problem):
    """sat ⇔ brute force finds a model; sat models satisfy everything."""
    result = problem.solve()
    models = list(_brute_models(problem))
    if result.sat:
        assignment = dict(result.assignment)
        for name, domain in problem.domains.items():
            assert domain.contains(assignment[name])
        assert all(c.holds(assignment) for c in problem.relations)
        assert models, "solver sat but brute force finds nothing"
    else:
        assert result.status == UNSAT
        assert not models, "solver unsat but brute force finds a model"
        assert result.reason


@given(_small_problem())
def test_minimize_is_optimal(problem):
    """The minimized objective equals the brute-force minimum."""
    names = list(problem.domains)
    objective = LinExpr(tuple((name, 1) for name in names), 0)
    result = problem.solve(minimize=objective)
    models = list(_brute_models(problem))
    if not models:
        assert result.status == UNSAT
        return
    assert result.sat
    best = min(objective.evaluate(m) for m in models)
    assert result.objective == best
    assert objective.evaluate(dict(result.assignment)) == best


@given(_small_problem())
def test_solve_is_deterministic(problem):
    """Same problem, same result — byte for byte."""
    first = problem.solve(minimize=LinExpr.var(next(iter(problem.domains))))
    second = problem.solve(minimize=LinExpr.var(next(iter(problem.domains))))
    assert first == second


# ---------------------------------------------------------------------------
# Abstention policy
# ---------------------------------------------------------------------------


def test_abstains_on_unbounded_domain():
    problem = Problem()
    problem.add_var("n", Interval.top())
    result = problem.solve()
    assert result.status == ABSTAIN
    assert "unbounded" in result.reason


def test_propagation_bounds_a_top_domain():
    """A <= constraint can rescue an unbounded variable."""
    problem = Problem()
    n = problem.add_var("n", Interval(0, None))
    problem.require(n, Relation.LE, LinExpr.of(5))
    result = problem.solve(minimize=n)
    assert result.sat
    assert result.value("n") == 0


def test_abstains_on_blown_budget():
    problem = Problem()
    for name in ("a", "b", "c"):
        problem.add_var(name, Interval(0, 99))
    # An unsatisfiable parity-free constraint propagation cannot refute:
    # a + b + c == 1000 is out of reach but each var alone can be pruned
    # no further than its domain.
    total = (LinExpr.var("a").add(LinExpr.var("b"))
             .add(LinExpr.var("c")))
    problem.require(total, Relation.GE, LinExpr.of(0))
    result = problem.solve(minimize=total, node_budget=10)
    assert result.status == ABSTAIN
    assert "budget" in result.reason
    assert result.nodes > 10


def test_unsat_detected_by_propagation():
    problem = Problem()
    n = problem.add_var("n", Interval(0, 4))
    problem.require(n, Relation.GE, LinExpr.of(10))
    result = problem.solve()
    assert result.status == UNSAT
    assert "infeasible" in result.reason


# ---------------------------------------------------------------------------
# Monotone (chunk-rounding) constraints
# ---------------------------------------------------------------------------


@given(st.integers(1, 4096))
def test_monotone_chunk_constraint_matches_allocator(size):
    """chunk == request_to_chunk_size(src) solves to the true geometry."""
    problem = Problem()
    problem.add_var("src", Interval.point(size))
    chunk_domain = Interval.point(size).map(request_to_chunk_size)
    problem.add_var("chunk", chunk_domain)
    problem.define_monotone("chunk", request_to_chunk_size,
                            LinExpr.var("src"), "request_to_chunk_size")
    result = problem.solve()
    assert result.sat
    assert result.value("chunk") == request_to_chunk_size(size)


def test_monotone_constraint_prunes_search():
    """The solved minimal overflow length matches hand geometry.

    src in [48, 64]: the 48-byte request rounds to a 64-byte chunk, so
    an overflow from a 48-byte payload must cross 64-48 header+slack
    bytes to touch the next chunk — l >= chunk - src + 1 minimizes at
    src=64 (chunk 80, l = 17).
    """
    problem = Problem()
    src = problem.add_var("src", Interval(48, 64))
    problem.add_var("chunk",
                    Interval(48, 64).map(request_to_chunk_size))
    problem.add_var("l", Interval(1, 64))
    problem.define_monotone("chunk", request_to_chunk_size, src,
                            "request_to_chunk_size")
    problem.require(LinExpr.var("l"), Relation.GE,
                    LinExpr.var("chunk").sub(src).shift(1))
    result = problem.solve(minimize=LinExpr.var("l"))
    assert result.sat
    src_val, chunk_val = result.value("src"), result.value("chunk")
    assert chunk_val == request_to_chunk_size(src_val)
    assert result.value("l") == chunk_val - src_val + 1
    # Exhaustive check that no smaller l exists anywhere in the domain.
    best = min(request_to_chunk_size(s) - s + 1 for s in range(48, 65))
    assert result.value("l") == best
