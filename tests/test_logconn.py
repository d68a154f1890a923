import os
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from logres import logconn, ratmat
from logres.cli import run_command
from logres.logconn import (
    BasepointNotInStratum,
    DegreeMismatch,
    LogTangentVector,
    component_value,
    connection_matrix,
    connection_rank,
    is_indeterminate,
    make_connection_context,
    random_coefficients,
    random_fraction,
    random_log_tangent_vector,
    random_stratum_point,
    sample_indeterminacy,
    stratum_of_point,
)
from logres.multiindex import CoefficientVector, enumerate_multiindices
from logres.symcore import Polynomial, parse_polynomial
from oracles import (
    LogForm,
    connection_component,
    connection_frame,
    fermat_section,
    monomial,
    monomial_basis,
    restriction_identity_residuals,
    summed_random_coefficients,
    tau_power,
    variable,
)


def variables(ctx):
    return connection_frame(ctx).variables


def point_map(ctx, basepoint):
    """The basepoint as a point of the chart, on the zero section t = 0."""
    return dict(zip(variables(ctx), (Fraction(0),) + tuple(basepoint)))


def sections_from_draws(ctx, draws):
    """The sections ``sample`` values, built as polynomials from its draws:
    the pair (p, q) is the coefficient p/q of its basis monomial, index-major
    and basis-minor."""
    basis = monomial_basis(ctx)
    pairs = iter(draws)
    entries = {}
    for index in enumerate_multiindices(ctx.n, ctx.delta):
        a = Polynomial.zero(variables(ctx))
        for _, mono in basis:
            p, q = next(pairs)
            a = a + mono * Fraction(p, q)
        entries[index] = a
    assert next(pairs, None) is None
    return CoefficientVector.make(ctx.n, ctx.delta, entries)


def all_strata(ctx):
    slots = ctx.stratum_candidates()
    return [set(c) for k in range(len(slots) + 1) for c in combinations(slots, k)]


def ctx_n1(r=1, delta=2, eps=1):
    return make_connection_context(1, eps, delta, r)


def ctx_n2(r=1, delta=4, eps=1):
    return make_connection_context(2, eps, delta, r)


def oracle_component(ctx, a, index):
    """Symbolic oracle: expand (r+1)a*d(tau^I) + tau^I*da - a*tau^I*dt/t
    directly, without going through the product-then-divide path."""
    tau_i = tau_power(ctx, index)
    frame = connection_frame(ctx)
    holo = {
        z: (ctx.r + 1) * a * tau_i.diff(z) + tau_i * a.diff(z)
        for z in frame.variables[1:]
    }
    return LogForm.make(frame, holo, {"t": -(a * tau_i)})


# -- twisted components ----------------------------------------------------------


def test_component_constant_coefficient_trivial_arrangement_power():
    ctx = ctx_n1()
    one = Polynomial.constant(variables(ctx), 1)
    form = connection_component(ctx, one, (2, 0))  # tau^I = tau_0^2 = 1
    assert form.holomorphic_map == {}
    assert form.log_map == {"t": -one}


def test_component_linear_coefficient():
    ctx = ctx_n1()
    z = variable(variables(ctx), "z1")
    form = connection_component(ctx, z, (2, 0))
    # dz - z dt/t
    assert form.holomorphic_map == {"z1": Polynomial.constant(variables(ctx), 1)}
    assert form.log_map == {"t": -z}


def test_component_zero_section():
    ctx = ctx_n1()
    zero = Polynomial.zero(variables(ctx))
    assert connection_component(ctx, zero, (0, 2)).is_zero


def test_component_matches_symbolic_oracle():
    rng = random.Random(41)
    for n in (1, 2):
        for r in (1, 2, 3):
            for delta in (1, 2, 3):
                ctx = make_connection_context(n, 2, delta, r)
                basis = monomial_basis(ctx)
                for index in enumerate_multiindices(n, delta):
                    a = Polynomial.zero(variables(ctx))
                    for _, mono in basis:
                        a = a + mono * random_fraction(rng)
                    assert connection_component(ctx, a, index) == oracle_component(
                        ctx, a, index
                    )


def test_component_value_agrees_with_symbolic_form():
    rng = random.Random(5)
    ctx = ctx_n2(delta=2)
    for _ in range(20):
        basepoint = tuple(random_fraction(rng) for _ in range(2))
        vector = LogTangentVector(
            random_fraction(rng, nonzero=True),
            tuple(random_fraction(rng) for _ in range(2)),
            basepoint,
        )
        point = point_map(ctx, basepoint)
        for index in enumerate_multiindices(2, 2):
            a = parse_polynomial("z1 + 2*z2 - 3", variables(ctx))
            form = connection_component(ctx, a, index)
            symbolic = form.log_map.get(
                "t", Polynomial.zero(variables(ctx))
            ).evaluate(point) * vector.xi0
            for j, z in enumerate(variables(ctx)[1:]):
                h = form.holomorphic_map.get(z)
                if h is not None:
                    symbolic += h.evaluate(point) * vector.xi[j]
            assert component_value(ctx, a, index, vector) == symbolic


# -- rank of the evaluation map -----------------------------------------------------


def nonzero_row_count(matrix):
    return sum(1 for row in matrix if any(row))


def test_rank_generic_point():
    ctx = ctx_n2()
    vector = LogTangentVector(
        Fraction(1), (Fraction(2), Fraction(-1)), (Fraction(3), Fraction(5))
    )
    report = connection_rank(ctx, vector, set())
    assert (report.rows, report.cols) == (15, 45)
    assert report.bound == 15
    assert report.satisfied
    # block structure: rank equals the number of nonzero rows
    rows, matrix = connection_matrix(ctx, vector, set())
    assert report.rank == nonzero_row_count(matrix)


def test_rank_codimension_one_stratum():
    ctx = ctx_n2()
    vector = LogTangentVector(
        Fraction(0), (Fraction(1), Fraction(4)), (Fraction(0), Fraction(7))
    )
    report = connection_rank(ctx, vector, {1})
    assert report.bound == 5
    assert report.satisfied


def test_rank_deepest_stratum():
    ctx = ctx_n2()
    vector = LogTangentVector(
        Fraction(3), (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))
    )
    report = connection_rank(ctx, vector, {1, 2})
    assert report.bound == 1
    assert report.satisfied


def test_matrix_is_block_diagonal_across_index_blocks():
    ctx = make_connection_context(2, 1, 2, 1)
    vector = LogTangentVector(
        Fraction(1), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(3))
    )
    twisted = make_connection_context(2, 2, 3, 2)
    on_stratum = random_log_tangent_vector(twisted, random.Random(9), {2})
    for ctx, vector, stratum in ((ctx, vector, set()), (twisted, on_stratum, {2})):
        rows, matrix = connection_matrix(ctx, vector, stratum)
        all_indices = enumerate_multiindices(ctx.n, ctx.delta)
        basis = monomial_basis(ctx)
        width = len(basis)
        for r, row_index in enumerate(rows):
            for c, I in enumerate(all_indices):
                block = matrix[r][c * width : (c + 1) * width]
                if I != row_index:
                    assert not any(block)
                else:
                    assert block == [
                        component_value(ctx, mono, I, vector) for _, mono in basis
                    ]


def test_block_rank_matches_dense_oracle():
    # a generic vector, one along z1 alone with no dt/t part, and the zero
    # vector (which the constructor refuses), whose blocks all vanish
    for n in (1, 2, 3):
        for delta in (1, 2, 3):
            for eps in (1, 2):
                ctx = make_connection_context(n, eps, delta, 1)
                for stratum in all_strata(ctx):
                    for seed in range(2):
                        generic = random_log_tangent_vector(ctx, random.Random(seed), stratum)
                        along_z1 = LogTangentVector(
                            Fraction(0), (Fraction(1),) + (Fraction(0),) * (n - 1),
                            generic.basepoint,
                        )
                        zero = object.__new__(LogTangentVector)
                        object.__setattr__(zero, "xi0", Fraction(0))
                        object.__setattr__(zero, "xi", (Fraction(0),) * n)
                        object.__setattr__(zero, "basepoint", generic.basepoint)
                        for vector in (generic, along_z1, zero):
                            report = connection_rank(ctx, vector, stratum)
                            rows, matrix = connection_matrix(ctx, vector, stratum)
                            assert (report.rows, report.cols) == (len(rows), len(matrix[0]))
                            assert report.rank == ratmat.rank(matrix)
                        assert report.rank == 0 < report.rows


def test_rank_never_builds_the_matrix(monkeypatch):
    ctx = make_connection_context(2, 2, 4, 1)
    cases = [
        (random_log_tangent_vector(ctx, random.Random(4), stratum), stratum)
        for stratum in (set(), {1}, {1, 2})
    ]
    expected = [connection_rank(ctx, vector, stratum) for vector, stratum in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("connection_rank built the dense matrix")

    monkeypatch.setattr(logconn, "connection_matrix", refuse)
    assert [connection_rank(ctx, vector, stratum) for vector, stratum in cases] == expected


def test_power_rule_table_matches_polynomial_route():
    # points on every stratum, so some coordinates are zero (0^0 = 1);
    # delta = 3 > eps for most eps, so tau^I reaches powers the basis does not
    for n in (1, 2, 3):
        for eps in (1, 2, 3):
            ctx = make_connection_context(n, eps, 3, 2)
            basis = monomial_basis(ctx)
            for stratum in all_strata(ctx):
                vector = random_log_tangent_vector(ctx, random.Random(eps), stratum)
                point = point_map(ctx, vector.basepoint)
                assert sum(p == 0 for p in vector.basepoint) == len(stratum)
                table = logconn._PointTable(ctx, vector)
                # the basis order: exponents in z1..zn, the t slot dropped
                assert list(ctx.basis_exponents) == [
                    mono.sorted_terms()[0][0][1:] for _, mono in basis
                ]
                assert table.basis == [
                    logconn._value_and_slope(mono, point, vector) for _, mono in basis
                ]
                for index in enumerate_multiindices(n, ctx.delta):
                    value, slope = logconn._value_and_slope(
                        tau_power(ctx, index), point, vector
                    )
                    factor = (ctx.r + 1) * slope - vector.xi0 * value
                    assert table.factors(index) == (value, factor)


def test_polynomial_route_shares_no_code_with_the_table_route():
    """component_value checks the table route by a second one: apart from
    the context's cached listings, the two enter no common function of the
    package."""
    package = os.path.dirname(logconn.__file__)

    def entered(run):
        seen = set()

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                seen.add(frame.f_code)

        sys.setprofile(hook)
        try:
            run()
        finally:
            sys.setprofile(None)
        return seen

    def accessor(name):
        raw = vars(logconn.ConnectionContext)[name]
        return getattr(raw, "fget", None) or getattr(raw, "func", None) or raw

    rng = random.Random(11)
    polynomial_route, table_route = set(), set()
    for stratum in (set(), {1}, {1, 2}):
        shape = make_connection_context(2, 2, 4, 1)
        vector = random_log_tangent_vector(shape, rng, stratum)
        draws = random_coefficients(shape, rng)
        a = sections_from_draws(shape, draws).entries[0][1]
        indices = enumerate_multiindices(2, 4)
        # a fresh context per route, so its cached accessors run inside the hook
        ctx = make_connection_context(2, 2, 4, 1)
        polynomial_route |= entered(
            lambda: [component_value(ctx, a, index, vector) for index in indices]
        )
        ctx = make_connection_context(2, 2, 4, 1)
        table_route |= entered(lambda: is_indeterminate(ctx, draws, vector))
        table_route |= entered(lambda: connection_rank(ctx, vector, stratum))
    assert Polynomial.evaluate.__code__ in polynomial_route
    assert logconn._power_rule.__code__ in table_route
    allowed = {
        accessor(name).__code__
        for name in ("stratum_candidates", "delta_indices", "basis_exponents")
    }
    shared = polynomial_route & table_route
    assert shared <= allowed, sorted(code.co_name for code in shared - allowed)


def test_connection_verbs_build_no_polynomial(monkeypatch):
    """rank and sample value every component from the point table, and the
    context holds only its sizes: no Polynomial is constructed."""
    built = []
    init, trusted = Polynomial.__init__, Polynomial._trusted.__func__

    def counted_init(self, *args, **kwargs):
        built.append("__init__")
        init(self, *args, **kwargs)

    def counted_trusted(cls, *args, **kwargs):
        built.append("_trusted")
        return trusted(cls, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    monkeypatch.setattr(Polynomial, "_trusted", classmethod(counted_trusted))
    assert Polynomial.constant(("x",), 1) and built == ["__init__"]  # the counters work
    built.clear()
    for argv in (
        ["rank", "--n", "2", "--delta", "4", "--matrix"],
        ["sample", "--n", "2", "--delta", "4", "--trials", "5"],
    ):
        assert run_command(argv)[0] == 0
    assert built == []


def test_basepoint_stratum_mismatch():
    ctx = ctx_n2()
    vector = LogTangentVector(
        Fraction(1), (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))
    )
    with pytest.raises(BasepointNotInStratum):
        connection_rank(ctx, vector, {1})


# -- deformed Fermat sections ---------------------------------------------------------


def test_fermat_section_chart_expansion():
    ctx = ctx_n1(r=1, delta=2, eps=1)
    ones = {
        index: Polynomial.constant(variables(ctx), 1)
        for index in enumerate_multiindices(1, 2)
    }
    coeffs = CoefficientVector.make(1, 2, ones)
    section = fermat_section(ctx, coeffs)
    assert section == parse_polynomial("z1^4 + z1^2 + 1", variables(ctx))


def test_fermat_section_zero_and_single_term():
    ctx = ctx_n1()
    zero = CoefficientVector.make(1, 2)
    assert fermat_section(ctx, zero).is_zero
    single = CoefficientVector.make(
        1, 2, {(2, 0): Polynomial.constant(variables(ctx), 1)}
    )
    assert fermat_section(ctx, single) == Polynomial.constant(variables(ctx), 1)


def test_fermat_section_degree_mismatch():
    ctx = ctx_n1(eps=1)
    bad = CoefficientVector.make(
        1, 2, {(2, 0): parse_polynomial("z1^3", variables(ctx))}
    )
    with pytest.raises(DegreeMismatch):
        fermat_section(ctx, bad)
    wrong_degree = CoefficientVector.make(1, 3)
    with pytest.raises(DegreeMismatch):
        fermat_section(ctx, wrong_degree)
    ctx = ctx_n2(delta=4, eps=1)
    for text, error in (("z1^2", DegreeMismatch), ("t*z1", ValueError), ("t", ValueError)):
        section = parse_polynomial(text, variables(ctx))
        with pytest.raises(error):
            fermat_section(ctx, CoefficientVector.make(2, 4, {(4, 0, 0): section}))


# -- identities ------------------------------------------------------------------------


def test_restriction_identity_residuals_vanish():
    rng = random.Random(11)
    for n in (1, 2):
        for r in (1, 2):
            for delta in (1, 2, 3):
                ctx = make_connection_context(n, 1, delta, r)
                coeffs = summed_random_coefficients(ctx, rng)
                assert all(
                    p.is_zero for p in restriction_identity_residuals(ctx, coeffs)
                )


# -- sampling ----------------------------------------------------------------------------


def test_sampling_small_run_has_no_failures():
    ctx = ctx_n2(delta=4)
    report = sample_indeterminacy(ctx, trials=50, seed=7)
    assert report.failures == 0
    assert report.trials == 50
    assert sum(report.histogram.values()) == 50


def test_zero_coefficients_are_always_indeterminate():
    ctx = ctx_n2(delta=4)
    rng = random.Random(3)
    zero = [(0, 1)] * len(random_coefficients(ctx, random.Random(0)))
    basepoint = random_stratum_point(ctx, rng, set())
    vector = LogTangentVector(Fraction(1), (Fraction(1), Fraction(1)), basepoint)
    assert is_indeterminate(ctx, zero, vector)


def test_random_log_tangent_vector_draw_order():
    # base point first, then (xi0, xi) until nonzero: seeded output depends on it
    ctx = ctx_n2(delta=4)
    for seed in range(5):
        for stratum in (set(), {1}, {1, 2}):
            vector = random_log_tangent_vector(ctx, random.Random(seed), stratum)
            rng = random.Random(seed)
            assert vector.basepoint == random_stratum_point(ctx, rng, stratum)
            assert vector.xi0 == random_fraction(rng)
            assert vector.xi == tuple(random_fraction(rng) for _ in range(ctx.n))
            assert stratum_of_point(ctx, vector.basepoint) == frozenset(stratum)


class ZeroHeavyRandom(random.Random):
    """Draws a zero numerator a third of the time, to exercise dropped terms."""

    def randint(self, a, b):
        return 0 if a < 0 and self.random() < 1 / 3 else super().randint(a, b)


def test_random_coefficients_draw_order():
    """Seeded sample histograms depend on this order.  Every draw is made
    before random_coefficients returns, two randint calls per basis monomial
    per index, index-major, and the sections they stand for are the summed
    oracle's."""
    bound = logconn.COEFF_BOUND
    for n, delta, eps in ((1, 2, 1), (2, 4, 1), (2, 3, 2), (3, 2, 2)):
        ctx = make_connection_context(n, eps, delta, 1)
        size = len(enumerate_multiindices(n, delta)) * len(enumerate_multiindices(n, eps))
        for seed in range(4):
            for make_rng in (random.Random, ZeroHeavyRandom):
                rng, oracle_rng = make_rng(seed), make_rng(seed)
                draws = random_coefficients(ctx, rng)
                assert draws == [
                    (oracle_rng.randint(-bound, bound), oracle_rng.randint(1, bound))
                    for _ in range(size)
                ]
                assert rng.getstate() == oracle_rng.getstate()
                summed = summed_random_coefficients(ctx, make_rng(seed))
                assert sections_from_draws(ctx, draws) == summed


def test_is_indeterminate_matches_component_value_oracle():
    """The point table against the polynomial route on every stratum.  The
    first k rows of draws are zeroed so the loop has to move past index 0.
    Along a generic vector the next section is random; along d/dz1 it is
    z1 - p1, written as draws, which vanishes at the point, so only its slope
    can keep its component nonzero."""
    for n in (1, 2, 3):
        for eps in (1, 2):
            for delta in range(2 * n, 2 * n + 3):
                ctx = make_connection_context(n, eps, delta, 1)
                basis = [K for K, _ in monomial_basis(ctx)]
                width = len(basis)
                constant = basis.index((eps,) + (0,) * n)
                z1 = basis.index((eps - 1, 1) + (0,) * (n - 1))
                for stratum in all_strata(ctx):
                    for make_rng in (random.Random, ZeroHeavyRandom):
                        rng = make_rng(100 * n + 10 * eps + delta)
                        generic = random_log_tangent_vector(ctx, rng, stratum)
                        along_z1 = LogTangentVector(
                            Fraction(0), (Fraction(1),) + (Fraction(0),) * (n - 1),
                            generic.basepoint,
                        )
                        p1 = generic.basepoint[0]
                        flat = [(0, 1)] * width
                        flat[constant] = (-p1.numerator, p1.denominator)
                        flat[z1] = (1, 1)
                        draws = random_coefficients(ctx, rng)
                        for vector, row in ((generic, None), (along_z1, flat)):
                            for k in (0, 2):
                                case = [(0, 1)] * (k * width)
                                case += row or draws[k * width:(k + 1) * width]
                                case += draws[(k + 1) * width:]
                                # a zero section's component is zero by linearity
                                expected = all(
                                    not (a and component_value(ctx, a, I, vector))
                                    for I, a in sections_from_draws(ctx, case).entries
                                )
                                assert is_indeterminate(ctx, case, vector) == expected
                    # every section zero: the loop reads every index
                    assert is_indeterminate(ctx, [(0, 1)] * len(draws), generic)


def test_is_indeterminate_refuses_draws_of_the_wrong_length():
    ctx = ctx_n2(delta=4, eps=1)
    vector = LogTangentVector(
        Fraction(1), (Fraction(2), Fraction(-1)), (Fraction(3), Fraction(5))
    )
    size = len(random_coefficients(ctx, random.Random(0)))
    other_delta = len(random_coefficients(ctx_n2(delta=3), random.Random(0)))
    for wrong in (0, size - 1, size + 1, other_delta):
        with pytest.raises(DegreeMismatch):
            is_indeterminate(ctx, [(1, 1)] * wrong, vector)


def test_sampling_requires_large_delta():
    ctx = ctx_n2(delta=3)
    with pytest.raises(ValueError):
        sample_indeterminacy(ctx, trials=1, seed=0)


def test_empty_sampling_report():
    ctx = ctx_n2(delta=4)
    report = sample_indeterminacy(ctx, trials=0, seed=0)
    assert report.failures == 0 and report.histogram == {}
