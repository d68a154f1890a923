import random
from fractions import Fraction
from itertools import combinations

import pytest

from logres import logconn, ratmat
from logres.logconn import (
    BasepointNotInStratum,
    DegreeMismatch,
    LogTangentVector,
    component_value,
    connection_matrix,
    connection_rank,
    is_indeterminate,
    make_connection_context,
    point_map,
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
    fermat_section,
    monomial,
    restriction_identity_residuals,
    tau_power,
)


def monomial_basis(ctx):
    """Chart forms of the degree-eps monomials (slot 0 dehomogenized away)."""
    return [
        (K, monomial(ctx.chart.variables, (0,) + K[1:]))
        for K in enumerate_multiindices(ctx.n, ctx.eps)
    ]


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
    holo = {
        z: (ctx.r + 1) * a * tau_i.diff(z) + tau_i * a.diff(z)
        for z in ctx.base_vars
    }
    return LogForm.make(ctx.chart, holo, {"t": -(a * tau_i)})


# -- twisted components ----------------------------------------------------------


def test_component_constant_coefficient_trivial_arrangement_power():
    ctx = ctx_n1()
    one = Polynomial.constant(ctx.chart.variables, 1)
    form = connection_component(ctx, one, (2, 0))  # tau^I = tau_0^2 = 1
    assert form.holomorphic_map == {}
    assert form.log_map == {"t": -one}


def test_component_linear_coefficient():
    ctx = ctx_n1()
    z = Polynomial.variable(ctx.chart.variables, "z1")
    form = connection_component(ctx, z, (2, 0))
    # dz - z dt/t
    assert form.holomorphic_map == {"z1": Polynomial.constant(ctx.chart.variables, 1)}
    assert form.log_map == {"t": -z}


def test_component_zero_section():
    ctx = ctx_n1()
    zero = Polynomial.zero(ctx.chart.variables)
    assert connection_component(ctx, zero, (0, 2)).is_zero


def test_component_matches_symbolic_oracle():
    rng = random.Random(41)
    for n in (1, 2):
        for r in (1, 2, 3):
            for delta in (1, 2, 3):
                ctx = make_connection_context(n, 2, delta, r)
                basis = monomial_basis(ctx)
                for index in enumerate_multiindices(n, delta):
                    a = Polynomial.zero(ctx.chart.variables)
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
            a = parse_polynomial("z1 + 2*z2 - 3", ctx.chart.variables)
            form = connection_component(ctx, a, index)
            symbolic = form.log_map.get(
                "t", Polynomial.zero(ctx.chart.variables)
            ).evaluate(point) * vector.xi0
            for j, z in enumerate(ctx.base_vars):
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
    # points on every stratum, so some coordinates are zero (0^0 = 1)
    for n in (1, 2, 3):
        for eps in (1, 2, 3):
            ctx = make_connection_context(n, eps, 2, 1)
            for stratum in all_strata(ctx):
                vector = random_log_tangent_vector(ctx, random.Random(eps), stratum)
                point = point_map(ctx, vector.basepoint)
                table = logconn._PointTable(ctx, vector)
                basis = monomial_basis(ctx)
                assert list(table.basis) == [mono.sorted_terms()[0][0] for _, mono in basis]
                assert list(table.basis.values()) == [
                    logconn._value_and_slope(ctx, mono, point, vector) for _, mono in basis
                ]
                assert [table.entry(j) for j in range(n + 1)] == [
                    logconn._value_and_slope(ctx, f, point, vector) for f in ctx.tau
                ]


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
        index: Polynomial.constant(ctx.chart.variables, 1)
        for index in enumerate_multiindices(1, 2)
    }
    coeffs = CoefficientVector.make(1, 2, ones)
    section = fermat_section(ctx, coeffs)
    assert section == parse_polynomial("z1^4 + z1^2 + 1", ctx.chart.variables)


def test_fermat_section_zero_and_single_term():
    ctx = ctx_n1()
    zero = CoefficientVector.make(1, 2)
    assert fermat_section(ctx, zero).is_zero
    single = CoefficientVector.make(
        1, 2, {(2, 0): Polynomial.constant(ctx.chart.variables, 1)}
    )
    assert fermat_section(ctx, single) == Polynomial.constant(ctx.chart.variables, 1)


def test_fermat_section_degree_mismatch():
    ctx = ctx_n1(eps=1)
    bad = CoefficientVector.make(
        1, 2, {(2, 0): parse_polynomial("z1^3", ctx.chart.variables)}
    )
    with pytest.raises(DegreeMismatch):
        fermat_section(ctx, bad)
    wrong_degree = CoefficientVector.make(1, 3)
    with pytest.raises(DegreeMismatch):
        fermat_section(ctx, wrong_degree)


# -- identities ------------------------------------------------------------------------


def test_restriction_identity_residuals_vanish():
    rng = random.Random(11)
    for n in (1, 2):
        for r in (1, 2):
            for delta in (1, 2, 3):
                ctx = make_connection_context(n, 1, delta, r)
                coeffs = random_coefficients(ctx, rng)
                assert all(
                    p.is_zero for p in restriction_identity_residuals(ctx, coeffs)
                )


# -- sampling ----------------------------------------------------------------------------


def test_sampling_small_run_has_no_failures():
    ctx = ctx_n2(delta=4)
    report = sample_indeterminacy(ctx, trials=50, seed=7)
    assert report.failures == 0
    assert report.trials == 50
    assert sum(count for _, count in report.histogram) == 50


def test_zero_coefficients_are_always_indeterminate():
    ctx = ctx_n2(delta=4)
    rng = random.Random(3)
    coeffs = CoefficientVector.make(2, 4)
    basepoint = random_stratum_point(ctx, rng, set())
    vector = LogTangentVector(Fraction(1), (Fraction(1), Fraction(1)), basepoint)
    assert is_indeterminate(ctx, coeffs, vector)


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


def summed_random_coefficients(ctx, rng):
    """The original draw: one polynomial per index, summed term by term."""
    basis = monomial_basis(ctx)
    entries = {}
    for index in enumerate_multiindices(ctx.n, ctx.delta):
        a = Polynomial.zero(ctx.chart.variables)
        for _, mono in basis:
            a = a + mono * random_fraction(rng)
        entries[index] = a
    return CoefficientVector.make(ctx.n, ctx.delta, entries)


class ZeroHeavyRandom(random.Random):
    """Draws a zero numerator a third of the time, to exercise dropped terms."""

    def randint(self, a, b):
        return 0 if a < 0 and self.random() < 1 / 3 else super().randint(a, b)


def test_random_coefficients_draw_order():
    """Seeded sample histograms depend on this order.  Every draw is made
    before random_coefficients returns; the sections, built on first read,
    equal the summed oracle's in whatever order they are read."""
    for n, delta, eps in ((1, 2, 1), (2, 4, 1), (2, 3, 2), (3, 2, 2)):
        ctx = make_connection_context(n, eps, delta, 1)
        for seed in range(4):
            for make_rng in (random.Random, ZeroHeavyRandom):
                rng, oracle_rng = make_rng(seed), make_rng(seed)
                coeffs = random_coefficients(ctx, rng)
                drawn_state = rng.getstate()  # before any section is read
                assert coeffs == summed_random_coefficients(ctx, oracle_rng)
                assert drawn_state == oracle_rng.getstate()
                assert rng.random() == oracle_rng.random()
                expected = summed_random_coefficients(ctx, make_rng(seed))
                assert hash(coeffs) == hash(expected)
                oracle = expected.entries
                size = len(oracle)
                backwards = random_coefficients(ctx, make_rng(seed)).entries
                assert len(backwards) == size
                assert [backwards[i] for i in reversed(range(size))] == list(oracle[::-1])
                negative = random_coefficients(ctx, make_rng(seed)).entries
                assert [negative[-k] for k in range(1, size + 1)] == list(oracle[::-1])
                with pytest.raises(IndexError):
                    negative[-size - 1]
                sliced = random_coefficients(ctx, make_rng(seed)).entries
                for cut in (slice(-2, None), slice(None, None, -2), slice(1, -1), slice(None)):
                    assert sliced[cut] == oracle[cut]
                assert sliced == oracle and oracle == sliced and tuple(sliced) == oracle
                for _, a in coeffs.entries:
                    assert a == Polynomial(a.variables, a.terms)
                    assert all(type(c) is Fraction and c for c in a.terms.values())


def test_is_indeterminate_matches_component_value_oracle():
    """The point table against the polynomial route on every stratum.  The
    first k sections are zeroed so the loop has to move past index 0.  Along
    a generic vector the next section is random; along d/dz1 it is z1 - p1,
    which vanishes at the point, so only its slope can keep its component
    nonzero."""
    for n in (1, 2, 3):
        for eps in (1, 2):
            for delta in range(2 * n, 2 * n + 3):
                ctx = make_connection_context(n, eps, delta, 1)
                variables = ctx.chart.variables
                zero = Polynomial.zero(variables)
                for stratum in all_strata(ctx):
                    for make_rng in (random.Random, ZeroHeavyRandom):
                        rng = make_rng(100 * n + 10 * eps + delta)
                        generic = random_log_tangent_vector(ctx, rng, stratum)
                        along_z1 = LogTangentVector(
                            Fraction(0), (Fraction(1),) + (Fraction(0),) * (n - 1),
                            generic.basepoint,
                        )
                        flat = Polynomial.variable(variables, "z1") - Polynomial.constant(
                            variables, generic.basepoint[0]
                        )
                        entries = random_coefficients(ctx, rng).entries
                        for vector, section in ((generic, None), (along_z1, flat)):
                            for k in (0, 2):
                                case = [(I, zero) for I, _ in entries[:k]]
                                case.append((entries[k][0], section or entries[k][1]))
                                case += entries[k + 1:]
                                coeffs = CoefficientVector(n, delta, tuple(case))
                                # a zero section's component is zero by linearity
                                expected = all(
                                    not (a and component_value(ctx, a, I, vector))
                                    for I, a in case
                                )
                                assert is_indeterminate(ctx, coeffs, vector) == expected
                    # every section zero: the loop reads every index
                    coeffs = CoefficientVector.make(n, delta)
                    assert is_indeterminate(ctx, coeffs, generic)


def test_is_indeterminate_refuses_what_fermat_section_refuses():
    ctx = ctx_n2(delta=4, eps=1)
    vector = LogTangentVector(
        Fraction(1), (Fraction(2), Fraction(-1)), (Fraction(3), Fraction(5))
    )
    for text, error in (("z1^2", DegreeMismatch), ("t*z1", ValueError), ("t", ValueError)):
        section = parse_polynomial(text, ctx.chart.variables)
        coeffs = CoefficientVector.make(2, 4, {(4, 0, 0): section})
        for check in (fermat_section, lambda c, k: is_indeterminate(c, k, vector)):
            with pytest.raises(error):
                check(ctx, coeffs)
    with pytest.raises(DegreeMismatch):
        is_indeterminate(ctx, CoefficientVector.make(2, 3), vector)


def test_sampling_requires_large_delta():
    ctx = ctx_n2(delta=3)
    with pytest.raises(ValueError):
        sample_indeterminacy(ctx, trials=1, seed=0)


def test_empty_sampling_report():
    ctx = ctx_n2(delta=4)
    report = sample_indeterminacy(ctx, trials=0, seed=0)
    assert report.failures == 0 and report.histogram == ()
