import os
import random
import sys
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

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
    encode_draws,
    fermat_section,
    monomial,
    monomial_basis,
    random_fraction,
    reference_cells,
    reference_is_indeterminate,
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


def decoded(draws):
    """The (numerator, denominator) pairs of kept words."""
    return logconn._pairs(draws, 0, len(draws) // 8)


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
    slots = range(1, ctx.n + 1)
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
                # integer entries: values times the table's scale, slopes
                # times its slope scale
                def rational(value, slope):
                    return Fraction(value, table.scale), Fraction(slope, table.slope_scale)

                assert [rational(*entry) for entry in table.basis] == [
                    logconn._value_and_slope(mono, point, vector) for _, mono in basis
                ]
                for index in enumerate_multiindices(n, ctx.delta):
                    value, slope = logconn._value_and_slope(
                        tau_power(ctx, index), point, vector
                    )
                    factor = (ctx.r + 1) * slope - vector.xi0 * value
                    assert rational(*table.factors(index)) == (value, factor)


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
        a = sections_from_draws(shape, decoded(draws)).entries[0][1]
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
        for name in ("delta_indices", "basis_exponents")
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
    zero = encode_draws([(0, 1)] * (len(random_coefficients(ctx, random.Random(0))) // 8))
    basepoint = random_stratum_point(ctx, rng, set())
    vector = LogTangentVector(Fraction(1), (Fraction(1), Fraction(1)), basepoint)
    assert is_indeterminate(ctx, zero, vector)


def oracle_log_tangent_vector(ctx, rng, stratum):
    """The vector from one randint call per numerator and per denominator:
    each free basepoint coordinate drawn again while zero, in order, then
    (xi0, xi) drawn again while all zero."""
    basepoint = tuple(
        Fraction(0) if j in stratum else random_fraction(rng, nonzero=True)
        for j in range(1, ctx.n + 1)
    )
    while True:
        xi0 = random_fraction(rng)
        xi = tuple(random_fraction(rng) for _ in range(ctx.n))
        if xi0 or any(xi):
            return LogTangentVector(xi0, xi, basepoint)


def test_random_log_tangent_vector_draw_order():
    # base point first, then (xi0, xi) until nonzero: seeded output depends on it
    for ctx in (ctx_n2(delta=4), make_connection_context(3, 1, 6, 1)):
        for seed in range(5):
            for stratum in all_strata(ctx):  # the last is all of 1..n
                rng, oracle_rng = random.Random(seed), random.Random(seed)
                vector = random_log_tangent_vector(ctx, rng, stratum)
                assert vector == oracle_log_tangent_vector(ctx, oracle_rng, stratum)
                assert rng.getstate() == oracle_rng.getstate()
                assert stratum_of_point(ctx, vector.basepoint) == frozenset(stratum)


class ScriptedRandom(random.Random):
    """A generator that serves fixed 32-bit words, in order: getrandbits(k)
    is the next word shifted right by 32 - k for k <= 32, and the next m
    words, least significant first, for k = 32*m.  ``used`` counts the words
    served; reading past the script raises IndexError."""

    def __new__(cls, words):  # Python 3.10 would seed from the script itself
        return super().__new__(cls)

    def __init__(self, words):
        super().__init__(0)
        self.words, self.used = list(words), 0

    def getrandbits(self, k):
        m = 1 if k <= 32 else k // 32
        assert k <= 32 or k % 32 == 0
        served = self.words[self.used:self.used + m]
        if len(served) < m:
            raise IndexError("script overdrawn")
        self.used += m
        if k <= 32:
            return served[0] >> (32 - k)
        return sum(word << (32 * i) for i, word in enumerate(served))


# the words on each side of the denominator bound 0xFA000000 and of the
# numerator bound 0xFA200000, and the largest word
BOUNDARY_WORDS = (0xF9FFFFFF, 0xFA000000, 0xFA1FFFFF, 0xFA200000, 0xFFFFFFFF)
FILLER_WORDS = [(0x9E3779B9 * i) % 0xFA000000 for i in range(1, 41)]  # kept in either role
ZERO_NUMERATOR = logconn.COEFF_BOUND << logconn._NUMERATOR_SHIFT


def boundary_scripts(size):
    """Scripts for ``size`` pairs: each boundary word as a numerator, as a
    denominator and as the last word of the first batch, then runs of
    refused words in both roles."""
    for word in BOUNDARY_WORDS:
        for position in (0, 1, 2 * size - 1):
            yield FILLER_WORDS[:position] + [word] + FILLER_WORDS
    yield [0xFFFFFFFF, 0xFA200000, 0xFFFFFFFF, 0xFA1FFFFF] + FILLER_WORDS
    yield FILLER_WORDS[:1] + [0xFA000000, 0xFFFFFFFF, 0xFA1FFFFF, 0xFA200000] + FILLER_WORDS
    yield [0xFA100000, 0xFA100000, 0xFA000000, 0xF9FFFFFF] * 3 + FILLER_WORDS
    yield FILLER_WORDS[:2 * size - 1] + [0xFFFFFFFF] * 5 + FILLER_WORDS


@pytest.mark.parametrize("size", [1, 2, 3])
def test_random_coefficients_at_the_word_boundaries(size):
    """On scripted words at and around the refusal bounds, the word route
    returns what the randint loop returns and reads exactly its words."""
    bound = logconn.COEFF_BOUND
    shape = SimpleNamespace(delta_indices=range(size), basis_exponents=((),))
    for script in boundary_scripts(size):
        rng, oracle_rng = ScriptedRandom(script), ScriptedRandom(script)
        assert decoded(random_coefficients(shape, rng)) == [
            (oracle_rng.randint(-bound, bound), oracle_rng.randint(1, bound))
            for _ in range(size)
        ]
        assert rng.used == oracle_rng.used


def test_random_log_tangent_vector_redraws_zero_pairs():
    """Scripted zero numerators: a basepoint coordinate redraws its pair,
    and an all-zero (xi0, xi) is drawn again, as the randint route does."""
    f = FILLER_WORDS
    scripts = (
        [ZERO_NUMERATOR, f[0]] * 3 + [0xFFFFFFFF] + f,
        f[:4] + [ZERO_NUMERATOR, f[0]] * 3 + f,
        [ZERO_NUMERATOR, 0xFA000000, f[1], ZERO_NUMERATOR, f[2]] * 2 + f,
    )
    ctx = ctx_n2(delta=4)
    for stratum in all_strata(ctx):
        for script in scripts:
            rng, oracle_rng = ScriptedRandom(script), ScriptedRandom(script)
            vector = random_log_tangent_vector(ctx, rng, stratum)
            assert vector == oracle_log_tangent_vector(ctx, oracle_rng, stratum)
            assert rng.used == oracle_rng.used


def test_is_indeterminate_decodes_each_row_when_it_reads_it(monkeypatch):
    """The (start, stop) pair ranges is_indeterminate decodes, on the draws
    of ``sample --n 3 --delta 8``: on a generic vector only row 0, and on
    draws whose numerators are all zero, which are indeterminate, each row
    once, in order.  Decoding every word up front would read one range."""
    ctx = make_connection_context(3, 1, 8, 1)
    width, rows = len(ctx.basis_exponents), len(ctx.delta_indices)
    decode, ranges = logconn._pairs, []

    def recorded(words, start, stop):
        ranges.append((start, stop))
        return decode(words, start, stop)

    monkeypatch.setattr(logconn, "_pairs", recorded)
    zero = encode_draws([(0, 1)] * (rows * width))
    for seed in range(3):
        for stratum in all_strata(ctx):
            rng = random.Random(seed)
            vector = random_log_tangent_vector(ctx, rng, stratum)
            draws = random_coefficients(ctx, rng)
            assert len(draws) == 8 * rows * width
            ranges.clear()
            assert not is_indeterminate(ctx, draws, vector)
            assert ranges == [(0, width)]
            ranges.clear()
            assert is_indeterminate(ctx, zero, vector)
            assert ranges == [(row * width, (row + 1) * width) for row in range(rows)]


@given(
    st.lists(
        st.tuples(
            st.integers(-logconn.COEFF_BOUND, logconn.COEFF_BOUND),
            st.integers(1, logconn.COEFF_BOUND),
        ),
        max_size=12,
    )
)
@example([])
@example([(-1000, 1), (1000, 1000)])  # the bounds of both randint ranges
@example([(1000, 1), (0, 1000), (-1000, 1000)])
def test_encode_draws_is_the_inverse_of_pairs(pairs):
    assert logconn._pairs(encode_draws(pairs), 0, len(pairs)) == pairs


def test_encode_draws_refuses_pairs_outside_the_randint_ranges():
    for pair in ((-1001, 1), (1001, 1), (0, 0), (0, 1001)):
        with pytest.raises(ValueError):
            encode_draws([(0, 1), pair])


def zero_stream(seed):
    """The stream that picks which numerators read zero: apart from the
    generator the draws come from, so their stream is the plain one."""
    return random.Random(f"zeros:{seed}")


def zero_a_third(draws, seed):
    """The draws with a seeded third of their numerators zeroed, to
    exercise dropped terms."""
    zeros = zero_stream(seed)
    return [(0 if zeros.random() < 1 / 3 else p, q) for p, q in draws]


class ZeroHeavyRandom(random.Random):
    """A randint whose numerators (a < 0) read zero where ``zero_a_third``
    zeroes them; the generator's own stream is the plain one."""

    def __init__(self, seed):
        super().__init__(seed)
        self.zeros = zero_stream(seed)

    def randint(self, a, b):
        value = super().randint(a, b)
        return 0 if a < 0 and self.zeros.random() < 1 / 3 else value


@pytest.mark.parametrize("size", [0, 1, 7, 60, 315])
def test_random_coefficients_reads_the_randint_stream_from_words(size):
    """The word route returns what the randint loop returns and leaves the
    generator in the state the loop leaves, on every seed; size 0 draws
    nothing.  A context of any size is a stand-in with that many indices of
    one basis monomial each."""
    bound = logconn.COEFF_BOUND
    shape = SimpleNamespace(delta_indices=range(size), basis_exponents=((),))
    for seed in range(200):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert decoded(random_coefficients(shape, rng)) == [
            (oracle_rng.randint(-bound, bound), oracle_rng.randint(1, bound))
            for _ in range(size)
        ]
        assert rng.getstate() == oracle_rng.getstate()


def test_random_coefficients_draw_order():
    """Seeded sample histograms depend on this order.  Every draw is made
    before random_coefficients returns, two randint calls per basis monomial
    per index, index-major, and the sections they stand for are the summed
    oracle's, also when a third of their numerators are zero."""
    bound = logconn.COEFF_BOUND
    for n, delta, eps in ((1, 2, 1), (2, 4, 1), (2, 3, 2), (3, 2, 2)):
        ctx = make_connection_context(n, eps, delta, 1)
        size = len(enumerate_multiindices(n, delta)) * len(enumerate_multiindices(n, eps))
        for seed in range(4):
            for make_rng in (random.Random, ZeroHeavyRandom):
                rng, oracle_rng = random.Random(seed), make_rng(seed)
                draws = decoded(random_coefficients(ctx, rng))
                if make_rng is ZeroHeavyRandom:
                    draws = zero_a_third(draws, seed)
                    assert any(p == 0 for p, _ in draws)
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
                        seed = 100 * n + 10 * eps + delta
                        rng = make_rng(seed)
                        generic = random_log_tangent_vector(ctx, rng, stratum)
                        along_z1 = LogTangentVector(
                            Fraction(0), (Fraction(1),) + (Fraction(0),) * (n - 1),
                            generic.basepoint,
                        )
                        p1 = generic.basepoint[0]
                        flat = [(0, 1)] * width
                        flat[constant] = (-p1.numerator, p1.denominator)
                        flat[z1] = (1, 1)
                        draws = decoded(random_coefficients(ctx, rng))
                        if make_rng is ZeroHeavyRandom:  # its numerators too
                            draws = zero_a_third(draws, seed)
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
                                got = is_indeterminate(ctx, encode_draws(case), vector)
                                assert got == expected
                    # every section zero: the loop reads every index
                    assert is_indeterminate(ctx, encode_draws([(0, 1)] * len(draws)), generic)


def test_is_indeterminate_refuses_draws_of_the_wrong_length():
    ctx = ctx_n2(delta=4, eps=1)
    vector = LogTangentVector(
        Fraction(1), (Fraction(2), Fraction(-1)), (Fraction(3), Fraction(5))
    )
    size = len(random_coefficients(ctx, random.Random(0))) // 8
    other_delta = len(random_coefficients(ctx_n2(delta=3), random.Random(0))) // 8
    for wrong in (0, size - 1, size + 1, other_delta):
        with pytest.raises(DegreeMismatch):
            is_indeterminate(ctx, encode_draws([(1, 1)] * wrong), vector)
    # a ragged tail of 8*size - 1 bytes; the message counts whole pairs
    with pytest.raises(DegreeMismatch, match=f"need {size} draws, got {size - 1}$"):
        is_indeterminate(ctx, encode_draws([(1, 1)] * size)[:-1], vector)


def test_sampling_requires_large_delta():
    ctx = ctx_n2(delta=3)
    with pytest.raises(ValueError):
        sample_indeterminacy(ctx, trials=1, seed=0)


def test_empty_sampling_report():
    ctx = ctx_n2(delta=4)
    report = sample_indeterminacy(ctx, trials=0, seed=0)
    assert report.failures == 0 and report.histogram == {}


def test_integer_table_matches_the_fraction_reference():
    """is_indeterminate, connection_rank and the --matrix cells against the
    Fraction reference of tests/oracles.py.  Points, vectors and draws are
    small, and a section is often zero, so zero cells, vanishing
    components and indeterminate draws with nonzero sections all occur."""
    rng = random.Random(23)
    small = [Fraction(x) for x in (0, 0, 1, -1, 2, "1/2", "-3/2", "2/3")]
    indeterminate = 0
    for _ in range(1500):
        n, eps, delta = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
        ctx = make_connection_context(n, eps, delta, rng.randint(1, 2))
        basepoint = tuple(rng.choice(small) for _ in range(n))
        xi0, *xi = [rng.choice(small) for _ in range(n + 1)]
        if not xi0 and not any(xi):
            continue
        vector = LogTangentVector(xi0, tuple(xi), basepoint)
        stratum = stratum_of_point(ctx, basepoint)
        cells = reference_cells(ctx, vector)
        width = len(ctx.basis_exponents)
        rows, matrix = connection_matrix(ctx, vector, stratum)
        assert rows == [I for I in cells if not any(I[j] for j in stratum)]
        for row_index, row in zip(rows, matrix):
            start = list(cells).index(row_index) * width
            assert row[start:start + width] == cells[row_index]
            assert not any(row[:start]) and not any(row[start + width:])
        assert connection_rank(ctx, vector, stratum).rank == sum(any(cells[I]) for I in rows)
        zero_row = rng.choice((0.2, 0.6, 0.9))
        draws = []
        for _ in ctx.delta_indices:
            nonzero = rng.random() > zero_row
            draws += [
                (rng.randint(-2, 2) if nonzero else 0, rng.randint(1, 3)) for _ in range(width)
            ]
        expected = reference_is_indeterminate(cells, draws)
        assert is_indeterminate(ctx, encode_draws(draws), vector) == expected
        # indeterminate although some section is not zero
        indeterminate += expected and any(p for p, _ in draws)
    assert indeterminate >= 20
