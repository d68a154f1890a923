"""Acceptance suite: one test per criterion, each printing a pass line with
its elapsed time (run with -s to see them).  Every check is exact; the only
randomized pieces use fixed seeds, so the suite is deterministic.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

from conftest import (
    all_simple_ideals,
    random_compatible_system,
    strip_slice_from_result,
    transverse_slice,
    variety,
)
from logres.blowup import blow_up_center, root_chart
from logres.bounds import chain_inequality_holds, degree_threshold, reconstruct_parameters
from logres.cli import run_command
from logres.logconn import (
    LogTangentVector,
    connection_rank,
    make_connection_context,
    random_fraction,
    random_stratum_point,
    sample_indeterminacy,
)
from logres.logjet import (
    build_obstruction_system,
    make_jet_chart,
    obstruction_certificate,
    obstruction_ideal,
    resolve_obstruction_system,
    stratum_prime,
    verify_principalization,
)
from logres.monideal import MonomialIdeal, ideal_sum
from logres.multiindex import enumerate_multiindices
from logres.residues import (
    DivisorArrangement,
    construct_global_log_forms,
    forms_on_charts,
    projective_variables,
    residue_matrix,
)
from logres.ratmat import rank
from logres.resolution import resolve_system
from logres.symcore import Polynomial, parse_polynomial
from logres.blowup import strict_transform_variety
from oracles import (
    connection_component,
    decompose_simple_ideal,
    prime,
    restrict_system,
    restriction_identity_residuals,
    simple_shape,
    summed_random_coefficients,
    transform_ideal,
)


def _pass(num, budget, started, message):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"[PASS] criterion {num:2d} ({elapsed:6.2f}s < {budget}s): {message}")


def nonempty_subsets(items):
    for size in range(1, len(items) + 1):
        yield from combinations(items, size)


def test_c01_lift_ideal_chartwise_equality():
    started = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        c = n
        for k in range(0, n + 1):
            for t in range(1, n + 1):
                jet = make_jet_chart(n, c, k, t)
                for I in nonempty_subsets(range(1, c + 1)):
                    cert = obstruction_certificate(jet, I)
                    assert cert["equal"], cert
                    checked += 1
    _pass(1, 10, started, f"closed-form equality on {checked} obstruction ideals")


def test_c02_intersection_relations():
    started = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for k in range(0, n + 1):
            for t in range(1, n + 1):
                jet = make_jet_chart(n, n, k, t)
                subsets = list(nonempty_subsets(range(1, n + 1)))
                for I in subsets:
                    for J in subsets:
                        pi = stratum_prime(jet, I)
                        pj = stratum_prime(jet, J)
                        common = set(I) & set(J)
                        if common:
                            target = stratum_prime(jet, common)
                            assert ideal_sum([pi, pj]).contains_ideal(target)
                        else:
                            # strata from disjoint component sets never share a chart
                            assert pi.is_unit or pj.is_unit
                        checked += 1
    _pass(2, 5, started, f"stratum intersection relations, {checked} pairs")


def test_c03_principalization():
    started = time.monotonic()
    certified = 0
    for n in (2, 3):
        c = n
        for k in range(0, c + 1):
            for t in range(1, n + 1):
                jet, system = build_obstruction_system(n, c, k, t)
                minimal = resolve_obstruction_system(jet, system, "minimal")
                for i in range(1, c + 1):
                    complement = sorted(set(range(1, c + 1)) - {i})
                    verify_principalization(minimal, jet, complement)
                    certified += 1
                canonical = resolve_obstruction_system(jet, system, "canonical")
                verify_principalization(canonical, jet, range(1, c + 1))
                for i in range(1, c + 1):
                    complement = sorted(set(range(1, c + 1)) - {i})
                    verify_principalization(canonical, jet, complement)
                    certified += 1
                certified += 1
    _pass(3, 60, started, f"{certified} principality certificates across all charts")


def test_c04_strict_transform_closure():
    started = time.monotonic()
    ideals = 0
    charts = 0
    for m in range(2, 6):
        variables = tuple(f"x{i}" for i in range(1, m + 1))
        base = root_chart(variables)
        for ideal in all_simple_ideals(variables, 3):
            ideals += 1
            singles, pairs = simple_shape(ideal)
            r = len(singles) + len(pairs)
            if r < 2:
                continue  # codimension-one centers cannot be blown up
            for center in decompose_simple_ideal(ideal):
                for chart in blow_up_center(base, center):
                    record = transform_ideal(chart, ideal)
                    assert record.strict_is_simple_or_trivial, (
                        ideal,
                        center,
                        chart.id,
                        record.strict,
                    )
                    charts += 1
    _pass(4, 60, started, f"{ideals} simple ideals, {charts} chart transforms simple-or-trivial")


def test_c05_disjointness_preservation():
    started = time.monotonic()
    rng = random.Random(515)

    def draw_quadruple(contained_center):
        while True:
            m = rng.randint(4, 6)
            variables = tuple(f"x{i}" for i in range(1, m + 1))
            d = rng.randint(2, 3)
            s1 = frozenset(rng.sample(variables, d))
            s2 = frozenset(rng.sample(variables, d))
            if s1 == s2:
                continue
            union = sorted(s1 | s2)
            if len(union) < d:
                continue
            s3 = frozenset(rng.sample(union, d))
            if s3 in (s1, s2):
                continue
            pool = union if contained_center else variables
            if len(pool) < d:
                continue
            s0 = frozenset(rng.sample(pool, d))
            if s0 in (s1, s2, s3):
                continue
            return variables, s0, s1, s2, s3

    for case in (False, True):
        for _ in range(500):
            variables, s0, s1, s2, s3 = draw_quadruple(case)
            base = root_chart(variables)
            v0, v1, v2, v3 = (variety(base, *s) for s in (s0, s1, s2, s3))
            for chart in blow_up_center(base, v0):
                t1 = strict_transform_variety(chart, v1)
                t2 = strict_transform_variety(chart, v2)
                t3 = strict_transform_variety(chart, v3)
                if t1 is None or t2 is None:
                    continue  # intersection empty in this chart
                # first claim: the transformed intersection stays inside t3
                assert t3 is not None
                assert t3.vanishing <= (t1.vanishing | t2.vanishing)
                # ideal-theoretic route agrees with the combinatorial one
                both = ideal_sum(
                    [prime(t1, chart.variables), prime(t2, chart.variables)]
                )
                assert both.contains_ideal(prime(t3, chart.variables))
                # second claim: a center containing the intersection separates
                assert not case
    _pass(5, 30, started, "2 x 500 random quadruples, both conclusions in every chart")


def test_c06_functoriality():
    started = time.monotonic()
    rng = random.Random(606)
    for _ in range(100):
        system = random_compatible_system(rng)
        zeroed = transverse_slice(rng, system)
        full = resolve_system(system, mode="canonical")
        restricted = resolve_system(restrict_system(system, zeroed), mode="canonical")
        assert restricted.to_dict() == strip_slice_from_result(full.to_dict(), zeroed)
    _pass(6, 60, started, "100 random (system, transverse slice) pairs, chart-for-chart")


def test_c07_divisibility():
    started = time.monotonic()
    rng = random.Random(707)
    draws = 0
    while draws < 200:
        n = rng.randint(1, 2)
        delta = rng.randint(1, 4)
        r = rng.randint(1, 3)
        ctx = make_connection_context(n, 2, delta, r)
        indices = enumerate_multiindices(n, delta)
        index = indices[rng.randrange(len(indices))]
        coeffs = summed_random_coefficients(ctx, rng)
        a = dict(coeffs.entries)[index]
        connection_component(ctx, a, index)  # raises DivisibilityFailure on defect
        draws += 1
    _pass(7, 60, started, f"{draws} twisted components divided exactly")


def test_c08_rank_bound():
    started = time.monotonic()
    ctx = make_connection_context(2, 1, 4, 1)
    strata = [
        (2, frozenset()),
        (1, frozenset({1})),
        (1, frozenset({2})),
        (0, frozenset({1, 2})),
    ]
    bounds = {2: 15, 1: 5, 0: 1}
    rng = random.Random(808)
    for k, stratum in strata:
        for _ in range(50):
            basepoint = random_stratum_point(ctx, rng, stratum)
            while True:
                xi0 = random_fraction(rng)
                xi = tuple(random_fraction(rng) for _ in range(2))
                if xi0 or any(xi):
                    break
            vector = LogTangentVector(xi0, xi, basepoint)
            report = connection_rank(ctx, vector, stratum)
            assert report.bound == bounds[k]
            assert report.satisfied, (k, basepoint, xi0, xi, report)
    _pass(8, 120, started, "rank >= {1, 5, 15} at 50 samples per stratum")


def test_c09_restriction_identity():
    started = time.monotonic()
    rng = random.Random(909)
    draws = 0
    while draws < 50:
        n = rng.randint(1, 2)
        delta = rng.randint(1, 3)
        r = rng.randint(1, 2)
        ctx = make_connection_context(n, 1, delta, r)
        coeffs = summed_random_coefficients(ctx, rng)
        residuals = restriction_identity_residuals(ctx, coeffs)
        assert all(p.is_zero for p in residuals)
        draws += 1
    _pass(9, 60, started, f"{draws} graph substitutions vanish identically")


def test_c10_indeterminacy_sampling():
    started = time.monotonic()
    ctx = make_connection_context(2, 1, 4, 1)
    report = sample_indeterminacy(ctx, trials=1000, seed=1010)
    assert report.trials == 1000
    assert report.failures == 0
    _pass(10, 60, started, "1000 random draws, zero simultaneous vanishings")


def test_c11_bounds_arithmetic():
    started = time.monotonic()
    for n in range(1, 21):
        assert chain_inequality_holds(n), n
    assert degree_threshold(2, 2).m_threshold == 4096
    rng = random.Random(1111)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 3)
        delta = tuple(rng.randint(4 * n - 1, 4 * n + 9) for _ in range(n))
        r0 = 1 + 2 * n * max(delta) ** n
        divisors = [d for d in range(1, 13) if all(x % d == 0 for x in delta)]
        q = rng.choice(divisors or [1])
        alpha = Fraction(q * (r0 + 2) + rng.randint(0, 7 * q), q)
        report = reconstruct_parameters(alpha, delta)
        assert report.valid
        assert all(
            m == e + (report.r + 1) * d and m == alpha * d
            for e, d, m in zip(report.eps, delta, report.m)
        )
        checked += 1
    _pass(11, 5, started, "chain inequality n <= 20, threshold 4096, 100 reconstructions")


def test_c12_global_log_forms():
    started = time.monotonic()
    x = projective_variables(2)

    def hom(text):
        return parse_polynomial(text, x)

    arrangements = [
        [hom("x0")],
        [hom("x1")],
        [hom("x0^2 + x1^2 + x2^2")],
        [hom("x0 + x1 + x2")],
        [hom("x0"), hom("x1")],
        [hom("x0"), hom("x2")],
        [hom("x1"), hom("x0 + x2")],
        [hom("x0"), hom("x0^2 + x1^2 + x2^2")],
        [hom("x2"), hom("x0^2 + 2*x1^2 + 3*x2^2")],
        [hom("x0 + x1"), hom("x0 - x1")],
        [hom("x0"), hom("x1"), hom("x2")],
        [hom("x0"), hom("x1"), hom("x0 + x1 + x2")],
        [hom("x0"), hom("x1"), hom("x0^2 + x1^2 + x2^2")],
        [hom("x0"), hom("x2"), hom("x0^2 + 5*x1^2 + x2^2")],
        [hom("x1"), hom("x2"), hom("4*x0^2 + x1^2 + x2^2")],
        [hom("x0 + x2"), hom("x1"), hom("x2")],
        [hom("x0"), hom("x1 + x2"), hom("x1 - x2")],
        [hom("x0"), hom("x0 + x1"), hom("x0 + x2")],
        [hom("x2"), hom("x0 + x1"), hom("x0^2 + x1^2 + 2*x2^2")],
        [hom("x0 - x2"), hom("x1 - x2"), hom("x0 + x1 + x2")],
    ]
    assert len(arrangements) == 20
    for components in arrangements:
        arrangement = DivisorArrangement.make(2, components)
        forms = construct_global_log_forms(arrangement)
        c = arrangement.count
        assert len(forms) == c - 1
        for form, entry in zip(forms, forms_on_charts(arrangement, forms)):
            assert form.degree_balance() == 0
            for j in range(3):  # representations exist on every standard chart
                nums = entry["charts"][str(j)]["numerators"]
                assert len(nums) == 2
        if forms:
            assert rank(residue_matrix(forms)) == c - 1
    _pass(12, 30, started, "20 arrangements: c-1 balanced, residue-independent forms")


def test_c13_cli_determinism():
    started = time.monotonic()
    argv = [
        "resolve", "--n", "2", "--c", "2", "--k", "2",
        "--mode", "minimal", "--format", "json",
    ]
    first = run_command(argv)
    second = run_command(argv)
    assert first == second
    assert first[0] == 0
    # a fresh interpreter produces the same bytes
    proc = subprocess.run(
        [sys.executable, "-m", "logres.cli", *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == first[1]
    _pass(13, 60, started, "resolve output byte-identical in-process and across processes")
