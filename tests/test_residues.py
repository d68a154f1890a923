import random
from fractions import Fraction

import pytest

from logres import residues
from logres.cli import run_command
from logres.ratmat import rank
from logres.residues import (
    DivisorArrangement,
    chart_variables,
    construct_global_log_forms,
    dehomogenize,
    forms_on_charts,
    projective_variables,
    residue_matrix,
)
from logres.symcore import Polynomial, parse_polynomial
from oracles import (
    ComponentNotLogMarked,
    Frame,
    LogForm,
    as_coordinate_logform,
    residue_of_form,
    variable,
)

P2 = projective_variables(2)


def hom(text):
    return parse_polynomial(text, P2)


def arrangement(*texts):
    return DivisorArrangement.make(2, [hom(t) for t in texts])


# -- residues of chart forms ----------------------------------------------------


def test_frame_refuses_duplicate_and_unlisted_names():
    with pytest.raises(ValueError, match="duplicate frame variables"):
        Frame(("z1", "z1"))
    with pytest.raises(ValueError, match="not in frame"):
        Frame(("z1", "z2"), frozenset({"z3"}))


def test_residue_reads_off_log_coefficient_and_restricts():
    frame = Frame(("z1", "z2"), frozenset({"z1"}))
    vs = frame.variables
    z2 = variable(vs, "z2")
    one = Polynomial.constant(vs, 1)
    eta = LogForm.make(frame, {"z2": one}, {"z1": z2})
    assert residue_of_form(eta, "z1") == z2

    # restriction to the divisor: z1-dependent parts of the coefficient die
    z1 = variable(vs, "z1")
    eta2 = LogForm.make(frame, {}, {"z1": z2 + z1 * z2})
    assert residue_of_form(eta2, "z1") == z2


def test_holomorphic_form_has_zero_residue():
    frame = Frame(("z1", "z2"), frozenset({"z1"}))
    one = Polynomial.constant(frame.variables, 1)
    eta = LogForm.make(frame, {"z2": one}, {})
    assert residue_of_form(eta, "z1").is_zero


def test_constant_residue():
    frame = Frame(("z1", "z2"), frozenset({"z1", "z2"}))
    one = Polynomial.constant(frame.variables, 1)
    eta = LogForm.make(frame, {}, {"z1": one, "z2": one})
    assert residue_of_form(eta, "z2") == one


def test_unmarked_component_rejected():
    frame = Frame(("z1", "z2"), frozenset({"z1"}))
    eta = LogForm.make(frame, {}, {})
    with pytest.raises(ComponentNotLogMarked):
        residue_of_form(eta, "z2")


def test_residue_is_linear_and_local():
    frame = Frame(("z1", "z2", "z3"), frozenset({"z1", "z2"}))
    vs = frame.variables
    z3 = variable(vs, "z3")
    one = Polynomial.constant(vs, 1)
    a = LogForm.make(frame, {}, {"z1": z3, "z2": one})
    b = LogForm.make(frame, {"z3": one}, {"z1": one})
    assert residue_of_form(a + b, "z1") == residue_of_form(a, "z1") + residue_of_form(
        b, "z1"
    )
    # a form using only the z2 log pole is pulled back from the smaller frame:
    # its residue along z1 vanishes
    partial = LogForm.make(frame, {"z3": z3}, {"z2": z3})
    assert residue_of_form(partial, "z1").is_zero


# -- global forms ------------------------------------------------------------------


def test_pencil_of_lines():
    arr = arrangement("x0", "x1")
    (form,) = construct_global_log_forms(arr)
    assert form == (Fraction(1), Fraction(-1))
    assert sum(r * d for r, d in zip(form, arr.degrees)) == 0
    # on the chart x2 != 0 this is dlog(u0) - dlog(u1)
    chart_form = as_coordinate_logform(arr, form, 2)
    assert residue_of_form(chart_form, "u0") == Polynomial.constant(
        chart_form.chart.variables, 1
    )
    assert residue_of_form(chart_form, "u1") == Polynomial.constant(
        chart_form.chart.variables, -1
    )


def test_single_component_gives_no_forms():
    assert construct_global_log_forms(arrangement("x0")) == []


def test_lines_and_conic():
    arr = DivisorArrangement.make(
        2, [hom("x0"), hom("x1"), hom("x0^2 + x1^2 + x2^2")]
    )
    forms = construct_global_log_forms(arr)
    assert forms == [
        (Fraction(1), Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(2), Fraction(-1)),
    ]
    matrix = residue_matrix(forms)
    assert rank(matrix) == 2
    assert all(sum(r * d for r, d in zip(f, arr.degrees)) == 0 for f in forms)


def test_arrangement_rejects_duplicates_and_inhomogeneous():
    with pytest.raises(ValueError):
        arrangement("x0", "3*x0")
    with pytest.raises(ValueError):
        DivisorArrangement.make(2, [hom("x0 + x1^2")])


def test_dehomogenize():
    f = hom("x0^2 + x1*x2")
    assert dehomogenize(f, 2, 0) == parse_polynomial("u1*u2 + 1", chart_variables(2, 0))
    assert dehomogenize(f, 2, 2) == parse_polynomial("u0^2 + u1", chart_variables(2, 2))


# -- chart transition check at sampled points ---------------------------------------


def eval_form(entry, j, hom_point, tangent):
    """Value of one form's chart-j representation, as ``forms_on_charts``
    writes it, on a tangent vector (dict slot->Fraction)."""
    variables = chart_variables(len(hom_point) - 1, j)
    point = {
        f"u{i}": hom_point[i] / hom_point[j] for i in range(len(hom_point)) if i != j
    }
    chart = entry["charts"][str(j)]
    nums = [parse_polynomial(text, variables) for text in chart["numerators"]]
    den = parse_polynomial(chart["denominator"], variables).evaluate(point)
    total = Fraction(0)
    for name, num in zip(variables, nums):
        slot = int(name[1:])
        total += num.evaluate(point) * tangent[slot]
    return total / den


def transported_tangent(hom_point, tangent, j_from, j_to):
    """Chain rule for u_i^(to) = u_i^(from) / u_{j_to}^(from)."""
    u = {
        i: hom_point[i] / hom_point[j_from] for i in range(len(hom_point))
    }
    v = dict(tangent)
    v[j_from] = Fraction(0)
    out = {}
    for i in range(len(hom_point)):
        if i == j_to:
            continue
        out[i] = (v[i] * u[j_to] - u[i] * v[j_to]) / (u[j_to] ** 2)
    return out


def test_chart_representations_agree_on_overlaps():
    rng = random.Random(99)
    arrangements = [
        arrangement("x0", "x1"),
        arrangement("x0 + x1", "x2"),
        DivisorArrangement.make(2, [hom("x0"), hom("x1"), hom("x0^2 + x1^2 + x2^2")]),
    ]
    for arr in arrangements:
        for entry in forms_on_charts(arr, construct_global_log_forms(arr)):
            for _ in range(4):
                # a random point away from every component and every chart line
                while True:
                    p = [Fraction(rng.randint(1, 40)) for _ in range(3)]
                    values = [
                        poly.evaluate({v: x for v, x in zip(P2, p)})
                        for poly in arr.polynomials
                    ]
                    if all(values):
                        break
                tangent = {i: Fraction(rng.randint(-5, 5)) for i in range(3)}
                j_from, j_to = 0, rng.choice([1, 2])
                tangent[j_from] = Fraction(0)
                lhs = eval_form(entry, j_from, p, tangent)
                rhs = eval_form(
                    entry, j_to, p, transported_tangent(p, tangent, j_from, j_to)
                )
                assert lhs == rhs


def test_forms_dehomogenizes_each_component_once_per_chart(monkeypatch):
    calls = []

    def counted(f, n, chart_index):
        calls.append((f, chart_index))
        return dehomogenize(f, n, chart_index)

    monkeypatch.setattr(residues, "dehomogenize", counted)
    code, _ = run_command(["forms", "--n", "2", "--components", "x0; x1; x0^2 + x1^2 + x2^2"])
    assert code == 0
    # c = 3 components on n + 1 = 3 charts
    assert len(calls) == len(set(calls)) == 3 * 3
