import hashlib
import json
import shlex
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from logres import __version__, bounds, cli, logconn, logjet, residues
from logres.cli import main, run_command
from logres.monideal import MonomialIdeal
from logres.ratmat import rank
from logres.resolution import ResolutionResult
from logres.symcore import Polynomial
from oracles import reference_emit
from test_surface import ARGV


def run_json(argv):
    code, text = run_command(argv)
    return code, json.loads(text)


def test_resolve_minimal_certifies_single_obstructions():
    code, payload = run_json(
        ["resolve", "--n", "2", "--c", "2", "--k", "2", "--mode", "minimal"]
    )
    assert code == 0
    names = {entry["ideal"]: entry for entry in payload["certificates"]}
    assert set(names) == {"complement_of_1", "complement_of_2"}
    assert all(entry["principal"] for entry in names.values())
    assert payload["result"]["mode"] == "minimal"
    assert len(payload["result"]["per_stage_systems"]) == 1


def test_resolve_canonical_adds_full_ideal_certificate():
    code, payload = run_json(["resolve", "--n", "2", "--c", "2"])
    assert code == 0
    names = [entry["ideal"] for entry in payload["certificates"]]
    assert "all_components" in names


def test_resolve_rejects_more_components_than_dimension():
    code, text = run_command(["resolve", "--n", "2", "--c", "3"])
    assert code == 2
    assert "usage error" in text


def test_resolve_byte_identical_runs():
    argv = ["resolve", "--n", "2", "--c", "2", "--k", "1", "--t", "1", "--format", "json"]
    assert run_command(argv) == run_command(argv)


def test_bounds_text_table():
    code, text = run_command(
        ["bounds", "--n", "2", "--delta", "7,8", "--eps", "1,1"]
    )
    assert code == 0
    assert "r_min = 128" in text


def test_bounds_json_with_threshold_and_alpha():
    code, payload = run_json(
        [
            "bounds",
            "--n", "2",
            "--delta", "7,7",
            "--eps", "1,1",
            "--c", "2",
            "--alpha", "201",
            "--format", "json",
        ]
    )
    assert code == 0
    assert payload["effective"]["r_min"] == 1 + 7 * 8 + 7 * 8
    assert payload["threshold"]["m_threshold"] == 4096
    assert payload["reconstruction"]["valid"]


def test_verify_jet():
    code, payload = run_json(["verify-jet", "--n", "2"])
    assert code == 0
    assert payload["verified"]
    assert payload["lift_ideal_failures"] == []
    assert payload["principality_failures"] == []
    # every certificate carries the exceptional divisor of its pullback
    assert all("divisor" in cert for cert in payload["certificates"])


def test_rank_report():
    code, payload = run_json(
        ["rank", "--n", "2", "--delta", "4", "--samples", "2", "--stratum", "1"]
    )
    assert code == 0
    assert payload["verified"]
    assert all(entry["bound"] == 5 for entry in payload["reports"])


def test_rank_reads_each_sample_blocks_once(monkeypatch):
    """With or without --matrix, each sample's row blocks are evaluated in one
    pass, and the report is the same either way."""
    row_blocks = logconn._row_blocks
    vectors = []

    def counted(ctx, vector, stratum):
        vectors.append(vector)
        return row_blocks(ctx, vector, stratum)

    monkeypatch.setattr(logconn, "_row_blocks", counted)
    argv = ["rank", "--n", "2", "--delta", "4", "--stratum", "1", "--samples", "3"]
    code, plain = run_json(argv)
    assert code == 0 and len(vectors) == len(set(vectors)) == 3
    vectors.clear()
    code, with_matrix = run_json(argv + ["--matrix"])
    assert code == 0 and len(vectors) == len(set(vectors)) == 3
    for entry in with_matrix["reports"]:
        del entry["matrix"]
    assert with_matrix == plain


def test_index_sets_are_listed_once_per_op(monkeypatch):
    """However many trials or samples an op runs, it lists the weight-delta
    and the weight-eps index sets once each."""
    listing = logconn.enumerate_multiindices
    calls = []

    def counted(n, degree):
        calls.append((n, degree))
        return listing(n, degree)

    monkeypatch.setattr(logconn, "enumerate_multiindices", counted)
    for argv in (
        ["sample", "--n", "2", "--delta", "5", "--eps", "2", "--trials"],
        ["rank", "--n", "2", "--delta", "5", "--eps", "2", "--stratum", "1", "--samples"],
        ["rank", "--n", "2", "--delta", "5", "--eps", "2", "--matrix", "--samples"],
    ):
        for count in ("1", "6"):
            calls.clear()
            code, _ = run_command(argv + [count])
            assert code == 0
            assert sorted(calls) == [(2, 2), (2, 5)]


def test_sample_values_one_component_per_trial_from_its_draws(monkeypatch):
    """Each trial values its first component, which is nonzero here, and
    builds no polynomial while it does: the section is summed from its draws
    against the point table."""
    factors = logconn._PointTable.factors
    judge = logconn.is_indeterminate
    trusted = Polynomial.__dict__["_trusted"].__func__
    init = Polynomial.__init__
    valued, built = [], []
    inside = False

    def counted_factors(self, index):
        valued.append(index)
        return factors(self, index)

    def watched(ctx, draws, vector):
        nonlocal inside
        inside = True
        try:
            return judge(ctx, draws, vector)
        finally:
            inside = False

    def counted_trusted(cls, variables, terms):
        if inside:
            built.append(terms)
        return trusted(cls, variables, terms)

    def counted_init(self, *args, **kwargs):
        if inside:
            built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(logconn._PointTable, "factors", counted_factors)
    monkeypatch.setattr(logconn, "is_indeterminate", watched)
    monkeypatch.setattr(Polynomial, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    code, payload = run_json(
        ["sample", "--n", "3", "--delta", "8", "--trials", "5", "--seed", "1789"]
    )
    assert code == 0 and payload["trials"] == 5
    assert len(valued) == 5
    assert built == []


def test_rank_matrix_text_is_the_ranked_matrix():
    code, payload = run_json(
        ["rank", "--n", "2", "--delta", "2", "--stratum", "2", "--samples", "2",
         "--seed", "3", "--matrix"]
    )
    assert code == 0
    for entry in payload["reports"]:
        cells = [line.split(" ") for line in entry["matrix"].split("\n")]
        assert len(cells) == entry["rows"]
        assert all(len(row) == entry["cols"] for row in cells)
        assert entry["rank"] == rank([[Fraction(x) for x in row] for row in cells])


def test_forms_command():
    code, payload = run_json(
        ["forms", "--n", "2", "--components", "x0; x1; x0^2 + x1^2 + x2^2"]
    )
    assert code == 0
    assert payload["count"] == 2
    assert payload["residue_matrix"] == [["1", "-1", "0"], ["0", "2", "-1"]]


def test_forms_rejects_bad_arrangement():
    """An input that is no arrangement is a usage error, as a constant
    component is, and not a verification failure."""
    for components, message in (
        ("x0; 2*x0", "arrangement components must be distinct"),
        ("x0+x1^2", "x1^2 + x0 is not homogeneous of degree 2"),
    ):
        code, text = run_command(["forms", "--n", "2", "--components", components])
        assert (code, text) == (2, f"usage error: {message}\n")


def test_a_failed_certificate_is_a_verification_failure(monkeypatch):
    """A refusal of the forms construction reaches run_command, which
    reports it as every verb's verification failure: exit 1."""
    monkeypatch.setattr(residues.ratmat, "rank", lambda matrix: 0)
    assert run_command(["forms", "--n", "2", "--components", "x0; x1"]) == (
        1, "verification failure: residue matrix is rank-deficient\n"
    )


def test_sample_command():
    code, payload = run_json(
        ["sample", "--n", "2", "--delta", "4", "--trials", "25", "--seed", "5"]
    )
    assert code == 0
    assert payload["failures"] == 0


def test_sample_usage_error_for_small_delta():
    code, text = run_command(["sample", "--n", "2", "--delta", "3", "--trials", "1"])
    assert code == 2


def test_unknown_flag_is_usage_error():
    code, text = run_command(["bounds", "--n", "2", "--delta", "7", "--eps", "1", "--bogus"])
    assert code == 2


def test_help_and_version_return_instead_of_exiting(capsys):
    assert run_command(["--version"]) == (0, f"{__version__}\n")
    code, text = run_command(["rank", "--help"])
    assert code == 0
    assert text.startswith("usage: logres rank ")
    assert "--matrix" in text
    assert capsys.readouterr().out == ""  # the text was returned, not printed
    # main routes exit 2 to stderr only, every other exit to stdout only
    assert main(["--version"]) == 0
    assert capsys.readouterr() == (f"{__version__}\n", "")
    assert main(["resolve", "--n", "2", "--c", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: ")
    assert main(["bounds", "--n", "2", "--delta", "7,8", "--eps", "1,1"]) == 0
    out, err = capsys.readouterr()
    assert "r_min = 128" in out and err == ""


def test_help_does_not_depend_on_the_terminal_width(monkeypatch):
    texts = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        texts.append([run_command(argv) for argv in (["--help"], ["rank", "--help"])])
    assert texts[0] == texts[1]


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, text = run_command(
        ["bounds", "--n", "1", "--delta", "3", "--eps", "1", "--format", "json", "--out", str(target)]
    )
    assert code == 0
    assert text == ""
    assert json.loads(target.read_text())["effective"]["r_min"] == 5


@pytest.mark.parametrize(
    "argv",
    [
        "rank --n 0 --delta 4",
        "rank --n 2 --delta 4 --samples -3",
        "sample --n 0 --delta 4",
        "sample --n 2 --delta 4 --eps 0",
        "sample --n 2 --delta 4 --trials -5",
        "forms --n 2 --components 1/0*x0",
        "forms --n 2 --components 2",
        "forms --n 2 --components ';'",
        "bounds --n 2 --delta 7,8 --eps 1,1 --c 1",
        "bounds --n 2 --delta 4,6 --eps 1,1 --alpha 1/3",
        "bounds --n 0 --delta '' --eps ''",
        "resolve --n 3 --c 0",
        "resolve --n 3 --c 0 --mode minimal",
    ],
)
def test_malformed_connection_argv_is_usage_error(argv):
    code, text = run_command(shlex.split(argv))
    assert code == 2
    assert text.startswith("usage error: ")


@pytest.mark.parametrize(
    "argv, bad",
    [
        ("bounds --n 2 --delta 4,,6 --eps 1,1", "4,,6"),
        ("bounds --n 2 --delta 4,6, --eps 1,1", "4,6,"),
        ("bounds --n 2 --delta 4,6 --eps ,1,1", ",1,1"),
        ("rank --n 2 --delta 2 --stratum 1,,2", "1,,2"),
        ("rank --n 2 --delta 2 --stratum ,", ","),
    ],
)
def test_empty_list_entry_is_usage_error(argv, bad):
    code, text = run_command(shlex.split(argv))
    assert code == 2
    assert text == f"usage error: expected comma-separated integers, got {bad!r}\n"


def test_empty_stratum_is_the_empty_list():
    argv = ["rank", "--n", "2", "--delta", "2"]
    code, text = run_command(argv + ["--stratum", ""])
    assert code == 0
    assert json.loads(text)["params"]["stratum"] == []
    assert run_command(argv) == (code, text)


def test_resolve_all_components_matches_the_verify_jet_certificate():
    """Both jet verbs certify a chart through one routine: at n = 3, the
    all_components entry of resolve --c 3 at each (k, t) is verify-jet's
    certificate for I = [1, 2, 3] at the same (k, t)."""
    _, verified = run_json(["verify-jet", "--n", "3"])
    by_chart = {
        (cert["k"], cert["t"]): cert for cert in verified["certificates"] if cert["I"] == [1, 2, 3]
    }
    assert len(by_chart) == 12
    for (k, t), cert in by_chart.items():
        argv = ["resolve", "--n", "3", "--c", "3", "--k", str(k), "--t", str(t)]
        code, payload = run_json(argv)
        assert code == 0
        (entry,) = (e for e in payload["certificates"] if e["ideal"] == "all_components")
        assert entry["I"] == cert["I"]
        assert entry["principal"] is cert["principal"] is True
        assert entry["divisor"] == cert["divisor"]
        assert entry["base_generators"] == cert["generators"]


def test_out_write_failure_is_usage_error(tmp_path):
    for target in (tmp_path / "missing" / "x", tmp_path):
        code, text = run_command(
            ["bounds", "--n", "1", "--delta", "3", "--eps", "1", "--out", str(target)]
        )
        assert code == 2
        assert text.startswith("usage error: ")


@pytest.mark.parametrize("argv", ["resolve --n 1 --c 1", "resolve --n 0 --c 0 --k 0"])
def test_resolve_below_two_dimensions_is_usage_error(argv):
    code, text = run_command(shlex.split(argv))
    assert code == 2
    assert text.startswith("usage error: ")


DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


@pytest.mark.parametrize("n", ["3", "4"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_jet_stdout_matches_recorded_digest(n, fmt):
    argv = ["verify-jet", "--n", n, "--format", fmt]
    recorded = json.loads(DIGESTS.read_text())["digests"][shlex.join(argv)]
    code, text = run_command(argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == recorded


def test_verify_jet_reports_a_failed_pair_in_both_orders(monkeypatch):
    """Negative control for the unordered relation loop: a pair that fails is
    listed as (I, J) and (J, I), where the ordered loop would list them.  The
    loop visits only pairs of proper primes, and both primes of {(1, 2),
    (1, 3)} are proper in chart k = 3, t = 1 alone."""
    holds = logjet.stratum_relation_holds
    bad = {(1, 2), (1, 3)}

    def spoiled(jet, I, J):
        return {tuple(I), tuple(J)} != bad and holds(jet, I, J)

    monkeypatch.setattr(logjet, "stratum_relation_holds", spoiled)
    code, payload = run_json(["verify-jet", "--n", "3"])
    assert code == 1
    assert not payload["verified"]
    # subsets run (1), (2), (3), (1,2), (1,3), (2,3), (1,2,3): (1,2) comes first
    assert payload["intersection_failures"] == [
        {"k": 3, "t": 1, "I": I, "J": J} for I, J in (([1, 2], [1, 3]), ([1, 3], [1, 2]))
    ]
    code, text = run_command(["verify-jet", "--n", "3", "--format", "text"])
    assert code == 1
    assert text == "verify-jet n=3: 84 ideals checked, 0 lift failures, 2 relation failures\n"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_jet_skips_only_pairs_with_a_unit_prime(monkeypatch, n):
    """The relation loop leaves out a pair only when one of its primes is the
    unit ideal, where the relation holds without a check.  JSON runs take the
    flat route, which runs the loop in every chart."""
    holds = logjet.stratum_relation_holds
    visited = set()

    def recording(jet, I, J):
        visited.add((jet.k, jet.t, frozenset((I, J))))
        return holds(jet, I, J)

    monkeypatch.setattr(logjet, "stratum_relation_holds", recording)
    code, _ = run_command(["verify-jet", "--n", str(n), "--format", "json"])
    assert code == 0
    subsets = logjet.component_subsets(range(1, n + 1))
    skipped = 0
    for k in range(n + 1):
        for t in range(1, n + 1):
            jet = logjet.make_jet_chart(n, n, k, t)
            primes = jet.stratum_primes
            for pos, I in enumerate(subsets):
                for J in subsets[pos + 1:]:
                    if (k, t, frozenset((I, J))) in visited:
                        continue
                    skipped += 1
                    assert primes[I].is_unit or primes[J].is_unit, (k, t, I, J)
                    assert holds(jet, I, J)
    assert skipped + len(visited) == n * (n + 1) * len(subsets) * (len(subsets) - 1) // 2


@pytest.mark.parametrize("n, expected", [(3, 29), (4, 69)])
def test_verify_jet_principalizes_each_distinct_ideal_once(monkeypatch, n, expected):
    verify = logjet.verify_principalization
    calls = []  # (k, t, ideal) of every call

    def counting(result, jet, I):
        calls.append((jet.k, jet.t, logjet.obstruction_ideal(jet, I)))
        return verify(result, jet, I)

    monkeypatch.setattr(logjet, "verify_principalization", counting)
    code, payload = run_json(["verify-jet", "--n", str(n)])
    assert code == 0
    assert payload["ideals_checked"] == n * (n + 1) * (2**n - 1)
    assert len(calls) == len(set(calls)) == expected
    subsets = logjet.component_subsets(range(1, n + 1))
    distinct = set()
    for k in range(n + 1):
        for t in range(1, n + 1):
            jet = logjet.make_jet_chart(n, n, k, t)
            distinct |= {(k, t, logjet.obstruction_ideal(jet, I)) for I in subsets}
    assert set(calls) == distinct


def spoil_principalization(monkeypatch, chart, subset):
    """Make `verify_principalization` fail for `subset` in fiber chart
    `chart`, a (k, t) pair, as a leaf that is not principal would."""
    verify = logjet.verify_principalization

    def spoiled(result, jet, I):
        if ((jet.k, jet.t), tuple(I)) == (chart, subset):
            raise logjet.NotResolved("root", "spoiled")
        return verify(result, jet, I)

    monkeypatch.setattr(logjet, "verify_principalization", spoiled)


def spoil_closed_form(monkeypatch, chart, subset):
    """Make the closed form of `subset` in fiber chart `chart`, a (k, t)
    pair, the unit ideal."""
    closed = logjet.obstruction_ideal_closed_form

    def spoiled(jet, I):
        if ((jet.k, jet.t), tuple(I)) == (chart, subset):
            return MonomialIdeal.unit(jet.chart.variables)
        return closed(jet, I)

    monkeypatch.setattr(logjet, "obstruction_ideal_closed_form", spoiled)


def flat_charts(n):
    """The fiber charts a passing text run builds and resolves: each chart
    (k, 1), and each chart whose system is empty (t > k, k = 0 included)."""
    return {(k, t) for k in range(n + 1) for t in range(1, n + 1) if t == 1 or t > k}


def test_verify_jet_text_resolves_only_the_charts_it_cannot_relabel(monkeypatch):
    """The text twin of the two tests above: at n = 5 a text run resolves and
    principalizes the 20 flat charts alone, and checks relations only there.
    Chart (k, 1) has 2^(k-1) + 1 distinct obstruction ideals (the unit ideal,
    and one per set of components through the point that holds 1), and an
    empty system one, the unit ideal: 36 + 15 = 51 principalizations, where
    a JSON run makes 159."""
    n = 5
    resolve = logjet.resolve_obstruction_system
    verify = logjet.verify_principalization
    holds = logjet.stratum_relation_holds
    resolved, principalized, related = [], [], set()

    def resolving(jet, system, mode):
        resolved.append((jet.k, jet.t))
        return resolve(jet, system, mode)

    def counting(result, jet, I):
        principalized.append((jet.k, jet.t, logjet.obstruction_ideal(jet, I)))
        return verify(result, jet, I)

    def recording(jet, I, J):
        related.add((jet.k, jet.t))
        return holds(jet, I, J)

    monkeypatch.setattr(logjet, "resolve_obstruction_system", resolving)
    monkeypatch.setattr(logjet, "verify_principalization", counting)
    monkeypatch.setattr(logjet, "stratum_relation_holds", recording)
    code, text = run_command(["verify-jet", "--n", str(n), "--format", "text"])
    assert code == 0
    assert text == "verify-jet n=5: 930 ideals checked, 0 lift failures, 0 relation failures\n"
    flat = flat_charts(n)
    assert sorted(resolved) == sorted(flat) and len(flat) == 20
    assert related <= flat
    assert len(principalized) == len(set(principalized)) == 51
    subsets = logjet.component_subsets(range(1, n + 1))
    distinct = set()
    for k, t in flat:
        jet = logjet.make_jet_chart(n, n, k, t)
        distinct |= {(k, t, logjet.obstruction_ideal(jet, I)) for I in subsets}
    assert set(principalized) == distinct


def test_a_failing_chart_sends_its_images_down_the_flat_route(monkeypatch):
    """A failure in chart (k, 1) leaves no verdict to relabel: charts (k, t),
    1 < t <= k, are then built and resolved as at n = 3 before, and only
    they."""
    resolve = logjet.resolve_obstruction_system
    resolved = []

    def resolving(jet, system, mode):
        resolved.append((jet.k, jet.t))
        return resolve(jet, system, mode)

    monkeypatch.setattr(logjet, "resolve_obstruction_system", resolving)
    spoil_principalization(monkeypatch, (2, 1), (1, 2))
    code, text = run_command(["verify-jet", "--n", "3", "--format", "text"])
    assert code == 1
    assert text == (
        "verify-jet n=3: 84 ideals checked, 0 lift failures, 0 relation failures,"
        " 1 principality failures\n"
    )
    assert sorted(resolved) == sorted(flat_charts(3) | {(2, 2)})


def flat_outcomes(n, k, t, subsets):
    """Per chart, the subsets with a lift failure, with a principality
    failure, and the pairs with a relation failure, by the flat route."""
    jet, certs, principality, relations = logjet._flat_chart(n, k, t, subsets, False)
    return jet, (
        {tuple(cert["I"]) for cert in certs if not cert["equal"]},
        {tuple(failure["I"]) for failure in principality},
        {(tuple(failure["I"]), tuple(failure["J"])) for failure in relations},
    )


@pytest.mark.parametrize("spoil", [False, True], ids=["as built", "closed forms spoilt"])
def test_relabeled_charts_agree_with_the_flat_route(monkeypatch, spoil):
    """For n = 2..5, every chart (k, t) with 1 < t <= k and every subset I,
    the relabel route finds the lift, principality and relation failures
    the flat route finds.  Spoilt, the closed form is the unit ideal in
    those charts for each I that holds t and sums to a multiple of 3, so
    both routes fail there for the same I."""
    closed = logjet.obstruction_ideal_closed_form

    def spoiled(jet, I):
        if 1 < jet.t <= jet.k and jet.t in I and sum(I) % 3 == 0:
            return MonomialIdeal.unit(jet.chart.variables)
        return closed(jet, I)

    if spoil:
        monkeypatch.setattr(logjet, "obstruction_ideal_closed_form", spoiled)
    failing = 0
    for n in range(2, 6):
        subsets = logjet.component_subsets(range(1, n + 1))
        for k in range(2, n + 1):
            source, passed = flat_outcomes(n, k, 1, subsets)
            assert passed == (set(), set(), set())
            for t in range(2, k + 1):
                _, flat = flat_outcomes(n, k, t, subsets)
                unequal = set(logjet._relabeled_chart(source, t, subsets))
                assert (unequal, unequal, set()) == flat, (n, k, t)
                failing += len(unequal)
    assert bool(failing) == spoil


def test_a_spoiled_prime_of_an_image_chart_is_a_verification_failure(monkeypatch):
    """Chart (3, 2) is checked as the relabeling of chart (3, 1), prime by
    prime: one prime short of a generator stops the run, naming the chart."""
    prime = logjet.stratum_prime

    def spoiled(jet, J):
        ideal = prime(jet, J)
        if (jet.k, jet.t, tuple(J)) == (3, 2, (2, 3)):
            return MonomialIdeal.make(ideal.variables, ideal.generators[1:])
        return ideal

    monkeypatch.setattr(logjet, "stratum_prime", spoiled)
    code, text = run_command(["verify-jet", "--n", "4", "--format", "text"])
    assert (code, text) == (
        1,
        "verification failure: chart k=3, t=2 is not the relabeling of chart k=3, t=1:"
        " the stratum prime of J=[2, 3] differs\n",
    )


def test_a_spoiled_closed_form_of_an_image_chart_counts_as_on_the_flat_route(monkeypatch):
    """A closed form of chart (4, 3) spoilt: the text run prints the one lift
    failure and the one principality failure the flat route of a JSON run
    reports."""
    spoil_closed_form(monkeypatch, (4, 3), (1, 3))
    code, payload = run_json(["verify-jet", "--n", "4"])
    assert code == 1
    (lift,) = payload["lift_ideal_failures"]
    (unprincipal,) = payload["principality_failures"]
    assert (lift["k"], lift["t"], lift["I"]) == (unprincipal["k"], unprincipal["t"], unprincipal["I"])
    assert (lift["k"], lift["t"], lift["I"]) == (4, 3, [1, 3])
    assert run_command(["verify-jet", "--n", "4", "--format", "text"]) == (
        1,
        "verify-jet n=4: 300 ideals checked, 1 lift failures, 0 relation failures,"
        " 1 principality failures\n",
    )


def test_a_principality_failure_is_not_shared_by_its_ideal(monkeypatch):
    """At n = 3, k = 2, t = 1 the subsets (1, 2) and (1, 2, 3) share one
    obstruction ideal, and (1, 2) is certified first.  A failure for (1, 2)
    is reported for it alone; (1, 2, 3) is principalized on its own."""
    verify = logjet.verify_principalization
    spoil_principalization(monkeypatch, (2, 1), (1, 2))
    code, payload = run_json(["verify-jet", "--n", "3"])
    assert code == 1
    (unprincipal,) = payload["principality_failures"]
    assert (unprincipal["k"], unprincipal["t"], unprincipal["I"]) == (2, 1, [1, 2])
    assert unprincipal["error"] == "spoiled (chart root)"
    chart = {
        tuple(cert["I"]): cert
        for cert in payload["certificates"]
        if (cert["k"], cert["t"]) == (2, 1)
    }
    assert chart[(1, 2)]["generators"] == chart[(1, 2, 3)]["generators"]
    assert not chart[(1, 2)]["principal"] and "divisor" not in chart[(1, 2)]
    assert chart[(1, 2, 3)]["principal"]
    jet, system = logjet.build_obstruction_system(3, 3, 2, 1)
    result = logjet.resolve_obstruction_system(jet, system, "canonical")
    assert chart[(1, 2, 3)]["divisor"] == verify(result, jet, (1, 2, 3)).per_chart


def test_verify_jet_reports_a_lift_failure(monkeypatch):
    """Negative control for the two obstruction-ideal routes: a closed form
    that disagrees is reported in the payload, not raised past it."""
    spoil_closed_form(monkeypatch, (2, 1), (1, 2))
    code, payload = run_json(["verify-jet", "--n", "2"])
    assert code == 1
    assert not payload["verified"]
    (failure,) = payload["lift_ideal_failures"]
    assert (failure["k"], failure["t"], failure["I"]) == (2, 1, [1, 2])
    assert failure["closed_form"] == ["1"] and not failure["equal"]
    # with the routes apart there is no one ideal to certify principal
    assert not failure["principal"]
    (unprincipal,) = payload["principality_failures"]
    assert unprincipal["error"].startswith("obstruction ideal mismatch for I=[1, 2]: ")
    assert payload["intersection_failures"] == []
    code, text = run_command(["verify-jet", "--n", "2", "--format", "text"])
    assert code == 1
    assert text == (
        "verify-jet n=2: 18 ideals checked, 1 lift failures, 0 relation failures,"
        " 1 principality failures\n"
    )


def test_verify_jet_text_counts_a_principality_failure(monkeypatch):
    """Negative control for the text summary: a run whose only failure is a
    non-principal leaf names that failure, where the JSON already did."""
    spoil_principalization(monkeypatch, (2, 1), (1, 2))
    code, payload = run_json(["verify-jet", "--n", "2"])
    assert code == 1
    (unprincipal,) = payload["principality_failures"]
    assert (unprincipal["k"], unprincipal["t"], unprincipal["I"]) == (2, 1, [1, 2])
    assert payload["lift_ideal_failures"] == payload["intersection_failures"] == []
    code, text = run_command(["verify-jet", "--n", "2", "--format", "text"])
    assert code == 1
    assert text == (
        "verify-jet n=2: 18 ideals checked, 0 lift failures, 0 relation failures,"
        " 1 principality failures\n"
    )


def test_a_route_mismatch_does_not_reuse_a_shared_divisor(monkeypatch):
    """(1, 2, 3) shares its intersected route with (1, 2) at n = 3, k = 2,
    t = 1, and (1, 2) is certified first.  With the closed form of (1, 2, 3)
    spoilt there is no one ideal to certify, so the divisor of (1, 2) must
    not be reused for it."""
    spoil_closed_form(monkeypatch, (2, 1), (1, 2, 3))
    code, payload = run_json(["verify-jet", "--n", "3"])
    assert code == 1
    (failure,) = payload["lift_ideal_failures"]
    assert (failure["k"], failure["t"], failure["I"]) == (2, 1, [1, 2, 3])
    assert not failure["principal"] and "divisor" not in failure
    (unprincipal,) = payload["principality_failures"]
    assert (unprincipal["k"], unprincipal["t"], unprincipal["I"]) == (2, 1, [1, 2, 3])
    assert unprincipal["error"].startswith("obstruction ideal mismatch for I=[1, 2, 3]: ")


def test_resolve_reports_a_route_mismatch(monkeypatch):
    """The same spoiled closed form as above: resolve reports the mismatch as
    an unprincipal certificate with its JSON, not as a bare error, and its
    text names it without spelling the atlas."""
    spoil_closed_form(monkeypatch, (2, 1), (1, 2))
    argv = ["resolve", "--n", "2", "--c", "2", "--k", "2", "--t", "1"]
    code, payload = run_json(argv)
    assert code == 1
    by_name = {entry["ideal"]: entry for entry in payload["certificates"]}
    spoilt = by_name.pop("all_components")
    assert spoilt["I"] == [1, 2] and not spoilt["principal"]
    assert spoilt["error"].startswith("obstruction ideal mismatch for I=[1, 2]: ")
    assert spoilt["base_generators"]  # read from the intersected route
    assert all(entry["principal"] for entry in by_name.values())
    monkeypatch.setattr(ResolutionResult, "to_dict", _spells_the_atlas)
    assert run_command(argv + ["--format", "text"]) == (
        1,
        "resolution mode=canonical n=2 c=2 k=2 t=1\nstages: 2\nleaf charts: 3\n"
        "  complement_of_1 (I=[2]): principal\n  complement_of_2 (I=[1]): principal\n"
        "  all_components (I=[1, 2]): FAILED\n",
    )


def _spells_the_atlas(result):
    raise AssertionError("resolve --format text spelled the atlas")


def test_resolve_text_spells_no_atlas(monkeypatch):
    """Text prints counts, so `resolve --format text` never spells the
    resolution as a dict: with `to_dict` raising it prints the recorded
    bytes.  The spoiled route above is checked the same way."""
    monkeypatch.setattr(ResolutionResult, "to_dict", _spells_the_atlas)
    argv = "resolve --n 3 --c 3 --k 3 --t 1 --mode canonical --format text"
    code, text = run_command(shlex.split(argv))
    assert code == 0
    recorded = json.loads(DIGESTS.read_text())["digests"][argv]
    assert hashlib.sha256(text.encode()).hexdigest() == recorded


@pytest.mark.parametrize(
    "argv, bound_mb, printed",
    [
        (
            "verify-jet --n 5 --format text",
            2.7,
            "verify-jet n=5: 930 ideals checked, 0 lift failures, 0 relation failures\n",
        ),
        ("resolve --n 5 --c 5 --format text", 1.9, "resolution mode=canonical n=5 c=5 k=5 t=1\n"),
    ],
    ids=["verify-jet", "resolve"],
)
def test_text_runs_keep_no_divisor_map(argv, bound_mb, printed):
    """A text run keeps no per-leaf divisor map and spells no atlas.  Under
    tracemalloc, on Python 3.10 to 3.13, these runs peak at 1.86-2.04 MB and
    1.30-1.49 MB; keeping the divisor maps until each chart is done, and
    spelling the atlas for resolve, peaks at 3.63-4.23 MB and 2.21-2.48 MB."""
    cli._parser()  # built once per process, by whichever test runs first
    tracemalloc.start()
    try:
        code, text = run_command(shlex.split(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert text.startswith(printed)
    assert peak < bound_mb * 1e6, f"{argv} peaked at {peak / 1e6:.2f} MB"


def test_emit_encodes_fractions_and_dataclasses_only():
    assert cli._emit({"x": Fraction(-3, 4), "y": [Fraction(2)]}) == (
        '{\n  "x": "-3/4",\n  "y": [\n    "2"\n  ]\n}\n'
    )
    # a report prints as its fields, key-sorted, whatever their declared order
    report = logconn.RankReport(rank=3, bound=3, satisfied=True, rows=4, cols=5)
    expected = {"bound": 3, "cols": 5, "rank": 3, "rows": 4, "satisfied": True}
    assert cli._emit({"report": report}) == json.dumps({"report": expected}, indent=2) + "\n"
    split = bounds.ReconstructionReport(Fraction(7, 2), 2, (1,), (7,), True)
    assert json.loads(cli._emit(split)) == {
        "alpha": "7/2", "eps": [1], "m": [7], "r": 2, "valid": True
    }
    for value in (Polynomial.constant(("x",), 1), {1, 2}, logconn.RankReport, object(), 0.5):
        with pytest.raises(TypeError):
            cli._emit({"value": value})
    for payload in ({1: "one"}, {"a": {2: 0}}, {"a": [{"b": 1, None: 2}]}):
        with pytest.raises(TypeError):
            cli._emit(payload)


@dataclass(frozen=True)
class _Leaf:
    value: object
    other: object


_PAYLOADS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text()
    | st.fractions()
    | st.builds(_Leaf, st.integers() | st.text(), st.fractions() | st.booleans()),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4)
    | st.builds(_Leaf, children, children),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=6), _PAYLOADS, max_size=5))
def test_emit_writes_what_json_dumps_writes(payload):
    assert cli._emit(payload) == reference_emit(payload)


def _prints_json(argv):
    return getattr(cli.build_parser().parse_args(argv), "format", "json") == "json"


def test_every_json_payload_carries_the_header():
    runs = [argv for argv in ARGV if _prints_json(argv)]
    assert len(runs) == 7
    for argv in runs:
        code, payload = run_json(argv)
        assert code == 0
        assert payload["schema_version"] == cli.SCHEMA_VERSION
        assert payload["command"] == argv[0]


# -- no input ends in a traceback ------------------------------------------------

_BAD = ["", "x", "-", "--", "0", "-1", "1/0", "2.5", "1e3", ",", ";", "nan", "\u0663"]
_SMALL = ["1", "2", "3"]
_FORMATS = ["json", "text", "xml"]
_SEEDS = ["0", "7", "-1"]
# verb -> flag -> values (None for a switch); sizes stay small: n <= 3, at
# most 5 samples or trials.  --out is left out: it writes files.
_FLAGS = {
    "resolve": {
        "--n": _SMALL, "--c": _SMALL, "--k": _SMALL, "--t": _SMALL,
        "--mode": ["canonical", "minimal", "fast"], "--format": _FORMATS, "--seed": _SEEDS,
    },
    "verify-jet": {"--n": _SMALL, "--format": _FORMATS},
    "rank": {
        "--n": _SMALL, "--delta": ["1", "2", "3", "4"], "--eps": ["1", "2"], "--r": ["1", "2"],
        "--stratum": ["", "1", "0,1", "1,2,3", "7", "1,1", "x"],
        "--samples": ["1", "3", "5"], "--seed": _SEEDS, "--matrix": None,
    },
    "forms": {
        "--n": _SMALL,
        "--components": [
            "x0; x1", "x0^2 + x1*x2; x1", "x0 - x1; x0 + x1; x2", "x0; 3*x0", "x0 + x1^2",
            "2", ";", "1/0*x0", "x9", "x0; x1; x2; x3", "x0^2 + x1^2 + x2^2 + x3^2; x3",
        ],
    },
    "bounds": {
        "--n": _SMALL, "--delta": ["4", "7,8", "11,12,13", "4,x", "0,1", "4,,6"],
        "--eps": ["1", "1,1", "1,2,3", "0"], "--c": _SMALL,
        "--alpha": ["201", "7/2", "1/3", "2", "-5", "1/0"], "--format": _FORMATS,
    },
    "sample": {
        "--n": _SMALL, "--delta": ["2", "4", "6"], "--eps": ["1", "2"], "--r": ["1", "2"],
        "--seed": _SEEDS, "--trials": ["1", "3", "5"],
    },
}


_REQUIRED = {
    "resolve": {"--n", "--c"}, "verify-jet": {"--n"}, "rank": {"--n", "--delta"},
    "forms": {"--n", "--components"}, "bounds": {"--n", "--delta", "--eps"},
    "sample": {"--n", "--delta"},
}


@st.composite
def argvs(draw):
    """A verb's flags in any order; about half the argv are malformed: a flag
    left out (required ones too), a malformed value, stray tokens."""
    verb = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[verb]
    malformed = draw(st.booleans())
    argv = [verb]
    for flag in draw(st.permutations(sorted(flags))):
        if not draw(st.booleans()) and (malformed or flag not in _REQUIRED[verb]):
            continue
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(st.sampled_from(flags[flag] + _BAD if malformed else flags[flag])))
    for _ in range(draw(st.integers(0, 2)) if malformed else 0):
        stray = draw(st.sampled_from(_BAD + ["--bogus", "--help"]))
        argv.insert(draw(st.integers(1, len(argv))), stray)
    if verb == "sample":  # last, so that the default of 1,000 trials never runs
        argv += ["--trials", draw(st.sampled_from(flags["--trials"]))]
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_no_argv_ends_in_a_traceback(argv):
    code, text = run_command(argv)
    assert code in (0, 1, 2)
    assert isinstance(text, str)
