import hashlib
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from logres import __version__, bounds, cli, logconn, logjet
from logres.cli import main, run_command
from logres.monideal import MonomialIdeal
from logres.ratmat import rank
from logres.symcore import Polynomial
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
    code, payload = run_json(["forms", "--n", "2", "--components", "x0; 2*x0"])
    assert code == 1
    assert "error" in payload


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
    listed as (I, J) and (J, I), where the ordered loop would list them."""
    holds = logjet.stratum_relation_holds
    bad = {(2,), (1, 3)}

    def spoiled(jet, I, J):
        return {tuple(I), tuple(J)} != bad and holds(jet, I, J)

    monkeypatch.setattr(logjet, "stratum_relation_holds", spoiled)
    code, payload = run_json(["verify-jet", "--n", "3"])
    assert code == 1
    assert not payload["verified"]
    # subsets run (1), (2), (3), (1,2), (1,3), (2,3), (1,2,3): (2) comes first
    assert payload["intersection_failures"] == [
        {"k": k, "t": t, "I": I, "J": J}
        for k in range(4)
        for t in range(1, 4)
        for I, J in (([2], [1, 3]), ([1, 3], [2]))
    ]
    code, text = run_command(["verify-jet", "--n", "3", "--format", "text"])
    assert code == 1
    assert text == "verify-jet n=3: 84 ideals checked, 0 lift failures, 24 relation failures\n"


def test_verify_jet_reports_a_lift_failure(monkeypatch):
    """Negative control for the two obstruction-ideal routes: a closed form
    that disagrees is reported in the payload, not raised past it."""
    closed = logjet.obstruction_ideal_closed_form

    def spoiled(jet, I):
        if (jet.k, jet.t, tuple(I)) == (2, 1, (1, 2)):
            return MonomialIdeal.unit(jet.chart.variables)
        return closed(jet, I)

    monkeypatch.setattr(logjet, "obstruction_ideal_closed_form", spoiled)
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
    verify = logjet.verify_principalization

    def spoiled(result, jet, I):
        if (jet.k, jet.t, tuple(I)) == (2, 1, (1, 2)):
            raise logjet.NotResolved("root", "spoiled")
        return verify(result, jet, I)

    monkeypatch.setattr(logjet, "verify_principalization", spoiled)
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


def test_resolve_reports_a_route_mismatch(monkeypatch):
    """The same spoiled closed form as above: resolve reports the mismatch as
    an unprincipal certificate with its JSON, not as a bare error."""
    closed = logjet.obstruction_ideal_closed_form

    def spoiled(jet, I):
        if (jet.k, jet.t, tuple(I)) == (2, 1, (1, 2)):
            return MonomialIdeal.unit(jet.chart.variables)
        return closed(jet, I)

    monkeypatch.setattr(logjet, "obstruction_ideal_closed_form", spoiled)
    argv = ["resolve", "--n", "2", "--c", "2", "--k", "2", "--t", "1"]
    code, payload = run_json(argv)
    assert code == 1
    by_name = {entry["ideal"]: entry for entry in payload["certificates"]}
    spoilt = by_name.pop("all_components")
    assert spoilt["I"] == [1, 2] and not spoilt["principal"]
    assert spoilt["error"].startswith("obstruction ideal mismatch for I=[1, 2]: ")
    assert spoilt["base_generators"]  # read from the intersected route
    assert all(entry["principal"] for entry in by_name.values())
    code, text = run_command(argv + ["--format", "text"])
    assert code == 1
    assert "  all_components (I=[1, 2]): FAILED\n" in text


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
    for value in (Polynomial.constant(("x",), 1), {1, 2}, logconn.RankReport, object()):
        with pytest.raises(TypeError):
            cli._emit({"value": value})


def _prints_json(argv):
    return getattr(cli.build_parser().parse_args(argv), "format", "json") == "json"


def test_every_json_payload_carries_the_header():
    runs = [(argv, 0) for argv in ARGV if _prints_json(argv)]
    runs.append((["forms", "--n", "2", "--components", "x0; 2*x0"], 1))
    assert len(runs) == 8
    for argv, expected in runs:
        code, payload = run_json(argv)
        assert code == expected
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
