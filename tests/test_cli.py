import hashlib
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from logres import __version__, logconn, logjet
from logres.cli import main, run_command
from logres.ratmat import rank


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

    def counted(n, degree, excluded=None):
        calls.append((n, degree))
        return listing(n, degree, excluded)

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


def test_sample_builds_only_the_sections_it_reads(monkeypatch):
    """A trial draws every section's coefficients but builds a section only
    when is_indeterminate reads its component: once per component read."""
    build = logconn._DrawnSections._build
    component = logconn._PointTable.component
    built, read = [], []

    def counted_build(self, position):
        built.append(position)
        return build(self, position)

    def counted_component(self, index, a):
        read.append(index)
        return component(self, index, a)

    monkeypatch.setattr(logconn._DrawnSections, "_build", counted_build)
    monkeypatch.setattr(logconn._PointTable, "component", counted_component)
    code, payload = run_json(
        ["sample", "--n", "3", "--delta", "8", "--trials", "5", "--seed", "1789"]
    )
    assert code == 0 and payload["trials"] == 5
    assert len(built) == len(read) == 5


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
