"""The output-only checkers of ``tests/checkers.py`` against printed output."""

import importlib.util
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from checkers import (
    bounds_output_problems,
    forms_output_problems,
    rank_output_problems,
    resolve_output_problems,
    verify_jet_output_problems,
)
from conftest import variety
from logres.blowup import Atlas, StageRecord, blow_up_center, root_chart
from logres.cli import run_command

HERE = Path(__file__).resolve().parent
DIGESTS = HERE.parent / "perfbench" / "digests.json"


def connection_deck(seed):
    """The connection workload's deck for a seed, from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "workloads", HERE.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return next(workloads.decks("connection", seed))


def matrix_argvs():
    return [
        op["argv"] for op in connection_deck(0)
        if op["argv"][0] == "rank" and "--matrix" in op["argv"]
    ]


def test_checkers_import_no_logres_module():
    """Nor sympy: only the forms checker loads it, when it runs."""
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, checkers;"
         " print([m for m in sys.modules if m.split('.')[0] in ('logres', 'sympy')])"],
        cwd=HERE, capture_output=True, text=True, check=True,
    ).stdout
    assert loaded.strip() == "[]"


def test_rank_checker_accepts_the_connection_deck():
    argvs = matrix_argvs()
    assert argvs
    for argv in argvs:
        code, text = run_command(argv)
        assert code == 0, shlex.join(argv)
        assert rank_output_problems(text) == [], shlex.join(argv)


def test_rank_checker_refuses_spoiled_output():
    """A block row zeroed, and the printed rank off by one."""
    code, text = run_command(matrix_argvs()[0])
    assert code == 0
    zeroed = json.loads(text)
    report = zeroed["reports"][0]
    lines = report["matrix"].split("\n")
    assert lines[0].strip("0 ")  # the row has a nonzero entry
    lines[0] = " ".join("0" for _ in lines[0].split())
    report["matrix"] = "\n".join(lines)
    assert any(p.startswith("report 0: rank is") for p in rank_output_problems(json.dumps(zeroed)))
    off_by_one = json.loads(text)
    off_by_one["reports"][0]["rank"] += 1
    assert any(p.startswith("report 0: rank is") for p in rank_output_problems(json.dumps(off_by_one)))


def test_rank_checker_accepts_every_recorded_matrix_run():
    """Every recorded ``rank --matrix`` argv, cell by cell."""
    keys = json.loads(DIGESTS.read_text())["digests"]
    argvs = [shlex.split(key) for key in keys if key.startswith("rank ") and "--matrix" in key]
    assert len(argvs) == 60
    for argv in argvs:
        code, text = run_command(argv)
        assert code == 0, shlex.join(argv)
        assert rank_output_problems(text) == [], shlex.join(argv)


def test_rank_checker_refuses_a_wrong_cell():
    """A generic matrix has one nonzero block per row, so a wrong value in a
    nonzero cell keeps the rank: the checker recomputes the cell instead."""
    code, text = run_command(
        ["rank", "--n", "3", "--delta", "4", "--eps", "2", "--samples", "2", "--matrix"]
    )
    assert code == 0 and rank_output_problems(text) == []
    payload = json.loads(text)
    report = payload["reports"][0]
    lines = report["matrix"].split("\n")
    cells = lines[0].split()
    assert cells[0] == "1/16"
    cells[0] = "12345/7"
    lines[0] = " ".join(cells)
    report["matrix"] = "\n".join(lines)
    assert rank_output_problems(json.dumps(payload)) == [
        "report 0: row 0 column 0 is 12345/7, expected 1/16"
    ]


def test_checkers_command_line_exit_codes(tmp_path):
    """``python checkers.py rank FILE...`` exits 0 and prints nothing on a
    good ``rank --matrix`` output, and exits 1 naming each spoiled file: one
    with its first matrix row zeroed, one with a cell cut from that row."""
    code, text = run_command(matrix_argvs()[0])
    assert code == 0
    good = tmp_path / "good.json"
    good.write_text(text)

    def spoiled(name, spoil):
        payload = json.loads(text)
        report = payload["reports"][0]
        lines = report["matrix"].split("\n")
        lines[0] = spoil(lines[0].split())
        report["matrix"] = "\n".join(lines)
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    zeroed = spoiled("zeroed.json", lambda cells: " ".join("0" for _ in cells))
    cut = spoiled("cut.json", lambda cells: " ".join(cells[:-1]))

    def check(*paths):
        return subprocess.run(
            [sys.executable, str(HERE / "checkers.py"), "rank", *map(str, paths)],
            capture_output=True, text=True,
        )

    passed = check(good)
    assert (passed.returncode, passed.stdout) == (0, "")
    failed = check(good, zeroed, cut)
    assert failed.returncode == 1
    problems = failed.stdout.splitlines()
    for path, start in ((zeroed, "report 0: rank is"), (cut, "report 0: a matrix row")):
        assert any(line.startswith(f"{path}: {start}") for line in problems)
    assert not any(line.startswith(f"{good}:") for line in problems)


def test_resolve_checker_accepts_every_recorded_json_run_up_to_n4():
    keys = json.loads(DIGESTS.read_text())["digests"]
    argvs = [shlex.split(key) for key in keys if key.startswith("resolve ") and "--format json" in key]
    argvs = [argv for argv in argvs if int(argv[argv.index("--n") + 1]) <= 4]
    assert len(argvs) == 138
    for argv in argvs:
        code, text = run_command(argv)
        assert code == 0, shlex.join(argv)
        assert resolve_output_problems(text) == [], shlex.join(argv)


def test_resolve_checker_refuses_spoiled_output():
    """A map to the parent that keeps the ideal principal, an exceptional
    label, and a dropped log mark, each in the xi2 chart of one blow-up."""
    code, text = run_command(["resolve", "--n", "3", "--c", "1", "--k", "1", "--t", "1"])
    assert code == 0
    assert resolve_output_problems(text) == []

    def problems(spoil):
        payload = json.loads(text)
        (chart,) = [c for c in payload["result"]["atlas"]["charts"] if c["id"] == "root/E1.0:xi2"]
        spoil(chart)
        return resolve_output_problems(json.dumps(payload))

    def to_parent(chart):
        assert chart["to_parent"]["xi3"] == "xi2*xi3~"
        chart["to_parent"]["xi3"] = "xi2"

    def label(chart):
        assert chart["exceptional"] == [["E1.0", "xi2"]]
        chart["exceptional"][0][0] = "E1.1"

    def mark(chart):
        assert chart["log_marked"] == ["xi2", "z1~"]
        chart["log_marked"].remove("xi2")

    for spoil, name in ((to_parent, "to_parent"), (label, "exceptional"), (mark, "log_marked")):
        (problem,) = problems(spoil)
        assert problem.startswith(f"root/E1.0:xi2: {name} is "), problem


def test_resolve_checker_refuses_a_dropped_child():
    """A chart whose printed children miss one that names it as parent."""
    code, text = run_command(["resolve", "--n", "3", "--c", "1", "--k", "1", "--t", "1"])
    assert code == 0
    payload = json.loads(text)
    (root,) = [c for c in payload["result"]["atlas"]["charts"] if c["id"] == "root"]
    dropped = root["children"].pop()
    (problem,) = resolve_output_problems(json.dumps(payload))
    assert problem.startswith("root: children ") and dropped in problem, problem


def test_resolve_checker_drops_the_divisor_on_the_new_direction():
    """No recorded run blows up in a direction that already carries a
    divisor, so this atlas does: E1's x2 chart, blown up again along x2."""
    root = root_chart(("x1", "x2", "x3"), log_marked=("x1",))
    atlas = Atlas.for_root(root)
    first = blow_up_center(root, variety(root, "x1", "x2"), "E1")
    second = blow_up_center(first[1], variety(first[1], "x2", "x3"), "E2")
    atlas.add_blowup(root.id, first)
    atlas.add_blowup(first[1].id, second)
    atlas.stage_log += [StageRecord(1, (root.id,)), StageRecord(2, (first[1].id,))]
    payload = {"result": {"atlas": atlas.to_dict()}}
    assert resolve_output_problems(json.dumps(payload)) == []
    (chart,) = [c for c in payload["result"]["atlas"]["charts"] if c["id"] == second[0].id]
    assert chart["exceptional"] == [["E2", "x2"]]
    chart["exceptional"].insert(0, ["E1", "x2"])
    (problem,) = resolve_output_problems(json.dumps(payload))
    assert problem.startswith(f"{second[0].id}: exceptional is "), problem


def verify_jet_run(n):
    """What verify-jet --n n prints, and the atlas resolve prints per chart."""
    code, text = run_command(["verify-jet", "--n", str(n)])
    assert code == 0
    atlases = {}
    for k in range(n + 1):
        for t in range(1, n + 1):
            argv = ["resolve", "--n", str(n), "--c", str(n), "--k", str(k), "--t", str(t)]
            code, atlases[k, t] = run_command(argv + ["--format", "json"])
            assert code == 0, shlex.join(argv)
    return text, atlases


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_jet_checker_accepts_every_run_up_to_n4(n):
    text, atlases = verify_jet_run(n)
    assert verify_jet_output_problems(text, atlases) == []


def test_verify_jet_checker_refuses_spoiled_output():
    """A divisor with one leaf dropped, a label from no exceptional divisor
    of its leaf, and a flipped equality flag."""
    text, atlases = verify_jet_run(3)

    def problems(spoil):
        payload = json.loads(text)
        (cert,) = [
            c for c in payload["certificates"] if (c["k"], c["t"], c["I"]) == (3, 1, [1, 2])
        ]
        spoil(cert)
        return verify_jet_output_problems(json.dumps(payload), atlases)

    def drop_leaf(cert):
        cert["divisor"].pop(min(cert["divisor"]))

    def foreign_label(cert):
        powers = next(p for p in cert["divisor"].values() if p)
        powers["E9.9"] = powers.pop(min(powers))

    def flip_equal(cert):
        assert cert["equal"]
        cert["equal"] = False

    (problem,) = problems(drop_leaf)
    assert problem.startswith("k=3 t=1 I=[1, 2]: divisor misses leaves ['root/"), problem
    (problem,) = problems(foreign_label)
    assert problem.startswith("k=3 t=1 I=[1, 2]: divisor {") and "E9.9" in problem, problem
    flipped = problems(flip_equal)
    assert "k=3 t=1 I=[1, 2]: equal is False" in flipped, flipped
    assert "lift_ideal_failures are not the certificates whose routes differ" in flipped


def test_verify_jet_checker_command_line(tmp_path):
    """``python checkers.py verify-jet OUT ATLAS...`` exits 0 on good output
    and 1 with one divisor leaf dropped; a file that is not JSON is a problem
    line, not a traceback."""
    text, atlases = verify_jet_run(3)
    paths = []
    for (k, t), atlas in atlases.items():
        paths.append(tmp_path / f"resolve-{k}-{t}.json")
        paths[-1].write_text(atlas)
    good = tmp_path / "good.json"
    good.write_text(text)
    payload = json.loads(text)
    (cert,) = [c for c in payload["certificates"] if (c["k"], c["t"], c["I"]) == (3, 1, [1, 2])]
    cert["divisor"].pop(min(cert["divisor"]))
    dropped = tmp_path / "dropped.json"
    dropped.write_text(json.dumps(payload))
    garbled = tmp_path / "garbled.json"
    garbled.write_text("verify-jet n=3: 84 ideals checked\n")

    def check(out, *atlas_paths):
        return subprocess.run(
            [sys.executable, str(HERE / "checkers.py"), "verify-jet", str(out),
             *map(str, atlas_paths)],
            capture_output=True, text=True,
        )

    passed = check(good, *paths)
    assert (passed.returncode, passed.stdout, passed.stderr) == (0, "", "")
    failed = check(dropped, *paths)
    assert failed.returncode == 1
    (problem,) = failed.stdout.splitlines()
    assert problem.startswith(f"{dropped}: k=3 t=1 I=[1, 2]: divisor misses leaves"), problem
    for argv in ((garbled, *paths), (good, garbled, *paths)):
        failed = check(*argv)
        assert (failed.returncode, failed.stderr) == (1, "")
        (problem,) = failed.stdout.splitlines()
        assert problem.startswith(f"{garbled}: cannot "), problem
        assert "JSONDecodeError" in problem, problem


def test_forms_checker_accepts_every_recorded_run():
    keys = json.loads(DIGESTS.read_text())["digests"]
    argvs = [shlex.split(key) for key in keys if key.startswith("forms ")]
    assert len(argvs) == 48
    for argv in argvs:
        code, text = run_command(argv)
        assert code == 0, shlex.join(argv)
        assert forms_output_problems(text) == [], shlex.join(argv)


def test_forms_checker_refuses_spoiled_output():
    """A residue entry, one chart numerator and a degree, each spoiled."""
    code, text = run_command(["forms", "--n", "2", "--components", "x0; x1; x0^2 + x1^2 + x2^2"])
    assert code == 0
    assert forms_output_problems(text) == []

    def problems(spoil):
        payload = json.loads(text)
        spoil(payload)
        return forms_output_problems(json.dumps(payload))

    def residue(payload):
        assert payload["forms"][1]["residues"] == ["0", "2", "-1"]
        payload["forms"][1]["residues"][1] = "3"

    def numerator(payload):
        assert payload["forms"][0]["charts"]["2"]["numerators"][1] == "-u0^3 - u0*u1^2 - u0"
        payload["forms"][0]["charts"]["2"]["numerators"][1] = "-u0^3 - u0*u1^2"

    def scaled(payload):  # balanced and independent still, but not what the charts write
        payload["forms"][1]["residues"] = payload["residue_matrix"][1] = ["0", "4", "-2"]

    def degree(payload):
        payload["degrees"][2] = 3

    assert problems(residue) == [
        "residue_matrix is not the forms' residue rows",
        "form 1: residues ['0', '3', '-1'] are not balanced",
    ]
    assert problems(scaled) == [
        f"form 1 chart {j}: numerators are not those of its residues" for j in range(3)
    ]
    assert problems(numerator) == [
        "form 0 chart 2: numerators are not those of its residues"
    ]
    assert problems(degree) == ["degrees are [1, 1, 3], expected [1, 1, 2]"]


def test_bounds_checker_accepts_every_recorded_run():
    keys = json.loads(DIGESTS.read_text())["digests"]
    runs = [run_command(shlex.split(key)) for key in keys if key.startswith("bounds ")]
    texts = [text for code, text in runs if code == 0]
    assert len(texts) == 48
    assert any(text.startswith("{") for text in texts)
    assert any(text.startswith("n=") for text in texts)
    for text in texts:
        assert bounds_output_problems(text) == [], text


BOUNDS_ARGV = ["bounds", "--n", "3", "--delta", "11,20,5", "--eps", "5,18,2", "--c", "5",
               "--alpha", "9/1"]


def test_bounds_checker_refuses_spoiled_text():
    """A b_i, an m_i and the alpha split's r, each spoiled in the text table."""
    code, text = run_command(BOUNDS_ARGV + ["--format", "text"])
    assert code == 0
    assert bounds_output_problems(text) == []

    def problems(old, new):
        assert text.count(old) == 1
        return bounds_output_problems(text.replace(old, new))

    assert problems("  1     11     5      100", "  1     11     5      101") == [
        "effective b is [101, 55, 220], expected [100, 55, 220]"
    ]
    assert problems("     104658\n", "     104659\n") == [
        "effective m is [57557, 104659, 26162], expected [57557, 104658, 26162]"
    ]
    assert problems(": r = 7,", ": r = 8,") == ["reconstruction r is 8, expected 7"]


def test_bounds_checker_refuses_spoiled_json():
    """The same three spoils in the JSON payload, and a threshold with c < n."""
    code, text = run_command(BOUNDS_ARGV + ["--format", "json"])
    assert code == 0
    assert bounds_output_problems(text) == []

    def problems(section, name, spoil):
        payload = json.loads(text)
        payload[section][name] = spoil(payload[section][name])
        return bounds_output_problems(json.dumps(payload))

    assert problems("effective", "b", lambda b: [b[0], b[1] + 1, b[2]]) == [
        "effective b is [100, 56, 220], expected [100, 55, 220]"
    ]
    assert problems("effective", "m", lambda m: m[:2] + [m[2] - 1]) == [
        "effective m is [57557, 104658, 26161], expected [57557, 104658, 26162]"
    ]
    assert problems("reconstruction", "r", lambda r: r - 1) == [
        "reconstruction r is 6, expected 7"
    ]
    assert problems("threshold", "c", lambda c: 2) == ["threshold c is 2, below n = 3"]
