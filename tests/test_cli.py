import errno
import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from compstats.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hk_text(capsys):
    code, out, _ = run(capsys, "hk", "2")
    assert code == 0
    assert out == "1 + p q\n"
    code, out, _ = run(capsys, "hk", "0")
    assert out == "1\n"


def test_hk_json(capsys):
    code, out, _ = run(capsys, "hk", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 3
    assert {"exponents": {"p": 3, "q": 3}, "coefficient": "1"} in data["terms"]


def test_hk_too_large_is_usage_error(capsys):
    from compstats.errors import LIMITS

    with pytest.raises(SystemExit) as exc:
        main(["hk", str(LIMITS["hk"] + 1)])
    assert exc.value.code == 2


def test_table_grid_matches_golden(capsys):
    code, out, _ = run(capsys, "table", "ic", "--max-n", "16", "--format", "grid")
    assert code == 0
    assert out == (DATA / "golden" / "table_ic_16.txt").read_text()
    code, out, _ = run(capsys, "table", "dc", "--max-n", "16", "--format", "grid")
    assert code == 0
    assert out == (DATA / "golden" / "table_dc_16.txt").read_text()


def test_table_grid_zero_row(capsys):
    code, out, _ = run(capsys, "table", "ic", "--max-n", "0", "--format", "grid")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["0", "1"] + ["0"] * 12


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "dc", "--max-n", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,r,count"
    assert "5,1,9" in lines


def test_table_dense_outside_csv_is_usage_error(capsys):
    # --dense pads csv rows only, so with any other format it is refused, not ignored
    for fmt in (["--format", "grid"], ["--format", "json"], []):
        with pytest.raises(SystemExit) as exc:
            main(["table", "ic", "--max-n", "3", *fmt, "--dense"])
        assert exc.value.code == 2
        assert "--dense applies only to --format csv" in capsys.readouterr().err


def test_table_json_with_k(capsys):
    code, out, _ = run(capsys, "table", "ic", "--max-n", "6", "--k", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "ic_nk"
    assert data["k"] == 2
    assert [3, 1, "1"] in data["entries"]


def test_table_more_parts_than_max_n_is_all_zero(capsys):
    for kind, columns in (("ic", 13), ("dc", 6)):
        code, out, _ = run(capsys, "table", kind, "--max-n", "3", "--k", "5",
                           "--format", "grid")
        assert code == 0
        rows = out.splitlines()[1:]
        assert [row.split() for row in rows] == [[str(n)] + ["0"] * columns
                                                  for n in range(4)]
        code, out, _ = run(capsys, "table", kind, "--max-n", "3", "--k", "5",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"kind": f"{kind}_nk", "k": 5, "cap": 3, "entries": []}


def test_table_determinism(capsys):
    first = run(capsys, "table", "ic", "--max-n", "10", "--format", "csv")
    second = run(capsys, "table", "ic", "--max-n", "10", "--format", "csv")
    assert first == second


def test_bij_worked_example(capsys):
    code, out, _ = run(capsys, "bij", "4,2,1,2,1,5,3")
    assert code == 0
    assert "permutation:   6172435" in out
    assert "partition:     2,2,1,1,1,1,1" in out
    assert "maj(perm):     9" in out
    assert "round-trip:    4,2,1,2,1,5,3" in out


def test_bij_trivial_cases(capsys):
    code, out, _ = run(capsys, "bij", "1,1,1")
    assert code == 0
    assert "permutation:   123" in out
    assert "partition:     1,1,1" in out
    code, out, _ = run(capsys, "bij", "5")
    assert code == 0
    assert "permutation:   1" in out
    assert "partition:     5" in out


def test_bij_reads_a_long_composition_from_stdin():
    # 100000 parts are about 0.6 MB, more than one command-line argument may hold
    parts = ",".join(str(part) for part in range(1, 100001))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "compstats.cli", "bij", "-"], input=parts + "\n",
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == f"composition:   {parts}"
    assert lines[-2] == f"round-trip:    {parts}"
    assert lines[-1].startswith("check:         |partition| + maj = ")


def test_bij_malformed_input(capsys):
    code, _, err = run(capsys, "bij", "4,x")
    assert code == 2
    assert "error" in err
    code, out, err = run(capsys, "bij", "")
    assert (code, out) == (2, "")
    assert err == "error: bij needs a composition with at least one part\n"
    # int() reads these parts as 10, 3 and 1; a part is plain ASCII digits
    for literal in ("1_0", "\uff13", "2,+1"):
        code, out, err = run(capsys, "bij", literal)
        assert (code, out) == (2, "")
        assert f"malformed composition literal {literal!r}" in err


def test_verify_single_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "genfuncid", "--k", "4",
                       "--cap", "10")
    assert code == 0
    assert out.startswith("PASS genfuncid")
    code, out, _ = run(capsys, "verify", "--suite", "foata", "--k", "5")
    assert code == 0
    assert out.startswith("PASS foata")
    code, out, _ = run(capsys, "verify", "--suite", "macmahon", "--max-n", "8")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite", "lemma", "--max-n", "8")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite", "jointstat", "--k", "3",
                       "--cap", "8")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite", "equidist", "--k", "5",
                       "--cap", "8")
    assert code == 0
    # the composition half runs at the cap asked for, past the default of 12
    code, out, _ = run(capsys, "verify", "--suite", "equidist", "--k", "2", "--cap", "14")
    assert (code, out) == (0, "PASS equidist: S_k for k 0..2; compositions k 0..2, cap 14\n")
    code, out, _ = run(capsys, "verify", "--suite", "prod", "--k", "2",
                       "--cap", "6")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite", "geneuler", "--k", "4")
    assert code == 0


def test_verify_scale_bounds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "foata", "--k", "9"])
    assert exc.value.code == 2
    # --suite all runs foata too, so the same cap applies
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all", "--k", "8", "--cap", "4"])
    assert exc.value.code == 2
    # the S_k polynomials of prod and geneuler are capped as hk is, genfuncid
    # as the tables are; an over-limit --k is refused before any work
    for suite, k, limit in (("prod", 9, 8), ("geneuler", 9, 8), ("genfuncid", 25, 24)):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite, "--k", str(k)])
        assert exc.value.code == 2
        assert f"--k is capped at {limit} for --suite {suite}" in capsys.readouterr().err
    # a bound the suite does not read is refused, not ignored; --suite all reads them all
    for suite, flag, value in (("lemma", "--k", 99), ("foata", "--cap", 3),
                               ("geneuler", "--max-n", 5), ("foata", "--cap", 30)):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite, flag, str(value)])
        assert exc.value.code == 2
        assert f"--suite {suite} does not read {flag}" in capsys.readouterr().err


def test_verify_zero_bounds_are_not_replaced_by_defaults(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "foata", "--k", "0")
    assert code == 0
    assert out == "PASS foata: S_k for k 0..0\n"
    code, out, _ = run(capsys, "verify", "--suite", "lemma", "--max-n", "0")
    assert code == 0
    assert out == "PASS lemma: all compositions with sum <= 0\n"
    code, out, _ = run(capsys, "verify", "--suite", "jointstat", "--cap", "0")
    assert code == 0
    assert out == "PASS jointstat: k 0..4, cap 0\n"


@pytest.mark.parametrize("suite", ["lemma", "macmahon"])
def test_verify_max_n_zero_checks_the_empty_composition(capsys, monkeypatch, suite):
    from compstats import compositions

    swept = []
    all_compositions = compositions.all_compositions
    monkeypatch.setattr(compositions, "all_compositions",
                        lambda n: swept.append(n) or all_compositions(n))
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", "0")
    assert (code, out) == (0, f"PASS {suite}: all compositions with sum <= 0\n")
    assert swept == [0]


def refuse_bounds(*bounds):
    raise ValueError(f"bounds {bounds} refused")


def test_verify_all_reports_every_suite(capsys, monkeypatch):
    from compstats import cli, suites

    # a part count above the cap is zero on both sides of jointstat
    code, out, _ = run(capsys, "verify", "--suite", "all", "--k", "6", "--cap", "4")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"PASS {name}" for name in cli.SUITES]
    assert "PASS jointstat: k 0..6, cap 4\n" in out
    # a suite that refuses its bounds reports ERROR; the other suites still run and report
    monkeypatch.setattr(suites, "check_jointstat", refuse_bounds)
    code, out, _ = run(capsys, "verify", "--suite", "all", "--k", "6", "--cap", "4")
    assert code == 2
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS prod", "PASS geneuler", "PASS genfuncid", "PASS lemma", "PASS macmahon",
        "ERROR jointstat", "PASS foata", "PASS equidist"]
    assert lines[5] == "ERROR jointstat: bounds (6, 4) refused"


def test_verify_all_runs_each_suite_once(capsys, monkeypatch):
    from compstats import cli, suites

    checks = {name.removeprefix("check_") for name in vars(suites) if name.startswith("check_")}
    assert checks == set(cli.SUITES)
    calls = []
    for name in checks:
        monkeypatch.setattr(suites, f"check_{name}",
                            lambda *bounds, name=name: calls.append(name) or (True, ""))
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert calls == list(cli.SUITES)


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch, clear_memos):
    from compstats import tables

    # hooks one too long leave (1 - q) / (1 - q^2) for the shape (1,): no polynomial
    hook_lengths = tables.hook_lengths
    monkeypatch.setattr(tables, "hook_lengths",
                        lambda shape: [[h + 1 for h in row] for row in hook_lengths(shape)])
    clear_memos()  # a memoised table would skip the hooks
    code, out, err = run(capsys, "table", "ic", "--max-n", "4")
    assert code == 3
    assert out == ""
    assert err == "internal error: the hook product of (1,) does not divide [1]_q!\n"


def test_exception_base_classes_are_the_exit_code_categories():
    from compstats.errors import CompstatsError, InexactDivision, NetworkUnavailable

    assert issubclass(CompstatsError, ValueError)
    assert issubclass(InexactDivision, ArithmeticError)
    assert not issubclass(InexactDivision, ValueError)
    assert issubclass(NetworkUnavailable, OSError)


@pytest.mark.parametrize("failure", [urllib.error.URLError("no route to host"),
                                     TimeoutError("timed out")])
def test_failed_fetch_is_a_usage_error(capsys, monkeypatch, failure):
    def refuse(url, timeout):
        raise failure

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    code, out, err = run(capsys, "oeis-check", "--seq", "A189052", "--fetch")
    assert code == 2
    assert out == ""
    assert err == f"error: could not fetch https://oeis.org/A189052/b189052.txt: {failure}\n"


def test_oeis_check_refuses_an_unanswerable_request_before_reading_a_bfile(
        capsys, monkeypatch, tmp_path):
    def no_network(*args, **kwargs):
        raise AssertionError("oeis-check went to the network")

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    missing = str(tmp_path / "b999999.txt")
    for argv, message in (
            (["--fetch", "--seq", "A999999"], "no mapping for sequence 'A999999'"),
            (["--fetch", "--seq", "A189074", "--max-n", "30"], "cap 30 exceeds the table limit 24"),
            (["--bfile", missing, "--seq", "A999999"], "no mapping for sequence 'A999999'")):
        code, out, err = run(capsys, "oeis-check", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_reports_every_suite_past_an_internal_error(capsys, monkeypatch, clear_memos):
    from compstats import cli, suites, tables

    # the same broken hooks: prod builds the hook sums, and no other suite reads them
    hook_lengths = tables.hook_lengths
    monkeypatch.setattr(tables, "hook_lengths",
                        lambda shape: [[h + 1 for h in row] for row in hook_lengths(shape)])
    clear_memos()
    code, out, err = run(capsys, "verify", "--suite", "all")
    assert code == 3
    assert err == ""
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"{'ERROR' if name == 'prod' else 'PASS'} {name}" for name in cli.SUITES]
    assert lines[0] == "ERROR prod: internal error: the hook product of (1,) does not divide [1]_q!"
    # a fault outranks a usage error in the exit code
    monkeypatch.setattr(suites, "check_jointstat", refuse_bounds)
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 3
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("ERROR")] == [
        "ERROR prod", "ERROR jointstat"]


@pytest.mark.parametrize("argv", [(), ("--k", "39")])
def test_packed_slot_overflow_is_an_internal_error(capsys, monkeypatch, argv):
    # past cap 50 the descent kernel's weights outgrow a 64-bit slot (from k = 39 on),
    # and unpack refuses the wrapped-around word
    from compstats import errors

    monkeypatch.setitem(errors.LIMITS, "table", 51)
    code, out, err = run(capsys, "table", "dc", "--max-n", "51", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")


def test_verify_reports_failure_with_counterexample(capsys, monkeypatch):
    # force one identity check to fail and make sure the FAIL line and exit
    # code surface it
    from compstats import oracles

    monkeypatch.setattr(oracles, "verify_composition_count_identity",
                        lambda k, cap: k < 2)
    code, out, _ = run(capsys, "verify", "--suite", "genfuncid", "--k", "4")
    assert code == 1
    assert "FAIL genfuncid" in out
    assert "k=2" in out

    monkeypatch.setattr(oracles, "verify_product_expansion",
                        lambda max_t, cap: False)
    code, out, _ = run(capsys, "verify", "--suite", "prod", "--k", "2", "--cap", "6")
    assert code == 1
    assert out.startswith("FAIL prod")


def test_foata_check_validates_each_permutation_once(monkeypatch):
    from math import factorial

    from compstats import permutations, suites
    from compstats.statistics import descent_set

    # with fork, this process would validate only its half of the permutations
    monkeypatch.delattr(os, "fork")
    for k in range(7):
        for pi in permutations.all_permutations(k):
            assert (suites._inverse_descent_set(pi)
                    == descent_set(permutations.inverse_permutation(pi)))
    checked = []
    check = permutations.check_permutation
    monkeypatch.setattr(permutations, "check_permutation",
                        lambda pi: checked.append(1) or check(pi))
    assert suites.check_foata(5) == (True, "S_k for k 0..5")
    # foata(pi) checks pi and foata_inverse checks its image, nothing else
    assert len(checked) == 2 * sum(factorial(k) for k in range(6))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def foata_positions(max_k):
    from compstats.permutations import all_permutations

    return [pi for k in range(max_k + 1) for pi in all_permutations(k)]


def break_foata_round_trip(monkeypatch, targets, breaking=None):
    """Make foata_inverse give a wrong preimage, or call ``breaking``, for each target."""
    from compstats import permutations

    foata_inverse = permutations.foata_inverse

    def broken(image):
        pi = foata_inverse(image)
        if pi not in targets:
            return pi
        return breaking(pi) if breaking else pi[::-1]

    monkeypatch.setattr(permutations, "foata_inverse", broken)


# positions in the order S_0, S_1, ... of check_foata's sweep: odd ones are the child's
@pytest.mark.parametrize("positions", [(17,), (20,), (17, 20), (20, 23), (3,), (2, 3)],
                         ids=["odd", "even", "odd-then-even", "even-then-odd", "early-odd",
                              "adjacent"])
def test_foata_split_reports_the_first_failure_of_either_half(capsys, monkeypatch, positions):
    objects = foata_positions(4)
    first = objects[min(positions)]
    break_foata_round_trip(monkeypatch, {objects[i] for i in positions})
    split = run(capsys, "verify", "--suite", "foata", "--k", "4")
    assert_no_child_left()
    assert split == (1, f"FAIL foata: pi={''.join(map(str, first))}: foata round-trip failed\n", "")
    monkeypatch.delattr(os, "fork")
    assert run(capsys, "verify", "--suite", "foata", "--k", "4") == split


@pytest.mark.parametrize("suite, name", [("lemma", "reversed_composition"),
                                         ("macmahon", "macmahon_inverse")])
@pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
def test_composition_splits_report_the_failure_a_single_pass_reports(
        capsys, monkeypatch, suite, name, parity):
    from compstats import compositions

    objects = [sigma for n in range(7) for sigma in compositions.all_compositions(n)]
    target = next(sigma for i, sigma in enumerate(objects)
                  if i >= 20 and i % 2 == parity and sigma != sigma[::-1])
    function = getattr(compositions, name)

    def broken(*args):
        result = function(*args)
        if name == "reversed_composition":  # the target's reverse comes back unreversed
            return args[0] if args[0] == target else result
        return result[::-1] if result == target else result  # its round trip, reversed

    monkeypatch.setattr(compositions, name, broken)
    split = run(capsys, "verify", "--suite", suite, "--max-n", "6")
    assert_no_child_left()
    assert split[0] == 1
    assert split[1].startswith(f"FAIL {suite}: sigma={compositions.format_composition(target)}: ")
    monkeypatch.delattr(os, "fork")
    assert run(capsys, "verify", "--suite", suite, "--max-n", "6") == split


@pytest.mark.parametrize("error, code, line", [
    (ArithmeticError("planted fault"), 3, "ERROR foata: internal error: planted fault"),
    (ValueError("planted refusal"), 2, "ERROR foata: planted refusal")])
def test_an_exception_on_the_childs_half_reaches_verify(capsys, monkeypatch, error, code, line):
    objects = foata_positions(4)

    def fail(pi):
        raise error

    # the child's half fails at 17, before the parent's half passes its last object
    break_foata_round_trip(monkeypatch, {objects[17]}, fail)
    split = run(capsys, "verify", "--suite", "foata", "--k", "4")
    assert_no_child_left()
    assert split == (code, line + "\n", "")
    monkeypatch.delattr(os, "fork")
    assert run(capsys, "verify", "--suite", "foata", "--k", "4") == split


def test_the_childs_exception_keeps_its_class_and_message(monkeypatch):
    from compstats import suites
    from compstats.errors import InexactDivision, TooLarge

    # an argument marshal cannot write travels as the message
    unwritable = ValueError(object())
    for error in (InexactDivision("remainder 1 + q"), TooLarge("k", 9, 7), KeyError("k"),
                  unwritable):
        def test(x, error=error):
            if x == 5:
                raise error
            return None

        with pytest.raises(type(error)) as raised:
            suites.first_failure(lambda: range(10), test)
        assert_no_child_left()
        assert (type(raised.value), str(raised.value)) == (type(error), str(error))
        assert error is unwritable or raised.value.args == error.args


@pytest.mark.parametrize("fork", [True, False], ids=["split", "sequential"])
def test_first_failure_takes_the_earliest_event_of_either_half(monkeypatch, fork):
    from compstats import suites

    if not fork:
        monkeypatch.delattr(os, "fork")

    def objects(fail_at=None):
        for x in range(20):
            if x == fail_at:
                raise ValueError(f"no object {x}")
            yield x

    def test(x):
        return f"object {x}" if x in failing else None

    for failing, expected in (((), None), ((19,), "object 19"), ((4, 7), "object 4"),
                              ((7, 12), "object 7"), ((0, 1), "object 0")):
        assert suites.first_failure(objects, test) == expected
        assert_no_child_left()
    # the enumeration raising ranks after the tests of every object it gave
    for failing in ((8,), (9,)):
        assert suites.first_failure(lambda: objects(fail_at=10), test) == f"object {failing[0]}"
        assert_no_child_left()
    failing = ()
    for fail_at in (0, 9, 10):
        with pytest.raises(ValueError, match=f"no object {fail_at}"):
            suites.first_failure(lambda: objects(fail_at=fail_at), test)
        assert_no_child_left()


def test_a_child_that_dies_is_an_internal_error(capsys, monkeypatch):
    from compstats import suites

    parent = os.getpid()
    objects = foata_positions(4)

    def die(pi):
        if os.getpid() != parent:
            os._exit(1)
        return pi

    break_foata_round_trip(monkeypatch, {objects[17]}, die)
    code, out, err = run(capsys, "verify", "--suite", "foata", "--k", "4")
    assert_no_child_left()
    assert (code, out, err) == (3, "ERROR foata: internal error: the process testing the "
                                   "odd-numbered objects ended with exit status 1 before it "
                                   "reported\n", "")
    # a child that exits 0 with a report the parent cannot read never passes either
    monkeypatch.undo()
    monkeypatch.setattr(suites, "_encode", lambda event: b"not a report")
    with pytest.raises(ArithmeticError, match="sent a malformed report b'not a report'"):
        suites.check_lemma(4)
    assert_no_child_left()


def test_verify_all_output_is_golden(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert out == (DATA / "golden" / "verify_all.txt").read_text()


def test_equidist_compares_distinct_distributions(capsys, monkeypatch):
    # each pair read off the one joint distribution must still be compared
    # with the reference, not with itself
    from compstats import compositions, permutations, statistics

    monkeypatch.setitem(permutations.STATISTICS, "imaj", statistics.major_index)
    code, out, _ = run(capsys, "verify", "--suite", "equidist", "--k", "4", "--cap", "6")
    assert code == 1
    assert out.startswith("FAIL equidist: k=3: (inv,imaj) distribution differs: ")

    monkeypatch.undo()
    monkeypatch.setitem(compositions.STATISTICS, "comaj", statistics.descent_number)
    code, out, _ = run(capsys, "verify", "--suite", "equidist", "--k", "4", "--cap", "6")
    assert code == 1
    assert out.startswith("FAIL equidist: k=3: (sum,comaj) over compositions differs: ")


def test_foata_suite_checks_the_round_trip(capsys, monkeypatch):
    from compstats import permutations

    monkeypatch.setattr(permutations, "foata_inverse", tuple)
    code, out, _ = run(capsys, "verify", "--suite", "foata", "--k", "4")
    assert code == 1
    assert out.startswith("FAIL foata: pi=")
    assert out.endswith(": foata round-trip failed\n")


def test_first_poly_difference_message():
    from compstats.suites import _first_poly_difference
    from compstats.polynomial import p, q

    message = _first_poly_difference(1 + 2 * p * q, 1 + 3 * p * q)
    assert "expected 3" in message
    assert "got 2" in message
    assert "'p': 1" in message and "'q': 1" in message


def test_oeis_check_fixture(capsys):
    code, out, _ = run(capsys, "oeis-check", "--seq", "A189074",
                       "--bfile", str(DATA / "oeis" / "b189074.txt"),
                       "--max-n", "12")
    assert code == 0
    assert "all agree" in out


def test_oeis_check_mismatch(tmp_path, capsys):
    bad = tmp_path / "b189052.txt"
    bad.write_text("1 0\n2 0\n3 7\n")
    code, out, _ = run(capsys, "oeis-check", "--seq", "A189052",
                       "--bfile", str(bad), "--max-n", "8")
    assert code == 1
    assert "mismatch at index 3" in out


def test_oeis_check_unknown_sequence(tmp_path, capsys):
    some = tmp_path / "b000001.txt"
    some.write_text("1 1\n")
    code, _, err = run(capsys, "oeis-check", "--seq", "A000001",
                       "--bfile", str(some), "--max-n", "5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("sidecar", [
    '{"A189074": {"n_start": 1}}', "[1, 2]",
    '{"A189074": {"quantity": "ic_triangle", "n_start": null}}',
    '{"A189074": {"quantity": "ic_triangle", "n_start": -3}}',
    '{"A189074": {"quantity": "ic_triangle", "offset": 1.5}}',
])
def test_oeis_check_malformed_sidecar_is_usage_error(tmp_path, capsys, sidecar):
    bfile = tmp_path / "b189074.txt"
    bfile.write_text((DATA / "oeis" / "b189074.txt").read_text())
    (tmp_path / "metadata.json").write_text(sidecar)
    code, out, err = run(capsys, "oeis-check", "--seq", "A189074",
                         "--bfile", str(bfile), "--max-n", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "A189074" in err


def test_oeis_check_comparing_nothing_is_an_error(capsys):
    code, out, err = run(capsys, "oeis-check", "--seq", "A189052",
                         "--bfile", str(DATA / "oeis" / "b189052.txt"), "--max-n", "0")
    assert code == 2
    assert out == ""
    assert "nothing to compare" in err
    assert "--max-n 0" in err


def test_oeis_check_over_table_limit(capsys):
    for seq, digits in (("A189074", "189074"), ("A238343", "238343")):
        code, _, err = run(capsys, "oeis-check", "--seq", seq,
                           "--bfile", str(DATA / "oeis" / f"b{digits}.txt"),
                           "--max-n", "30")
        assert code == 2
        assert "exceeds the table limit 24" in err


def test_oeis_check_negative_max_n_is_usage_error(capsys):
    for seq, digits in (("A189074", "189074"), ("A189052", "189052")):
        with pytest.raises(SystemExit) as exc:
            main(["oeis-check", "--seq", seq, "--bfile", str(DATA / "oeis" / f"b{digits}.txt"),
                  "--max-n", "-1"])
        assert exc.value.code == 2
        assert "--max-n must be nonnegative" in capsys.readouterr().err


def test_limits_have_one_source(capsys, monkeypatch):
    # lowering a limit in errors.LIMITS moves the CLI bound and the library check together
    from compstats import errors
    from compstats.distributions import DistTable, joint_gf

    monkeypatch.setitem(errors.LIMITS, "table", 10)
    for argv in (["table", "ic", "--max-n", "11"],
                 ["verify", "--suite", "genfuncid", "--cap", "11"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "capped at 10" in capsys.readouterr().err
    with pytest.raises(errors.TooLarge, match="exceeds the table limit 10"):
        DistTable.descents(11)
    DistTable.descents(10)

    monkeypatch.setitem(errors.LIMITS, "joint", 5)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "foata", "--k", "6"])
    assert exc.value.code == 2
    assert "--k is capped at 5 for --suite foata" in capsys.readouterr().err
    with pytest.raises(errors.TooLarge, match="exceeds the joint limit 5"):
        joint_gf(6, 8)
    joint_gf(5, 6)


def test_oeis_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "b189052.txt"
    bad.write_text("1 1\nnot a row\n")
    code, _, err = run(capsys, "oeis-check", "--seq", "A189052",
                       "--bfile", str(bad), "--max-n", "5")
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("name", ["b189052.txt", "metadata.json"])
def test_oeis_check_on_a_file_that_is_not_utf8_is_usage_error(tmp_path, capsys, name):
    for copied in ("b189052.txt", "metadata.json"):
        (tmp_path / copied).write_bytes((DATA / "oeis" / copied).read_bytes())
    target = tmp_path / name
    target.write_bytes(target.read_bytes().replace(b"A189052", b"A189\xff052", 1))
    code, out, err = run(capsys, "oeis-check", "--seq", "A189052",
                         "--bfile", str(tmp_path / "b189052.txt"), "--max-n", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "utf-8" in err and err.count("\n") == 1


@pytest.mark.parametrize("name, error", [("b189052.txt", errno.EISDIR),
                                         ("metadata.json", errno.EISDIR),
                                         ("b189052.txt", errno.ENOENT)])
def test_oeis_check_read_errors_name_the_file(tmp_path, capsys, name, error):
    # os.read names no file (reading a directory fails there), so the read adds the path
    for copied in ("b189052.txt", "metadata.json"):
        (tmp_path / copied).write_bytes((DATA / "oeis" / copied).read_bytes())
    target = tmp_path / name
    target.unlink()
    if error == errno.EISDIR:
        target.mkdir()
    code, out, err = run(capsys, "oeis-check", "--seq", "A189052",
                         "--bfile", str(tmp_path / "b189052.txt"), "--max-n", "3")
    assert code == 2
    assert out == ""
    assert err == f"error: [Errno {error}] {os.strerror(error)}: {str(target)!r}\n"


def test_oeis_check_requires_source(capsys, monkeypatch):
    # exactly one of --bfile and --fetch; a usage error is reported before any download
    def no_network(*args, **kwargs):
        raise AssertionError("oeis-check went to the network")

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    bfile = str(DATA / "oeis" / "b189074.txt")
    for source in ([], ["--bfile", bfile, "--fetch"], ["--fetch", "--bfile", bfile]):
        with pytest.raises(SystemExit) as exc:
            main(["oeis-check", "--seq", "A189074", *source])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: compstats oeis-check")
        assert "--bfile" in err.splitlines()[-1] and "--fetch" in err.splitlines()[-1]


BFILE = str(DATA / "oeis" / "b189074.txt")


@pytest.mark.parametrize("argv, message", [
    pytest.param((), "no command", id="missing-command"),
    pytest.param(("tables", "ic"), "unknown command 'tables'", id="unknown-command"),
    pytest.param(("table", "ic", "--max-n", "3", "--bogus"), "unknown option --bogus",
                 id="unknown-option"),
    pytest.param(("hk", "-x"), "unknown option -x", id="unknown-short-option"),
    pytest.param(("table", "ic", "--max-n"), "--max-n needs a value", id="missing-value"),
    pytest.param(("oeis-check", "--seq", "--fetch"), "--seq needs a value", id="option-for-value"),
    pytest.param(("table", "ic", "--max-n", "x"), "--max-n: invalid int value 'x'", id="bad-int"),
    pytest.param(("table", "xc", "--max-n", "3"), "kind: invalid choice 'xc'",
                 id="bad-positional-choice"),
    pytest.param(("table", "ic", "--max-n", "3", "--format", "xml"),
                 "--format: invalid choice 'xml'", id="bad-choice"),
    pytest.param(("verify", "--suite", "nosuch"), "--suite: invalid choice 'nosuch'",
                 id="bad-suite"),
    pytest.param(("table", "ic"), "--max-n is required", id="missing-required"),
    pytest.param(("table", "--max-n", "3"), "kind is required", id="missing-positional"),
    pytest.param(("bij",), "composition is required", id="missing-composition"),
    pytest.param(("oeis-check", "--bfile", BFILE), "--seq is required", id="missing-seq"),
    pytest.param(("oeis-check", "--seq", "A189074"), "give exactly one of --bfile and --fetch",
                 id="neither-source"),
    pytest.param(("oeis-check", "--seq", "A189074", "--bfile", BFILE, "--fetch"),
                 "give exactly one of --bfile and --fetch", id="both-sources"),
    pytest.param(("table", "ic", "--max-n", "3", "--format", "csv", "--dense=yes"),
                 "--dense takes no value", id="flag-with-value"),
    pytest.param(("bij", "1,2", "3"), "unexpected argument '3'", id="extra-positional"),
])
def test_input_errors_print_usage_and_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 2
    command = argv[0] if argv and argv[0] != "tables" else ""
    assert lines[0].startswith(f"usage: compstats {command}".rstrip())
    assert lines[1].startswith(f"compstats {command}".rstrip() + ": error: ")
    assert message in lines[1]


def test_an_ambiguous_prefix_is_an_input_error(capsys, monkeypatch):
    from compstats import cli

    help_text, arguments = cli.COMMANDS["hk"]
    monkeypatch.setitem(cli.COMMANDS, "hk", (help_text, (
        *arguments, ("--fold", bool, False, "a second option starting with --f"))))
    with pytest.raises(SystemExit) as exc:
        main(["hk", "2", "--f", "json"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[1] == (
        "compstats hk: error: ambiguous option --f: --format, --fold")
    # an exact name wins over the names it prefixes
    monkeypatch.setitem(cli.COMMANDS, "hk", (help_text, (
        *arguments, ("--formats", bool, False, "an option that --format prefixes"))))
    assert run(capsys, "hk", "2", "--format", "json")[1] == '{"k": 2, "terms": ' + (
        '[{"exponents": {}, "coefficient": "1"}, '
        '{"exponents": {"p": 1, "q": 1}, "coefficient": "1"}]}\n')


def test_bound_errors_keep_the_top_level_usage(capsys):
    # the bound checks run after the parse and print the top-level usage line
    with pytest.raises(SystemExit) as exc:
        main(["table", "ic", "--max-n", "25"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: compstats [-h] {hk,table,bij,verify,oeis-check} ...\n"
        "compstats: error: --max-n is capped at 24\n")
    for argv, flag in ((["hk", "-1"], "k"), (["table", "ic", "--max-n", "3", "--k", "-1"], "--k"),
                       (["table", "dc", "--max-n=-2"], "--max-n")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"compstats: error: {flag} must be nonnegative\n")


@pytest.mark.parametrize("argv", [
    ("-h",), ("--help",), *((command, flag) for command in
                            ("hk", "table", "bij", "verify", "oeis-check")
                            for flag in ("-h", "--help")),
    ("table", "ic", "--max-n", "3", "--bogus", "-h"),
])
def test_help_prints_usage_and_one_line_per_argument(capsys, argv):
    from compstats import cli

    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    if argv[0] in cli.COMMANDS:
        assert lines[0].startswith(f"usage: compstats {argv[0]} [-h] ")
        rows = [(name, text) for name, _, _, text in cli.COMMANDS[argv[0]][1]]
    else:
        assert lines[0] == "usage: compstats [-h] {hk,table,bij,verify,oeis-check} ..."
        rows = [(name, text) for name, (text, _) in cli.COMMANDS.items()]
    assert [line.split(None, 1) for line in lines[1:]] == [[name, text] for name, text in rows]


@pytest.mark.parametrize("argv", [
    ("table", "ic", "--max-n=7", "--format=csv", "--k=2"),
    ("table", "ic", "--max", "7", "--form", "csv", "--k", "2"),
    ("table", "ic", "--m=7", "--f=csv", "--k", "2"),
    ("table", "--format", "grid", "--max-n", "3", "--k", "5", "ic", "--format", "csv",
     "--max-n", "7", "--k", "2"),
])
def test_option_syntax_parses_like_name_space_value(capsys, argv):
    # --name=value, a unique prefix and a repeated option (the last value wins) read as
    # --name value does
    expected = run(capsys, "table", "ic", "--max-n", "7", "--format", "csv", "--k", "2")
    assert expected[0] == 0
    assert run(capsys, *argv) == expected
