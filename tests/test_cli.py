"""Command-line interface: exit codes, determinism, file round-trips.

Commands run in-process through ``dispatch`` for speed; stdout is
captured with capsys so byte-identity checks are real.
"""

import contextlib
import hashlib
import io
import os
import random
import shlex
import tempfile
import time
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlbox import engine
from nlbox.cli import dispatch, parse_circuit
from nlbox.compilers import and_from_oneway, oneway_optimal, ordered_to_ot
from nlbox.gf2 import gf2_factorize
from nlbox.library import disj_det_protocol, ip_protocol
from nlbox.protocols import GeneralNlbProtocol
from nlbox.serialize import parse, serialize
from nlbox.truthtable import TruthTable, format_truth_table, ip_table, and_table
from util import (TRUTH_TABLE_BAD_HEADERS, leaky_ot, mutated, random_ordered,
                  random_protocol, random_table, sampled_kinds)

pytestmark = pytest.mark.usefixtures("tmp_path")


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_readme_cli_walkthrough_runs(capsys, tmp_path, monkeypatch):
    """The shell block under README's CLI heading, in a temp dir: its
    printf and heredoc lines write their files, and each nlbox line runs
    through dispatch and exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    lines, ran = iter(block.splitlines()), []
    for line in lines:
        argv = shlex.split(line, comments=True)
        if not argv:
            continue
        if argv[0] == "printf":
            fmt, redirect, path = argv[1:]
            assert redirect == ">"
            Path(path).write_text(fmt.replace("\\n", "\n"))
        elif argv[0] == "cat":
            redirect, path, heredoc = argv[1:]
            assert redirect == ">" and heredoc.startswith("<<")
            body = takewhile(lambda ln: ln != heredoc[2:], lines)
            Path(path).write_text("".join(ln + "\n" for ln in body))
        else:
            assert argv[0] == "nlbox", line
            code, out, err = run(capsys, *argv[1:])
            assert (code, err.startswith("error")) == (0, False), (line, err)
            assert out, line
            ran.append(argv[1])
    assert {"rank", "synth", "exec", "compile", "audit", "lib"} <= set(ran)


@pytest.fixture
def and_file(tmp_path):
    p = tmp_path / "and.tt"
    p.write_text(format_truth_table(and_table()))
    return str(p)


@pytest.fixture
def ip2_file(tmp_path):
    p = tmp_path / "ip2.tt"
    p.write_text(format_truth_table(ip_table(2)))
    return str(p)


def test_rank_report(capsys, ip2_file):
    code, out, _ = run(capsys, "rank", "-f", ip2_file)
    assert code == 0
    assert "rank: 2" in out


def test_factorize_reports_exact_reconstruction(capsys, ip2_file):
    code, out, _ = run(capsys, "factorize", "-f", ip2_file)
    assert code == 0
    assert "reconstruction-exact: True" in out


@pytest.mark.parametrize("f", [TruthTable(0, 0, (1,)), TruthTable(0, 3, (0b10110010,)),
                               random_table(6, 6, random.Random(6))],
                         ids=["0x0", "0x3", "6x6"])
def test_factorize_prints_factors_bit_0_first(capsys, tmp_path, f):
    table = tmp_path / "f.tt"
    table.write_text(format_truth_table(f))
    code, out, _ = run(capsys, "factorize", "-f", str(table))
    fac = gf2_factorize(f)
    want = ["".join(str((p >> x) & 1) for x in range(f.n_rows)) + " x "
            + "".join(str((q >> y) & 1) for y in range(f.n_cols))
            for p, q in zip(fac.row_factors, fac.col_factors)]
    assert code == 0 and want
    factors = [ln.split(": ")[1] for ln in out.splitlines() if ln.startswith("factor ")]
    assert factors == want


def test_spectrum_values(capsys, and_file):
    code, out, _ = run(capsys, "spectrum", "-f", and_file)
    assert code == 0
    assert "l1: 2.0" in out
    assert "parseval-defect" in out


def test_epsrank_report_with_verified_witness(capsys, and_file):
    code, out, _ = run(capsys, "epsrank", "-f", and_file, "--eps", "0",
                       "--tmax", "2")
    assert code == 0
    assert "eps-rank: 1" in out
    assert "witness-verified: True" in out


def test_epsrank_corr_reports_are_pinned(capsys, tmp_path):
    # the hash is of the canonical text, not of the file with its comment,
    # spacing and unreduced fractions
    path = tmp_path / "target.corr"
    path.write_text("# a rational target\ncorr 2 2\n2/4   1/4\n0/3 1/1\n")
    digest = hashlib.sha256(b"corr 2 2\n1/2 1/4\n0/1 1/1\n").hexdigest()[:16]
    assert digest == "904e3c50b49ae638"
    head = f"input-hash: {digest}\neps: 1/8\n"
    code, out, _ = run(capsys, "epsrank", "--corr", str(path), "--eps", "1/8", "--tmax", "2")
    assert (code, out) == (0, head + "eps-rank: 2\n"
                                     "witness 0: 1/4 01;01\n"
                                     "witness 1: 5/8 10;01\n"
                                     "witness 2: 1/8 01;11\n"
                                     "witness-verified: True\n")
    code, out, _ = run(capsys, "epsrank", "--corr", str(path), "--eps", "1/8", "--tmax", "1")
    assert (code, out) == (0, head + "eps-rank: exceeds tmax 1\n")


def test_synth_exec_audit_pipeline(capsys, tmp_path, ip2_file):
    proto = str(tmp_path / "ip2.nlb")
    code, out, _ = run(capsys, "synth", "-f", ip2_file, "-o", proto)
    assert code == 0
    assert "boxes: 2" in out and "worst-error: 0/1" in out
    code, out, _ = run(capsys, "exec", "-p", proto, "-x", "3", "-y", "3",
                       "--exact")
    assert code == 0
    # IP(3, 3) = 0, so the two outputs agree on every branch
    assert "p 0 0: 1/2" in out and "p 1 1: 1/2" in out
    code, out, _ = run(capsys, "audit", "-p", proto, "--nonsignaling")
    assert code == 0
    assert "audit: ok" in out


def test_lib_chsh_values(capsys):
    code, out, _ = run(capsys, "lib", "chsh")
    assert code == 0
    assert "classical-optimum: 3/4" in out
    assert "nlb-success: 1/1" in out


def test_compile_circuit_to_ot_pipeline(capsys, tmp_path):
    circ = tmp_path / "disj2.circ"
    circ.write_text(
        "circuit 2 2\n"
        "input a 0\ninput a 1\ninput b 0\ninput b 1\n"
        "and 0 2\nand 1 3\nor 4 5\noutput 6\n")
    ordered = str(tmp_path / "disj2.nlb")
    code, out, _ = run(capsys, "compile", "--from", "circuit",
                       "-i", str(circ), "-o", ordered)
    assert code == 0
    assert "boxes: 4" in out
    ot = str(tmp_path / "disj2.ot")
    code, out, _ = run(capsys, "compile", "--from", "ordered-to-ot",
                       "-i", ordered, "-o", ot)
    assert code == 0
    assert "calls: 4" in out
    code, out, _ = run(capsys, "audit", "-p", ot, "--privacy-ot")
    assert code == 0
    assert "audit: ok" in out


def test_compile_normalize_xor(capsys, tmp_path, ip2_file):
    # oneway -> 2^2 - 1 parallel boxes with Alice's local term 0110, which
    # folds into one more box: a strict XOR protocol
    ow = str(tmp_path / "ip2.ow")
    from nlbox.compilers import oneway_optimal
    from nlbox.engine import error_profile
    from nlbox.serialize import serialize
    with open(ow, "w") as fh:
        fh.write(serialize(oneway_optimal(ip_table(2))))
    out_path = str(tmp_path / "ip2.par")
    code, out, _ = run(capsys, "compile", "--from", "oneway", "-i", ow,
                       "--normalize-xor", "-o", out_path)
    assert code == 0
    with open(out_path) as fh:
        p = parse(fh.read())
    assert p.strict and p.t <= 5
    prof = error_profile(p, ip_table(2))
    assert prof.exact and prof.worst == 0


def test_compile_normalize_xor_rejects_other_kinds(capsys, tmp_path):
    files = {"o.nlb": serialize(disj_det_protocol(1)),
             "ow.nlb": serialize(oneway_optimal(ip_table(1))),
             "and.nlb": serialize(and_from_oneway(oneway_optimal(ip_table(1)))),
             "t.tt": format_truth_table(ip_table(1))}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for source, src, kind in (("ordered-to-ot", "o.nlb", "ot"),
                              ("and-from-oneway", "ow.nlb", "and"),
                              ("oneway-from-and", "and.nlb", "oneway")):
        argv = ["compile", "--from", source, "-i", str(tmp_path / src), "--normalize-xor"]
        if source == "oneway-from-and":
            argv += ["-f", str(tmp_path / "t.tt")]
        code, out, err = run(capsys, *argv)
        _assert_one_line_error(code, out, err)
        assert err.endswith(f"not {kind}\n")


def test_compile_rejects_function_for_sources_that_ignore_it(capsys, tmp_path):
    # -f is read by oneway-from-and alone; every other source exits 2
    # before reading its input, and writes nothing
    circ = "circuit 1 1\ninput a 0\ninput b 0\nand 0 1\noutput 2\n"
    files = {"o.nlb": serialize(disj_det_protocol(1)),
             "ow.nlb": serialize(oneway_optimal(ip_table(1))),
             "tw.nlb": serialize(random_protocol("twoway", 1, 1, 1, random.Random(2))),
             "c.circ": circ, "t.tt": format_truth_table(ip_table(1))}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for source, src in (("oneway", "ow.nlb"), ("twoway", "tw.nlb"), ("circuit", "c.circ"),
                        ("ordered-to-ot", "o.nlb"), ("and-from-oneway", "ow.nlb")):
        out_path = tmp_path / f"{source}.out"
        code, out, err = run(capsys, "compile", "--from", source, "-i", str(tmp_path / src),
                             "-f", str(tmp_path / "t.tt"), "-o", str(out_path))
        _assert_one_line_error(code, out, err)
        assert err == f"error: -f applies to --from oneway-from-and only, not {source}\n"
        assert not out_path.exists()


@pytest.mark.parametrize("check", ["--nonsignaling", "--privacy-ot"])
def test_audit_rejects_function_for_checks_that_ignore_it(capsys, tmp_path, ip2_file, check):
    path = tmp_path / "ot.nlb"
    path.write_text(serialize(ordered_to_ot(disj_det_protocol(1))))
    code, out, err = run(capsys, "audit", "-p", str(path), check, "-f", ip2_file)
    _assert_one_line_error(code, out, err)
    assert err == f"error: -f applies to --privacy-and only, not {check}\n"


@pytest.mark.parametrize("name", ["ip", "disj-det", "disj-rand", "chsh", "vandam"])
def test_lib_rejects_options_its_name_ignores(capsys, tmp_path, ip2_file, name):
    # -n is read by ip, disj-det and disj-rand, -f by vandam alone,
    # --flip by disj-rand alone and -o by all but chsh; a malformed weight
    # is rejected as unread before it is parsed.  -o is checked last, so
    # each row before it names its own option
    out_path = tmp_path / f"{name}.out"
    for option, value, reader in (("-n", "2", "ip or disj-det or disj-rand"),
                                  ("-n", "99", "ip or disj-det or disj-rand"),
                                  ("-f", ip2_file, "vandam"),
                                  ("--flip", "1/4", "disj-rand"),
                                  ("--flip", "x", "disj-rand"),
                                  ("-o", str(out_path), "ip or disj-det or disj-rand or vandam")):
        if name in reader.split(" or "):
            continue
        argv = ["lib", name, option, value]
        if option != "-o":
            argv += ["-o", str(out_path)]
        if name == "vandam":
            argv += ["-f", ip2_file]
        code, out, err = run(capsys, *argv)
        _assert_one_line_error(code, out, err)
        assert err == f"error: {option} applies to {reader} only, not {name}\n"
        assert not out_path.exists()


def test_lib_n_defaults_to_2(capsys, ip2_file):
    assert run(capsys, "lib", "ip")[:2] == run(capsys, "lib", "ip", "-n", "2")[:2]
    code, out, _ = run(capsys, "lib", "vandam", "-f", ip2_file)
    assert code == 0 and "\n# provenance: lib vandam n=2\n" in out


def test_lib_disj_rand_flip_defaults_to_one_third(capsys):
    default = run(capsys, "lib", "disj-rand", "-n", "2")[:2]
    assert default == run(capsys, "lib", "disj-rand", "-n", "2", "--flip", "1/3")[:2]
    assert default != run(capsys, "lib", "disj-rand", "-n", "2", "--flip", "1/4")[:2]


def test_stdout_byte_identical_across_runs(capsys, ip2_file):
    _, out1, _ = run(capsys, "rt", "--dim", "3", "--trials", "500",
                     "--seed", "11")
    _, out2, _ = run(capsys, "rt", "--dim", "3", "--trials", "500",
                     "--seed", "11")
    assert out1 == out2
    assert "coupled-violations: 0" in out1
    _, s1, _ = run(capsys, "synth", "-f", ip2_file)
    _, s2, _ = run(capsys, "synth", "-f", ip2_file)
    assert s1 == s2


def test_exec_sampling_deterministic_given_seed(capsys, tmp_path, ip2_file):
    proto = str(tmp_path / "p.nlb")
    run(capsys, "synth", "-f", ip2_file, "-o", proto)
    code1, out1, _ = run(capsys, "exec", "-p", proto, "-x", "1", "-y", "1",
                         "--samples", "200", "--seed", "3")
    code2, out2, _ = run(capsys, "exec", "-p", proto, "-x", "1", "-y", "1",
                         "--samples", "200", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "count" in out1


# stdout of `exec -x 3 -y 2 --samples 300 --seed s`, recorded when
# sampling moved to one Philox stream per call; a batch must count every
# run as the one-run sampler would.
SAMPLES_STDOUT = {
    ('parallel-xor', 0): 'input-hash: ed34c59c695bee95\nx: 3\ny: 2\nsamples: 300\nseed: 0\ncount 0 1: 147\ncount 1 0: 153\n',
    ('parallel-xor', 1): 'input-hash: ed34c59c695bee95\nx: 3\ny: 2\nsamples: 300\nseed: 1\ncount 0 1: 143\ncount 1 0: 157\n',
    ('parallel', 0): 'input-hash: 2e56257592ff999b\nx: 3\ny: 2\nsamples: 300\nseed: 0\ncount 0 1: 136\ncount 1 0: 164\n',
    ('parallel', 1): 'input-hash: 2e56257592ff999b\nx: 3\ny: 2\nsamples: 300\nseed: 1\ncount 0 1: 147\ncount 1 0: 153\n',
    ('ordered', 0): 'input-hash: 9257f0b722df3d79\nx: 3\ny: 2\nsamples: 300\nseed: 0\ncount 0 1: 138\ncount 1 0: 162\n',
    ('ordered', 1): 'input-hash: 9257f0b722df3d79\nx: 3\ny: 2\nsamples: 300\nseed: 1\ncount 0 1: 154\ncount 1 0: 146\n',
    ('general', 0): 'input-hash: 6393bf61f0794030\nx: 3\ny: 2\nsamples: 300\nseed: 0\ncount 0 0: 106\ncount 1 0: 154\ncount 1 1: 40\n',
    ('general', 1): 'input-hash: 6393bf61f0794030\nx: 3\ny: 2\nsamples: 300\nseed: 1\ncount 0 0: 116\ncount 1 0: 152\ncount 1 1: 32\n',
    ('mixture', 0): 'input-hash: 3c79f129911a0700\nx: 3\ny: 2\nsamples: 300\nseed: 0\ncount 0 0: 50\ncount 0 1: 98\ncount 1 0: 94\ncount 1 1: 58\n',
    ('mixture', 1): 'input-hash: 3c79f129911a0700\nx: 3\ny: 2\nsamples: 300\nseed: 1\ncount 0 0: 43\ncount 0 1: 114\ncount 1 0: 99\ncount 1 1: 44\n',
    ('ot', 0): 'input-hash: 7926484d20f8f6d1\nx: 3\ny: 2\nsamples: 300\nseed: 0\ncount 0 1: 138\ncount 1 0: 162\n',
    ('ot', 1): 'input-hash: 7926484d20f8f6d1\nx: 3\ny: 2\nsamples: 300\nseed: 1\ncount 0 1: 154\ncount 1 0: 146\n',
    ('ot-weighted', 0): 'input-hash: 420eca1480ab7671\nx: 3\ny: 2\nsamples: 300\nseed: 0\ncount 0 1: 174\ncount 1 0: 126\n',
    ('ot-weighted', 1): 'input-hash: 420eca1480ab7671\nx: 3\ny: 2\nsamples: 300\nseed: 1\ncount 0 1: 186\ncount 1 0: 114\n',
    ('mix-ordered', 0): 'input-hash: 25c516cf3a667543\nx: 3\ny: 2\nsamples: 300\nseed: 0\ncount 0 0: 88\ncount 0 1: 22\ncount 1 0: 94\ncount 1 1: 96\n',
    ('mix-ordered', 1): 'input-hash: 25c516cf3a667543\nx: 3\ny: 2\nsamples: 300\nseed: 1\ncount 0 0: 103\ncount 0 1: 25\ncount 1 0: 85\ncount 1 1: 87\n',
    ('mix-ot', 0): 'input-hash: 99b5f09fb805b558\nx: 3\ny: 2\nsamples: 300\nseed: 0\ncount 0 0: 158\ncount 0 1: 65\ncount 1 1: 77\n',
    ('mix-ot', 1): 'input-hash: 99b5f09fb805b558\nx: 3\ny: 2\nsamples: 300\nseed: 1\ncount 0 0: 139\ncount 0 1: 64\ncount 1 1: 97\n',
    ('mix-oneway', 0): 'input-hash: 06b9b91fe7fbb369\nx: 3\ny: 2\nsamples: 300\nseed: 0\ncount 0 1: 300\n',
    ('mix-oneway', 1): 'input-hash: 06b9b91fe7fbb369\nx: 3\ny: 2\nsamples: 300\nseed: 1\ncount 0 1: 300\n',
    ('parallel-xor-100', 0): 'input-hash: a72e2973aedf66eb\nx: 3\ny: 2\nsamples: 300\nseed: 0\ncount 0 0: 145\ncount 1 1: 155\n',
    ('parallel-xor-100', 1): 'input-hash: a72e2973aedf66eb\nx: 3\ny: 2\nsamples: 300\nseed: 1\ncount 0 0: 144\ncount 1 1: 156\n',
}


@pytest.mark.parametrize("name", sorted({name for name, _seed in SAMPLES_STDOUT}))
def test_exec_samples_matches_recorded_stdout(capsys, tmp_path, name):
    path = tmp_path / f"{name}.nlb"
    path.write_text(serialize(sampled_kinds()[name]))
    for seed in (0, 1):
        code, out, _ = run(capsys, "exec", "-p", str(path), "-x", "3", "-y", "2",
                           "--samples", "300", "--seed", str(seed))
        assert code == 0
        assert out == SAMPLES_STDOUT[(name, seed)]


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_exec_samples_takes_any_integer_seed(capsys, tmp_path, seed):
    path = tmp_path / "mixture.nlb"
    path.write_text(serialize(sampled_kinds()["mixture"]))
    code, out, _ = run(capsys, "exec", "-p", str(path), "-x", "3", "-y", "2",
                       "--samples", "50", "--seed", seed)
    assert code == 0
    assert f"seed: {seed}\n" in out
    assert sum(int(line.split(": ")[1]) for line in out.splitlines()
               if line.startswith("count ")) == 50


def test_exec_samples_cap_exits_before_any_draw(capsys, tmp_path, monkeypatch):
    def no_draw(*_args, **_kw):
        raise AssertionError("drew samples past the cap")
    path = tmp_path / "ip1.nlb"
    path.write_text(serialize(ip_protocol(1)))
    monkeypatch.setattr(engine, "_sampler", no_draw)
    _assert_one_line_error(*run(capsys, "exec", "-p", str(path), "-x", "0", "-y", "0",
                                "--samples", str(engine._MAX_SAMPLES + 1), "--seed", "1"),
                           want=4, prefix="resource limit: ")


# stdout of `audit --privacy-ot` on two OT protocols that fail it,
# recorded before the audit counted received bits in integers: the
# witness is the first failing (x, y) and its law keeps the order of
# first receipt
OT_AUDIT_STDOUT = {
    "leaky": 'input-hash: 938798c026df3c05\ncheck: privacy-ot\naudit: FAIL\nviolation: ot-privacy: received bits not uniform (witness (2, 1, {2: Fraction(1, 2), 0: Fraction(1, 4), 1: Fraction(1, 4)}))\n',
    "weighted": 'input-hash: 420eca1480ab7671\ncheck: privacy-ot\naudit: FAIL\nviolation: ot-privacy: received bits not uniform (witness (0, 0, {7: Fraction(1, 4), 6: Fraction(7, 12), 4: Fraction(1, 6)}))\n',
}


def test_privacy_ot_failure_matches_recorded_stdout(capsys, tmp_path):
    for name, p in (("leaky", leaky_ot()),
                    ("weighted", random_protocol("ot", 2, 2, 3, random.Random(8)))):
        path = tmp_path / f"{name}.ot"
        path.write_text(serialize(p))
        code, out, _ = run(capsys, "audit", "-p", str(path), "--privacy-ot")
        assert (code, out) == (3, OT_AUDIT_STDOUT[name])


@pytest.mark.parametrize("argv", [["exec", "-x", "0", "-y", "1", "--exact"]])
def test_limit_checked_before_enumeration(capsys, tmp_path, monkeypatch, argv):
    path = tmp_path / "nine.nlb"
    path.write_text(serialize(random_ordered(1, 1, 9, random.Random(9))))
    monkeypatch.setenv("NLBOX_LIMIT_T", "8")
    code, out, err = run(capsys, argv[0], "-p", str(path), *argv[1:])
    assert (code, out) == (4, "")
    assert err.count("\n") == 1 and err.startswith("resource limit: 2^9 ")


@pytest.mark.parametrize("value", ["abc", "", "1e3", "-1"])
def test_limit_that_is_no_nonnegative_integer_is_named(capsys, tmp_path, monkeypatch, value):
    # int() refused the first three without naming the variable, and -1
    # was taken as a limit that no enumeration passes
    path = tmp_path / "two.nlb"
    path.write_text(serialize(random_ordered(1, 1, 2, random.Random(2))))
    monkeypatch.setenv("NLBOX_LIMIT_T", value)
    code, out, err = run(capsys, "exec", "-p", str(path), "-x", "0", "-y", "1", "--exact")
    assert (code, out) == (2, "")
    assert err == f"error: NLBOX_LIMIT_T={value!r} is not a nonnegative decimal integer\n"


def test_limit_of_thirty_digits_runs_as_usual(capsys, tmp_path, monkeypatch):
    # the chunk size is capped before 2 is raised to the limit, a power
    # no int holds at 30 digits
    path = tmp_path / "two.nlb"
    path.write_text(serialize(random_ordered(1, 1, 2, random.Random(2))))
    argv = ("exec", "-p", str(path), "-x", "0", "-y", "1", "--exact")
    code, want, _ = run(capsys, *argv)
    monkeypatch.setenv("NLBOX_LIMIT_T", "9" * 30)
    assert code == 0 and run(capsys, *argv)[:2] == (0, want)


def test_nonsignaling_audit_answers_past_the_branch_limit(capsys, tmp_path, monkeypatch):
    # the audit enumerates no branch, so the limit that stops exec --exact
    # on the same file does not apply to it
    path = tmp_path / "nine.nlb"
    path.write_text(serialize(random_ordered(1, 1, 9, random.Random(9))))
    monkeypatch.setenv("NLBOX_LIMIT_T", "8")
    code, out, err = run(capsys, "audit", "-p", str(path), "--nonsignaling")
    assert code == 0 and out.endswith("\ncheck: nonsignaling\naudit: ok\n")


@pytest.mark.parametrize("check", ["--privacy-ot", "--privacy-and"])
def test_audit_rejection_leaves_stdout_empty(capsys, tmp_path, check):
    # an ordered protocol for the OT check; the AND check without -f
    path = tmp_path / "o.nlb"
    path.write_text(serialize(disj_det_protocol(1)))
    _assert_one_line_error(*run(capsys, "audit", "-p", str(path), check))


def test_dispatch_looks_up_module_functions_when_it_runs(capsys, tmp_path, monkeypatch):
    # a tracer wraps these module attributes after nlbox.cli is imported;
    # the commands look them up when they run, so each wrapper is called
    from nlbox import cli, compilers, library
    assert cli.build_parser() is cli.build_parser()
    called = []
    for module, name in ((compilers, "ordered_to_ot"), (compilers, "xor_normalize_general"),
                         (engine, "nonsignaling_audit"), (library, "ip_protocol")):
        def counted(*a, _fn=getattr(module, name), _name=name):
            called.append(_name)
            return _fn(*a)
        monkeypatch.setattr(module, name, counted)
    nlb, circ = tmp_path / "o.nlb", tmp_path / "c.circ"
    nlb.write_text(serialize(disj_det_protocol(1)))
    circ.write_text("circuit 1 1\ninput a 0\ninput b 0\nand 0 1\noutput 2\n")
    for argv in (("compile", "--from", "ordered-to-ot", "-i", str(nlb)),
                 ("compile", "--from", "circuit", "--normalize-xor", "-i", str(circ)),
                 ("audit", "-p", str(nlb), "--nonsignaling"),
                 ("lib", "ip", "-n", "1")):
        assert run(capsys, *argv)[0] == 0
    assert called == ["ordered_to_ot", "xor_normalize_general", "nonsignaling_audit",
                      "ip_protocol"]


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, "nosuchcommand")
    assert code == 1
    code, _, err = run(capsys, "rank")  # missing -f
    assert code == 1


def test_exec_exact_rejects_a_seed(capsys, tmp_path):
    # --seed is read by --samples alone, as -f is by the choices that read it
    path = tmp_path / "p.nlb"
    path.write_text(serialize(ip_protocol(2)))
    code, out, err = run(capsys, "exec", "-p", str(path), "-x", "1", "-y", "2", "--exact",
                         "--seed", "5")
    _assert_one_line_error(code, out, err)
    assert err == "error: --seed applies to --samples only, not --exact\n"


def test_input_hash_is_of_the_file_text_with_lf_line_ends(capsys, tmp_path):
    lf = tmp_path / "lf.nlb"
    assert run(capsys, "lib", "disj-det", "-n", "2", "-o", str(lf))[0] == 0
    data = lf.read_bytes()
    variants = {"crlf": data.replace(b"\n", b"\r\n"), "cr": data.replace(b"\n", b"\r"),
                "lf": data}
    for name, raw in variants.items():
        path = tmp_path / f"{name}.nlb"
        path.write_bytes(raw)
        code, out, _ = run(capsys, "exec", "-p", str(path), "-x", "1", "-y", "2", "--exact")
        assert code == 0 and out.startswith("input-hash: 548c10203c1bded8\n"), name
    # a non-ASCII comment: the hash of the file's UTF-8 text
    text = "# café ✓\n" + data.decode()
    path = tmp_path / "utf8.nlb"
    path.write_bytes(text.encode())
    code, out, _ = run(capsys, "exec", "-p", str(path), "-x", "1", "-y", "2", "--exact")
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert code == 0 and out.startswith(f"input-hash: {digest}\n")
    # a byte that is no UTF-8
    path = tmp_path / "ff.nlb"
    path.write_bytes(data[:40] + b"\xff" + data[40:])
    code, out, err = run(capsys, "exec", "-p", str(path), "-x", "1", "-y", "2", "--exact")
    _assert_one_line_error(code, out, err)
    assert err == ("error: 'utf-8' codec can't decode byte 0xff in position 40: "
                   "invalid start byte\n")


def test_exit_code_usage_samples_without_seed(capsys, tmp_path, ip2_file):
    proto = str(tmp_path / "p.nlb")
    run(capsys, "synth", "-f", ip2_file, "-o", proto)
    code, _, err = run(capsys, "exec", "-p", proto, "-x", "0", "-y", "0",
                       "--samples", "10")
    assert code == 1
    assert "seed" in err


def test_exit_code_validation(capsys, tmp_path, and_file):
    code, _, err = run(capsys, "rank", "-f", str(tmp_path / "missing.tt"))
    assert code == 2
    bad = tmp_path / "bad.tt"
    bad.write_text("1 1\n01\n")  # missing a row
    code, _, err = run(capsys, "rank", "-f", str(bad))
    assert code == 2
    for header in TRUTH_TABLE_BAD_HEADERS:
        bad.write_text(f"{header}\n0\n")
        code, out, err = run(capsys, "rank", "-f", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: header {header!r}") and err.count("\n") == 1
    ip1 = serialize(ip_protocol(1))
    for name, text in (("no-ny.nlb", "protocol parallel-xor nx=1 t=0\n"),
                       ("bare-mix.nlb", "mix\n"),
                       ("empty-mix.nlb", "mix 0 1/1\n" + ip1),
                       ("arabic-indic-nx.nlb", ip1.replace("nx=1", "nx=\u0661"))):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "exec", "-p", str(path), "-x", "0",
                             "-y", "0", "--exact")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    # a step table holding a 2 is refused at load, before the audit
    two = tmp_path / "two.nlb"
    two.write_text(serialize(disj_det_protocol(1)).replace("stepA 0:\n0\n1\n", "stepA 0:\n0\n2\n"))
    code, out, err = run(capsys, "audit", "-p", str(two), "--nonsignaling")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    corr = tmp_path / "zero-den.corr"
    corr.write_text("corr 1 2\n1/0 1/2\n")
    arabic = tmp_path / "arabic-indic.corr"
    arabic.write_text("corr \u0661 1\n1/2\n", encoding="utf-8")
    for argv in (("epsrank", "-f", and_file, "--eps", "1/0"),
                 ("epsrank", "--corr", str(arabic), "--eps", "0"),
                 ("epsrank", "-f", and_file, "--eps", "\u0661/4"),
                 ("epsrank", "-f", and_file, "--eps", "1_0/40"),
                 ("epsrank", "-f", and_file, "--eps", "1/-4"),
                 ("epsrank", "--corr", str(corr), "--eps", "0"),
                 ("epsrank", "-f", "", "--eps", "0"),
                 ("lib", "disj-rand", "--flip", "1/0")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    for tok in ("0", "0x1/2", "1_0/20", "+1/2"):
        corr.write_text(f"corr 1 2\n1/2 {tok}\n")
        code, out, err = run(capsys, "epsrank", "--corr", str(corr),
                             "--eps", "0")
        assert (code, out) == (2, "")
        assert err == f"error: entry {tok!r} is not of the form n/d\n"


def _broken_files() -> dict:
    """{name: (text, stderr)}: a protocol file the parser reads but whose
    rule spans its tables, and the one line the CLI prints for it."""
    ow = serialize(oneway_optimal(ip_table(1)))
    d = disj_det_protocol(1)
    ot = serialize(ordered_to_ot(d))
    gen = serialize(GeneralNlbProtocol(1, 1, 1, (0,), d.step_a, (0,), d.step_b, d.out_a, d.out_b))
    ip1, ip2 = serialize(ip_protocol(1)), serialize(ip_protocol(2))
    bad = "error: invalid protocol: "
    return {
        "msg-too-many": (ow.replace("msg: 0 1", "msg: 0 1 0"),
                         bad + "msg: 3 entries, expected 2: reads future or absent inputs"),
        "msg-out-of-range": (ow.replace("msg: 0 1", "msg: 0 2"),
                             bad + "msg value outside the t-bit message space"),
        "sched-not-permutation": (gen.replace("schedA: 0", "schedA: 1"),
                                  bad + "schedA: not a permutation of box labels"),
        # no randomness leaves Alice's pair rows no width, which the parser sees
        "rweights-empty": (ot.replace("rweights: 1/2 1/2", "rweights:"),
                           "error: bad OT pair row"),
        "rweights-nonpositive": (ot.replace("rweights: 1/2 1/2", "rweights: 1/1 0/1"),
                                 bad + "nonpositive private-randomness weight"),
        "rweights-sum": (ot.replace("rweights: 1/2 1/2", "rweights: 1/2 1/3"),
                         bad + "private-randomness weights do not sum to 1"),
        "mix-sum": (f"mix 2 1/2\n{ip1}mix 2 1/3\n{ip1}",
                    bad + "mixture: weights sum to 5/6, not 1"),
        "mix-kinds": (f"mix 2 1/2\n{ip1}mix 2 1/2\n{ow}",
                      bad + "mixture: components of mixed kinds"),
        "mix-dimensions": (f"mix 2 1/2\n{ip1}mix 2 1/2\n{ip2}",
                           bad + "mixture: components disagree on dimensions or box count"),
    }


@pytest.mark.parametrize("name", sorted(_broken_files()))
def test_rule_the_parser_cannot_see_prints_one_pinned_line(capsys, tmp_path, name):
    text, want = _broken_files()[name]
    path = tmp_path / "bad.nlb"
    path.write_text(text)
    assert run(capsys, "exec", "-p", str(path), "-x", "0", "-y", "0", "--exact") == (
        2, "", want + "\n")


def test_exec_rejects_out_of_range_inputs(capsys, tmp_path):
    proto = str(tmp_path / "ip1.nlb")
    run(capsys, "lib", "ip", "-n", "1", "-o", proto)
    for argv in (("-x", "-1", "-y", "0", "--exact"),
                 ("-x", "5", "-y", "0", "--exact"),
                 ("-x", "0", "-y", "2", "--exact"),
                 ("-x", "1", "-y", "1", "--samples", "-3", "--seed", "1"),
                 ("-x", "1", "-y", "1", "--samples", "0", "--seed", "1")):
        code, out, err = run(capsys, "exec", "-p", proto, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "exec", "-p", proto, "-x", "1", "-y", "1",
                       "--exact")
    assert code == 0 and "p 0 1: 1/2" in out


def _assert_one_line_error(code, out, err, want=2, prefix="error: "):
    assert (code, out) == (want, "")
    assert err.startswith(prefix) and err.count("\n") == 1


_BAD_CIRCUITS = {
    "input-without-bit": "circuit 1 1\ninput a\ninput b 0\nand 0 1\noutput 2",
    "one-operand": "circuit 1 1\ninput a 0\ninput b 0\nand 0\noutput 2",
    "forward-reference": "circuit 1 1\ninput a 0\ninput b 0\nand 0 5\noutput 2",
    "negative-operand": "circuit 1 1\ninput a 0\ninput b 0\nand 0 -1\noutput 2",
    "output-past-last-wire": "circuit 1 1\ninput a 0\ninput b 0\nand 0 1\noutput 9",
    "negative-output": "circuit 1 1\ninput a 0\ninput b 0\nand 0 1\noutput -1",
    "input-bit-past-nx": "circuit 1 1\ninput a 5\ninput b 0\nand 0 1\noutput 2",
    # numbers that int() alone would read: other scripts' digits, signs
    "fullwidth-width": "circuit \uff11 1\ninput a 0\ninput b 0\nand 0 1\noutput 2",
    "arabic-indic-bit": "circuit 1 1\ninput a \u0661\ninput b 0\nand 0 1\noutput 2",
    "negative-width": "circuit -1 1\ninput b 0\noutput 0",
    "signed-operand": "circuit 1 1\ninput a 0\ninput b 0\nand 0 +1\noutput 2",
    "two-token-header": "circuit 1\ninput a 0\ninput b 0\nand 0 1\noutput 2",
    "misspelt-header": "circuits 1 1\ninput a 0\ninput b 0\nand 0 1\noutput 2",
    # the output line is the last: no second output, no gate after it
    "two-outputs": "circuit 1 1\ninput a 0\ninput b 0\noutput 0\nand 0 1\noutput 1",
    "gate-after-output": "circuit 1 1\ninput a 0\ninput b 0\nand 0 1\noutput 2\nand 0 2",
    "no-output": "circuit 1 1\ninput a 0\ninput b 0\nand 0 1",
}


@pytest.mark.parametrize("name", sorted(_BAD_CIRCUITS))
def test_compile_rejects_malformed_circuit(capsys, tmp_path, name):
    circ = tmp_path / "bad.circ"
    circ.write_text(_BAD_CIRCUITS[name] + "\n", encoding="utf-8")
    _assert_one_line_error(*run(capsys, "compile", "--from", "circuit",
                                "-i", str(circ)))


def test_compile_names_an_input_after_a_gate(capsys, tmp_path):
    text = "circuit 1 1\ninput a 0\ninput b 0\nand 0 1\ninput a 0\noutput 2\n"
    with pytest.raises(ValueError, match="^inputs must precede gates$"):
        parse_circuit(text)
    circ = tmp_path / "late-input.circ"
    circ.write_text(text)
    code, out, err = run(capsys, "compile", "--from", "circuit", "-i", str(circ))
    _assert_one_line_error(code, out, err)
    assert err == "error: inputs must precede gates\n"


@pytest.mark.parametrize("name", ["two-outputs", "gate-after-output"])
def test_compile_names_a_line_after_the_output(capsys, tmp_path, name):
    text = _BAD_CIRCUITS[name] + "\n"
    with pytest.raises(ValueError, match="^the output line must be the circuit's last line$"):
        parse_circuit(text)
    circ = tmp_path / "late.circ"
    circ.write_text(text)
    code, out, err = run(capsys, "compile", "--from", "circuit", "-i", str(circ))
    _assert_one_line_error(code, out, err)
    assert err == "error: the output line must be the circuit's last line\n"


@pytest.mark.parametrize("argv, err", [
    (("lib", "disj-det", "-n", "5"), "n must be in 1..4"),
    (("lib", "disj-rand", "-n", "0"), "n must be in 1..4"),
    (("audit", "-p", "{and}", "--privacy-and", "-f", "{ip2}"), "domain mismatch"),
    (("rank", "-f", "{empty}"), "empty truth-table file"),
    (("epsrank", "-f", "{empty}", "--eps", "0"), "empty truth-table file"),
    (("epsrank", "--corr", "{empty}", "--eps", "0"), "empty correlation file")])
def test_validation_errors_print_one_pinned_line(capsys, tmp_path, ip2_file, argv, err):
    files = {"and": tmp_path / "and.nlb", "ip2": ip2_file, "empty": tmp_path / "empty"}
    files["and"].write_text(serialize(and_from_oneway(oneway_optimal(and_table()))))
    files["empty"].write_text("# no header\n\n")
    code, out, got = run(capsys, *(a.format(**files) for a in argv))
    _assert_one_line_error(code, out, got)
    assert got == f"error: {err}\n"


_WIDE_CIRCUITS = {
    # 2^40 inputs of x to enumerate, with one box and with none
    "and-on-40-bit-x": "circuit 40 1\ninput a 39\ninput b 0\nand 0 1\noutput 2",
    "xor-on-40-bit-x": "circuit 40 1\ninput a 39\ninput b 0\nxor 0 1\noutput 2",
    # widths whose 2^width must not be built: 1 << width overflows a
    # C ssize_t, or is a 500 MB integer
    "20-digit-width": "circuit 99999999999999999999 1\ninput a 0\ninput b 0\n"
                      "and 0 1\noutput 2",
    "4e9-bit-x": "circuit 4000000000 1\ninput a 0\ninput b 0\nand 0 1\noutput 2",
}


@pytest.mark.parametrize("name", sorted(_WIDE_CIRCUITS))
def test_compile_circuit_caps_input_width(capsys, tmp_path, name):
    circ = tmp_path / "wide.circ"
    circ.write_text(_WIDE_CIRCUITS[name] + "\n")
    _assert_one_line_error(*run(capsys, "compile", "--from", "circuit",
                                "-i", str(circ)),
                           want=4, prefix="resource limit: ")


def test_compile_circuit_caps_box_count(capsys, tmp_path, monkeypatch):
    # each AND of two leaf inputs costs one box; box i's tables span
    # 2^(1 + i) entries, the output tables of all four 2^(1 + 4)
    circ = tmp_path / "chain.circ"
    circ.write_text("circuit 1 1\ninput a 0\ninput b 0\n"
                    + "and 0 1\n" * 4 + "output 5\n")
    monkeypatch.setenv("NLBOX_LIMIT_T", "5")
    code, out, _ = run(capsys, "compile", "--from", "circuit", "-i", str(circ))
    assert code == 0 and "boxes: 4" in out
    # XOR normalization adds two boxes, so its tables span 2^(1 + 4 + 2)
    _assert_one_line_error(*run(capsys, "compile", "--from", "circuit",
                                "--normalize-xor", "-i", str(circ)),
                           want=4, prefix="resource limit: ")
    monkeypatch.setenv("NLBOX_LIMIT_T", "7")
    code, out, _ = run(capsys, "compile", "--from", "circuit", "-i", str(circ))
    assert code == 0 and "boxes: 4" in out
    code, out, _ = run(capsys, "compile", "--from", "circuit", "--normalize-xor",
                       "-i", str(circ))
    assert code == 0 and "boxes: 6" in out
    monkeypatch.setenv("NLBOX_LIMIT_T", "4")
    _assert_one_line_error(*run(capsys, "compile", "--from", "circuit",
                                "-i", str(circ)),
                           want=4, prefix="resource limit: ")


def test_compile_resource_caps_exit_4(capsys, tmp_path, monkeypatch):
    # a two-way tree deeper than 8, and an AND compile whose 2^(nx + 2^t)
    # output cells pass NLBOX_LIMIT_T, are refused before anything is built
    deep, ow = tmp_path / "deep.nlb", tmp_path / "ow.nlb"
    deep.write_text(serialize(random_protocol("twoway", 1, 1, 9, random.Random(9))))
    ow.write_text(serialize(oneway_optimal(ip_table(2))))
    assert run(capsys, "compile", "--from", "twoway", "-i", str(deep)) == (
        4, "", "resource limit: tree depth 9 exceeds the 8 limit\n")
    monkeypatch.setenv("NLBOX_LIMIT_T", "5")
    assert run(capsys, "compile", "--from", "and-from-oneway", "-i", str(ow)) == (
        4, "", "resource limit: 2^6 branch enumeration exceeds the t<=5 limit\n")


def test_rt_argument_checks(capsys):
    for dim, trials in (("0", "10"), ("2", "10"), ("3", "0"), ("3", "-5")):
        _assert_one_line_error(*run(capsys, "rt", "--dim", dim, "--trials",
                                    trials, "--seed", "1"))
    _assert_one_line_error(*run(capsys, "rt", "--dim", "3", "--trials",
                                "1000000", "--seed", "1"),
                           want=4, prefix="resource limit: ")
    code, out, _ = run(capsys, "rt", "--dim", "3", "--trials", "10",
                       "--seed", "1")
    assert code == 0 and "coupled-violations: 0" in out


def test_exit_code_audit_failure(capsys, tmp_path):
    from fractions import Fraction
    from nlbox.protocols import OtProtocol
    from nlbox.serialize import serialize
    half = Fraction(1, 2)
    biased = OtProtocol(
        1, 1, 1, (half, half),
        ((((0, 0), (0, 0)), ((0, 0), (0, 0))),),
        (((0,), (1,)),),
        ((0, 0), (0, 0)), ((0, 0), (0, 0)))
    path = tmp_path / "biased.ot"
    path.write_text(serialize(biased))
    code, out, _ = run(capsys, "audit", "-p", str(path), "--privacy-ot")
    assert code == 3
    assert "audit: FAIL" in out


def test_exit_code_resource_limit(capsys, tmp_path, monkeypatch):
    from nlbox.compilers import synth_rank
    from nlbox.serialize import serialize
    from util import xor_as_parallel
    p = xor_as_parallel(synth_rank(ip_table(3)))
    path = tmp_path / "wide.nlb"
    path.write_text(serialize(p))
    monkeypatch.setenv("NLBOX_LIMIT_T", "2")
    code, _, err = run(capsys, "exec", "-p", str(path), "-x", "0", "-y", "0",
                       "--exact")
    assert code == 4
    assert "resource limit" in err


def test_sweep_prints_its_four_lines(capsys):
    # the acceptance suite checks each of the 65,536 functions through the
    # protocol path; here the command's own four lines are pinned, with its
    # wall time shown
    from nlbox.cli import _HANDLERS
    assert "sweep" in _HANDLERS
    started = time.monotonic()
    code, out, _ = run(capsys, "sweep")
    elapsed = time.monotonic() - started
    assert code == 0
    assert out == ("functions: 65536\nrank-mismatches: 0\n"
                   "inexact-protocols: 0\nmax-boxes: 4\n")
    with capsys.disabled():
        print(f"[sweep] nlbox sweep in-process: {elapsed:.1f}s")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of stdout, then of the written .nlb text, for seeded 6x6 tables
# (util.random_table(6, 6, random.Random(seed))); 61 and 63 need 64 boxes
# for both methods, 62 has rank 63
SYNTH_GOLDEN = {
    (61, "rank"): "d195b90a481cb07a2d695d9505bee19879f8e1819d96309a5477493ff8cd8e27",
    (61, "vandam"): "b676698c22fae37f9e225750bdc213a2b10972eb54ecec4c9dcb4069068b3dc1",
    (62, "rank"): "b6219ca94b5eb037551cd5e8152268e8d07de4d0103906718c1480a5ddeb0174",
    (62, "vandam"): "ef7fd74d100974925773c7ca0082a7e5fb467834e9dbaf87f04b319daea77bf2",
    (63, "rank"): "b12e59365a868c174fddcaa2ef53359f73d40d1a15c6fb4ca5d715bb998941ae",
    (63, "vandam"): "88abd7f2ce9224fd8f35ba88a736a37e629131d74d84b6e8ac3152012db4f1d2",
}


@pytest.mark.parametrize("seed,method", sorted(SYNTH_GOLDEN))
def test_synth_6x6_output_is_pinned(capsys, tmp_path, seed, method):
    table, proto = tmp_path / "f.tt", tmp_path / "f.nlb"
    table.write_text(format_truth_table(random_table(6, 6, random.Random(seed))))
    code, out, _ = run(capsys, "synth", "-f", str(table), "--method", method,
                       "-o", str(proto))
    assert code == 0 and out.endswith("worst-error: 0/1\n")
    assert _sha(out + proto.read_text()) == SYNTH_GOLDEN[seed, method]


# sha256 of stdout; without -o it ends with the protocol text
LIB_GOLDEN = {
    ("ip", "-n", "4"): "b72c65f4b5ff46131e923c3b04a4deda0c1ab653ae07b4a1e4088836f38e2cd6",
    ("disj-rand", "-n", "3"): "8798d25acb26d42fcec4d19e16422fefca178fd1446bb130b6896a4f122f3e8e",
    ("disj-rand", "-n", "4"): "616eca81a2c37d68f92d3e19bfc8c70d7a822e7fccb247e77dc6d23a6aac95b6",
    ("chsh",): "8c20f58d79c932722501c05b2561556e849a1bfa00455c50450b21398fa1d3b4",
}


@pytest.mark.parametrize("argv", sorted(LIB_GOLDEN))
def test_lib_output_is_pinned(capsys, argv):
    code, out, _ = run(capsys, "lib", *argv)
    assert code == 0
    assert _sha(out) == LIB_GOLDEN[argv]


# small valid inputs; every command below runs in milliseconds on them
_FUZZ_FILES = {
    "t.tt": format_truth_table(ip_table(1)),
    "c.corr": "corr 2 3\n1/2 0/1 1/1\n1/3 3/4 1/1\n",
    "p.nlb": serialize(ip_protocol(1)),
    "o.nlb": serialize(disj_det_protocol(1)),
    "ot.nlb": serialize(ordered_to_ot(disj_det_protocol(1))),
    "ow.nlb": serialize(oneway_optimal(ip_table(1))),
    "and.nlb": serialize(and_from_oneway(oneway_optimal(ip_table(1)))),
    "c.circ": "circuit 1 1\ninput a 0\ninput b 0\nand 0 1\nnot 2\noutput 3\n",
}

_FUZZ_COMMANDS = [
    "epsrank -f t.tt --eps 1/4 --tmax 2",
    "epsrank --corr c.corr --eps 0",
    "rank -f t.tt",
    "synth -f t.tt --method vandam -o s.nlb",
    "exec -p p.nlb -x 1 -y 0 --exact",
    "exec -p ot.nlb -x 0 -y 1 --samples 5 --seed 3",
    "audit -p o.nlb --nonsignaling",
    "audit -p ot.nlb --privacy-ot",
    "audit -p and.nlb --privacy-and -f t.tt",
    "compile --from circuit -i c.circ -o k.nlb",
    "compile --from ordered-to-ot -i o.nlb",
    "compile --from oneway -i ow.nlb --normalize-xor",
    "rt --dim 3 --trials 5 --seed 1",
]

# argument tokens: values at and past the edges of their ranges, other
# commands' flags and files; nothing that sweeps or builds large tables
_ARG_TOKENS = st.sampled_from(
    ["", "0", "1", "-1", "2", "3", "7", "1/2", "1/0", "-1/4", "x", "0x1",
     "1_0", "+1", "--exact", "--seed", "--samples", "--eps", "--tmax", "-x",
     "-o", "-f", "-i", "--corr", "--from", "circuit", "oneway", "twoway",
     "--nonsignaling", "--normalize-xor", "rank", "epsrank", "exec", "audit",
     "compile", "rt", "synth", *_FUZZ_FILES, "missing.nlb"])


@st.composite
def _mutated_argv(draw, argv: list[str]) -> list[str]:
    """argv with up to two tokens replaced, deleted or inserted."""
    argv = list(argv)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        op = draw(st.sampled_from(("replace", "delete", "insert")))
        if op == "insert" or i == len(argv):
            argv.insert(i, draw(_ARG_TOKENS))
        elif op == "delete":
            del argv[i]
        else:
            argv[i] = draw(_ARG_TOKENS)
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_with_documented_codes(data):
    """Mutated arguments and input files: an exit code in 0..4, never a
    traceback, and one stderr line (besides wall-time) on codes 1, 2, 4;
    an audit failure (3) reports on stdout."""
    argv = data.draw(_mutated_argv(data.draw(st.sampled_from(_FUZZ_COMMANDS)).split()))
    target = data.draw(st.sampled_from([a for a in argv if a in _FUZZ_FILES]
                                       or sorted(_FUZZ_FILES)))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in _FUZZ_FILES.items():
                with open(name, "w") as fh:
                    fh.write(data.draw(mutated(text)) if name == target else text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = dispatch(argv)
        finally:
            os.chdir(cwd)
    lines = [ln for ln in err.getvalue().splitlines()
             if not ln.startswith("wall-time:")]
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert len(lines) == (1 if code in (1, 2, 4) else 0), lines
