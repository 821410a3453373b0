import gc
import hashlib
import importlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import FunctionType

import pytest

from popfock import cli, clbasis, fock, gtpattern, pop, translate
from popfock.cli import (UsageError, _KeyIndex, _bracket_terms, _scaled,
                         bracket_expected, main, parse_config, run)
from popfock.rootdata import (all_roots, bilinear, simple_root, theta,
                              zero_weight)
import oracles
from test_acceptance import C03_ARGV

ROOT = Path(__file__).resolve().parents[1]
# the environment of a child interpreter that imports popfock from src/
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_parse_examples():
    cfg = parse_config(["verify", "stability", "--r", "2",
                        "--lambda", "2,1,0", "--kmax", "2"])
    assert cfg.command == "verify" and cfg.suite == "stability"
    assert cfg.r == 2 and cfg.lam == (2, 1, 0) and cfg.kmax == 2
    cfg = parse_config(["enumerate", "pops", "--lambda", "2,0", "--depth", "1"])
    assert cfg.command == "enumerate" and cfg.suite == "pops"
    assert cfg.depth == 1


POP_JSON = '{"rows": [[1], [2, 0]]}'
BAD_INPUT = [
    "enumerate pops --lambda 1,2,0", "enumerate pops --lambda 2,1",
    "enumerate pops --r 1 --lambda 2,1,0", "enumerate patterns --r 2",
    "enumerate colored --m -1", "verify stability --r 0",
    "verify stability --kmax -1", "verify dims --r 2 --sector 5",
    "verify basis --r 2 --gamma x,1", "verify basis --gamma 1,x",
    "dump vector", "dump vector --pop {bad", "dump vector --pop [",
    "dump vector --pop '%s' --k -1" % POP_JSON,
    "dump vector --pop '%s' --k -3" % POP_JSON,
    """dump vector --pop '{"rows": [[1.5], [2, 0]]}'""",
    """dump vector --pop '{"rows": [[true], [2, 0]]}'""",
    """dump vector --pop '{"rows": [[1],[2,0]], "overlay": {"1,1": [1.7]}}'""",
]


def test_parse_usage_errors():
    for argv in BAD_INPUT:
        with pytest.raises(UsageError):
            parse_config(shlex.split(argv))
    assert main(["dump", "cocycle", "--r", "2", "--cocycle-table"]) == 2
    with pytest.raises(SystemExit):
        parse_config(["verify", "nosuchsuite"])


def test_runconfig_validation():
    # each bound of the run config holds at its edge: r >= 1, kmax >= 0 and
    # 0 <= sector <= r are accepted, one step past each is bad input
    cfg = parse_config(["verify", "stability", "--r", "1", "--kmax", "0"])
    assert cfg.r == 1 and cfg.kmax == 0
    assert parse_config(["verify", "dims", "--r", "2", "--sector", "2"]
                        ).sectors == [2]
    assert parse_config(["verify", "dims", "--r", "2", "--sector", "0"]
                        ).sectors == [0]
    for argv in ["verify stability --r 0", "verify stability --kmax -1",
                 "verify dims --r 2 --sector 3",
                 "verify dims --r 2 --sector -1"]:
        with pytest.raises(UsageError):
            parse_config(shlex.split(argv))


def test_bad_input_leaves_out_unopened(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    path.write_text("kept\n")
    for argv in BAD_INPUT:
        assert main(shlex.split(argv) + ["--out", str(path)]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert path.read_text() == "kept\n"


def _cli_row(flags, defaults):
    """A row of the README's CLI table as {flag: default}."""
    values = {f: int(n) for f, n in re.findall(r"`(--\w+) (\d+)`", defaults)}
    return {f: "required" if required else values.get(f)
            for f, required in re.findall(r"`(--\w+)`( \(required\))?", flags)}


# The README's CLI table, {command: {flag it reads besides --out: default}},
# and a value each flag parses.
READS = {command: _cli_row(flags, defaults) for command, flags, defaults
         in re.findall(r"^\| (\w+ \w+) \| (.*) \| (.*) \|$",
                       (ROOT / "README.md").read_text(), re.M)}
VALUES = {"--r": "1", "--lambda": "1,0", "--kmax": "0", "--depth": "0",
          "--sector": "0", "--gamma": "0", "--m": "0", "--pop": POP_JSON,
          "--k": "0", "--out": "report.jsonl"}
UNREAD_PAIRS = [(command, flag) for command, reads in READS.items()
                for flag in VALUES if flag not in [*reads, "--out"]]


def test_read_flags_are_accepted():
    assert READS == {"%s %s" % (command, suite): reads
                     for command, suites in cli.COMMANDS.items()
                     for suite, reads in suites.items()}
    assert sum(len(reads) + 1 for reads in READS.values()) == 51  # --out too
    for command, reads in READS.items():
        need = [flag for flag, d in reads.items() if d == "required"]
        argv = command.split() + [w for f in need for w in (f, VALUES[f])]
        # each default is the value a run gets without the flag
        cfg = parse_config(argv)
        assert all(getattr(cfg, cli.FLAGS[flag][0]) == d
                   for flag, d in reads.items() if d != "required")
        for flag in [*reads, "--out"]:
            parse_config(argv + [flag, VALUES[flag]])


@pytest.mark.parametrize("command,flag", UNREAD_PAIRS)
def test_unread_flag_is_a_usage_error(command, flag, capsys):
    assert main(command.split() + [flag, VALUES[flag]]) == 2
    assert capsys.readouterr().err.split()[-1] == flag


def test_internal_error_exits_3(monkeypatch, capsys):
    kernel = fock._block_kernel

    def faulty(alpha_lat, expos, modes):
        den, image = kernel(alpha_lat, expos, modes)
        return 11 * den, image  # 11 divides no (emax + 4)! here

    monkeypatch.setattr(fock, "_block_kernel", faulty)
    assert main(["verify", "brackets", "--r", "1", "--depth", "1"]) == 3
    (line,) = capsys.readouterr().out.splitlines()
    error = json.loads(line)
    assert error["status"] == "error" and error["error"] == "ArithmeticError"
    assert "does not divide" in error["message"]


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="reads the process size from /proc")
def test_out_of_memory_exits_3():
    # the run holds its whole colored-partition list, about 108 MiB; the
    # child, and only it, may grow by 48 MiB
    script = """if 1:
        import resource, sys
        from popfock import cli
        size = int(open("/proc/self/statm").read().split()[0])
        limit = size * resource.getpagesize() + (48 << 20)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        sys.exit(cli.main(["enumerate", "colored", "--r", "4", "--m", "14"]))"""
    child = subprocess.run([sys.executable, "-c", script], env=CHILD_ENV,
                           capture_output=True, text=True)
    assert child.returncode == 3 and json.loads(child.stdout) == {
        "error": "MemoryError", "message": "", "status": "error"}


def test_closed_stdout_exits_141_quietly():
    # the reports (about 1 MB) outgrow the pipe, so the child is still
    # writing when the reader closes its end after one line
    child = subprocess.Popen(
        [sys.executable, "-m", "popfock.cli", "enumerate", "pops",
         "--lambda", "6,4,2,0"], env=CHILD_ENV,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert json.loads(child.stdout.readline())["rows"][-1] == [6, 4, 2, 0]
    child.stdout.close()
    assert child.wait(timeout=60) == 141
    assert child.stderr.read() == b""
    child.stderr.close()


def test_collapse_catches_a_sign_fault(monkeypatch):
    # blocks with d = 3 negated; blocks with d = 4 doubled, which only the
    # comparison with the reference instance sees
    word = clbasis.apply_word
    for d, c, depth, reason in ((3, -1, "2", None),
                                (4, 2, "4", "depends on d or d'")):
        def faulty(factors, v, d=d, c=c):
            factors = list(factors)
            w = word(factors, v)
            return c * w if sum(m for _, _, m in factors) == d else w

        monkeypatch.setattr(clbasis, "apply_word", faulty)
        status, lines = run(parse_config(["verify", "collapse", "--r", "1",
                                          "--depth", depth]))
        reports = [json.loads(line) for line in lines]
        bad = [rep["witness"] for rep in reports if rep["status"] == "fail"]
        assert status == 1 and len(reports) == 2
        assert bad and all(rep["check"] == "crucprop" for rep in bad)
        assert reason is None or [rep["witness"]["reason"]
                                  for rep in bad] == [reason] * 2


def test_suites_catch_sign_eps_faults(monkeypatch):
    # a sign that ignores the shift k breaks stability and the k-independence
    # of the intermediate form; one flipped when d_{1,1} is odd breaks every
    # stable basis
    sign = clbasis.sign_eps
    no_shift = lambda P, k=0, s=1: sign(P, 0, s)
    odd_flip = lambda P, k=0, s=1: sign(P, k, s) * (-1) ** P.d(1, 1)
    for fault, suite, n_fail, n in ((no_shift, "stability", 17, 20),
                                    (odd_flip, "basis", 18, 18),
                                    (no_shift, "mtp", 52, 120)):
        with monkeypatch.context() as patch:
            patch.setattr(clbasis, "sign_eps", fault)
            status, lines = run(parse_config(["verify", suite, "--r", "2"]))
        reports = [json.loads(line) for line in lines]
        bad = [rep for rep in reports if rep["status"] != "pass"]
        assert status == 1 and len(reports) == n and len(bad) == n_fail
        if suite == "mtp":
            assert {rep["witness"]["reason"] for rep in bad} == {"depends on k"}


def test_bracket_terms_rank2():
    # [x_al, x_be] as (root terms, Cartan coefficients on alpha_1, alpha_2)
    a1, a2, th = simple_root(2, 1), simple_root(2, 2), theta(2)
    cases = [(a1, -a1, [], [1, 0]), (a1, a2, [(th, 1)], [0, 0]),
             (a2, a1, [(th, -1)], [0, 0]), (th, -th, [], [1, 1]),
             (a1, th, [], [0, 0]), (-a2, a1, [], [0, 0])]
    for al, be, roots, cartan in cases:
        assert _bracket_terms(al, be) == (roots, cartan)


def test_identities_catches_faults(monkeypatch, capsys):
    # each fault breaks one check of verify identities: at the first POP of
    # (1, 0), d(P) one too large (area identity), d(P_1) one too large (depth
    # recursion) and the overlay half of I^j_s emptied (invariant
    # recursion); the pattern half of I^j_s without its nonzero d' entries,
    # first seen on the third pattern of (2, 1, 0); and the overlay half
    # without its nonempty partitions, first seen on the second POP of a
    # pattern of (2, 0), so that the overlay half is checked on every POP
    depth, depth_total = pop.depth, pop.depth_total
    pattern_slice, overlay_slice = (pop.pattern_invariant_slice,
                                    pop.overlay_invariant_slice)

    def restricted_off(P):
        out = depth(P)
        out["restricted"][1] += 1
        return out

    def nonzero_dprime_dropped(pattern, s, j):
        sl = pattern_slice(pattern, s, j)
        return dict(sl, dprime={c: v for c, v in sl["dprime"].items() if not v})

    def nonempty_dropped(P, s, j):
        return {c: pi for c, pi in overlay_slice(P, s, j).items()
                if not pi.size()}

    first = {"rows": [[0], [1, 0]], "overlay": {"1,1": []}}
    diag = "{'trap': 0, 'tri_plus_depth': 1, 'norm_half_diff': Fraction(0, 1)}"
    faults = (
        ("depth_total", lambda P: depth_total(P) + 1, "1,0", 1,
         {"pop": first, "diag": diag}),
        ("depth", restricted_off, "1,0", 1,
         {"pop": first, "s": 1, "reason": "depth recursion"}),
        ("overlay_invariant_slice", lambda P, s, j: {}, "1,0", 1,
         {"pop": first, "s": 1, "reason": "invariant recursion"}),
        ("pattern_invariant_slice", nonzero_dprime_dropped, "2,1,0", 3,
         {"pop": {"rows": [[1], [1, 1], [2, 1, 0]],
                  "overlay": {"1,1": [], "1,2": [], "2,2": []}},
          "s": 1, "reason": "invariant recursion"}),
        ("overlay_invariant_slice", nonempty_dropped, "2,0", 3,
         {"pop": {"rows": [[1], [2, 0]], "overlay": {"1,1": [1]}},
          "s": 1, "reason": "invariant recursion"}))
    for name, fault, lam, n_checked, witness in faults:
        with monkeypatch.context() as patch:
            patch.setattr(pop, name, fault)
            assert main(["verify", "identities", "--lambda", lam]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        report = json.loads(line)
        assert report["status"] == "fail" and report["witness"] == witness
        assert report["input"]["pops"] == n_checked
    # the overlay fault's witness is not the first POP of its pattern
    pops = list(pop.iter_pops((2, 0)))
    assert [P.pattern.rows for P in pops[1:3]] == [((1,), (2, 0))] * 2


def test_translate_catches_faults(monkeypatch, capsys):
    # each fault breaks one law first, named by the witness: d = 1 for every
    # T_beta (inverse), a root vector negated at s = 1 (conjugation),
    # comp_eps negated (composition), alpha_a(0) doubled (Cartan zero mode),
    # alpha_a(n) for n != 0 signed by the parity of the first lattice entry
    # (Heisenberg), and T_x and T_x^-1 both negated off Q, which only the
    # vacuum transport sees
    act, heis = fock.act_root_vector, fock.act_heisenberg
    comp = translate.Cocycle.comp_eps
    negated = lambda al, s, v: -act(al, s, v) if s == 1 else act(al, s, v)
    doubled = lambda a, n, v: 2 * heis(a, n, v) if n == 0 else heis(a, n, v)
    off_q = lambda T: lambda x, v: -T(x, v) if x.class_index() else T(x, v)

    def parity(a, n, v):
        w = heis(a, n, v)
        return w if n == 0 else fock.FockVector(w.r, w.sector, {
            k: c * (-1) ** k.gamma.lattice_rep()[0] for k, c in w.terms.items()})

    faults = (
        ([(translate, "_d_sign_lat", lambda lat: 1)],
         lambda a1, z: {"prop": "inverse", "x": a1}),
        ([(fock, "act_root_vector", negated)],
         lambda a1, z: {"prop": "conjugation", "x": -a1, "root": a1, "s": 1}),
        ([(translate.Cocycle, "comp_eps", lambda coc, x, y: -comp(coc, x, y))],
         lambda a1, z: {"prop": "composition", "x": z, "alpha": a1, "d": 0}),
        ([(fock, "act_heisenberg", doubled)],
         lambda a1, z: {"prop": "cartan zero mode", "beta": a1, "a": 1}),
        ([(fock, "act_heisenberg", parity)],
         lambda a1, z: {"prop": "heisenberg", "beta": a1, "a": 1, "n": -2}),
        ([(cli, "translate_amount", off_q(cli.translate_amount)),
          (cli, "translate_amount_inverse",
           off_q(cli.translate_amount_inverse))],
         lambda a1, z: {"prop": "vacuum transport", "i": 1}))
    for patches, witness in faults:
        with monkeypatch.context() as patch:
            for module, name, fault in patches:
                patch.setattr(module, name, fault)
            for r in (1, 2):
                assert main(["verify", "translate", "--r", str(r)]) == 1
                (line,) = capsys.readouterr().out.splitlines()
                report = json.loads(line)
                want = witness(simple_root(r, 1), zero_weight(r))
                assert report["status"] == "fail"
                assert report["witness"] == {
                    k: v.to_json() if hasattr(v, "to_json") else v
                    for k, v in want.items()}


def test_basis_bound_violation_is_a_failed_report(monkeypatch, capsys):
    # unshifted POP sets break the diagonal bound d_{l,l} >= k
    monkeypatch.setattr(pop, "theta", zero_weight)
    assert main(["verify", "basis", "--r", "1", "--depth", "1"]) == 1
    out = capsys.readouterr().out
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 8
    bad = [rep["witness"] for rep in reports if rep["status"] == "fail"]
    assert bad and all(w["reason"] == "diagonal bound" and w["pop"]
                       and w["bad_diagonals"] for w in bad)


def test_unwritable_out_is_bad_input_before_the_run(monkeypatch, capsys,
                                                    tmp_path):
    monkeypatch.setattr("popfock.cli.run", None)  # the run must not start
    path = tmp_path / "nodir" / "x.txt"
    assert main(["dump", "cocycle", "--r", "1", "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot write --out")


def test_rank_inferred_from_input():
    assert parse_config(["enumerate", "patterns", "--lambda", "2,1,0"]).r == 2
    assert parse_config(["verify", "basis", "--gamma", "1,0,0"]).r == 3


def test_readme_examples_run():
    readme = (ROOT / "README.md").read_text()
    examples = [shlex.split(line, comments=True)[1:]
                for line in readme.splitlines() if line.startswith("popfock ")]
    assert len(examples) == 10
    # the README's bracket sweep is c03, which the acceptance suite runs
    assert C03_ARGV in examples
    for argv in examples:
        if argv != C03_ARGV:
            assert main(argv) == 0, argv


def test_run_starts_with_cold_caches():
    small = ["verify", "basis", "--r", "1", "--depth", "1"]
    memos = (fock._creation_terms, fock._alternant_coeffs, fock._schur_terms)

    def sizes():
        return (len(fock._ROOT_ACTION_CACHE),
                *(memo.cache_info().currsize for memo in memos))

    first = run(parse_config(small))
    cold = sizes()
    assert all(cold)
    # the bracket sweep keeps its translation classes in a table of its own
    run(parse_config(["verify", "brackets", "--r", "1", "--depth", "1"]))
    assert not fock._ROOT_ACTION_CACHE
    assert run(parse_config(small)) == first
    run(parse_config(["verify", "basis", "--r", "1", "--depth", "2"]))
    assert run(parse_config(small)) == first
    assert sizes() == cold
    # the cache holds one integer image per translation class
    # (root, ((s + (root|gamma), m), ...), modes)
    for (alpha_lat, expos, modes), (den, image) in (
            fock._ROOT_ACTION_CACHE.items()):
        assert type(alpha_lat) is tuple and type(modes) is tuple
        assert all(type(s) is int and type(m) is int for s, m in expos)
        assert type(den) is int
        assert all(type(m) is tuple and type(c) is int
                   for m, c in image.items())


def _first_slow_bracket_failure(r, i, emax):
    """The first failing bracket instance found by fock.act_root_vector and
    bracket_expected on unit vectors, in the sweep's loop order."""
    keys = fock.enumerate_keys(r, i, emax)
    roots = all_roots(r)
    act = fock.act_root_vector
    for al, be in itertools.product(roots, roots):
        for s1, s2 in itertools.product(range(-2, 3), repeat=2):
            for key in keys:
                v = fock.FockVector(r, i, {key: 1})
                lhs = (act(al, s1, act(be, s2, v))
                       - act(be, s2, act(al, s1, v)))
                if lhs != bracket_expected(al, be, s1, s2, v):
                    return {"al": al.to_json(), "be": be.to_json(),
                            "s1": s1, "s2": s2, "key": repr(key)}
    return None


def test_bracket_sweep_fault_matches_slow_path(monkeypatch):
    # the kernel sees the exponent shifted by (alpha|gamma): the fault
    # flips the sign of every single factor whose shifted exponent is 1
    kernel = fock._block_kernel

    def faulty(alpha_lat, expos, modes):
        den, image = kernel(alpha_lat, expos, modes)
        flip = expos == ((1, 1),)
        return den, ({m: -c for m, c in image.items()} if flip else image)

    def oracle_faulty(alpha, s, v):
        out = fock.zero_vector(v.r, v.sector)
        for key, c in v.terms.items():
            w = oracles.act_root_vector(
                alpha, s, fock.FockVector(v.r, v.sector, {key: c}))
            out = out + (-w if s + bilinear(alpha, key.gamma) == 1 else w)
        return out

    monkeypatch.setattr(fock, "_block_kernel", faulty)
    status, lines = run(parse_config(
        ["verify", "brackets", "--r", "2", "--depth", "1"]))
    reports = [json.loads(line) for line in lines]
    assert status == 1 and len(reports) == 3
    # the slow path runs on the Fraction oracle with the same fault
    monkeypatch.setattr(fock, "act_root_vector", oracle_faulty)
    for rep in reports:
        assert rep["status"] == "fail"
        assert rep["witness"] == _first_slow_bracket_failure(
            2, rep["input"]["sector"], 1)


def test_bracket_sweep_rejects_a_foreign_denominator():
    key = ((0, 0), ())
    assert _scaled((3, {key: 5}), 6, _KeyIndex()) == {0: 10}
    with pytest.raises(ArithmeticError):
        _scaled((7, {key: 1}), 6, _KeyIndex())


@pytest.mark.parametrize("argv,module,name,n", [
    ("verify weights --r 2", clbasis, "cl_vector", 44),
    ("verify mtp --r 1", clbasis, "_mtp_side", 42),
    ("verify collapse --r 1 --depth 2", clbasis, "_crucprop_collapsed", 56),
    ("verify translate --r 1", cli, "translate_amount", 104),
    # 8 patterns of (2,1,0) carry its 9 POPs; I(P_s) for s = 1, 2, 3, its
    # pattern half per pattern and its overlay half per POP
    ("verify identities --r 2 --lambda 2,1,0", gtpattern, "stats", 8),
    ("verify identities --r 2 --lambda 2,1,0", pop, "pattern_invariant_set",
     24),
    ("verify identities --r 2 --lambda 2,1,0", pop, "overlay_invariant_set",
     27),
], ids=["weights", "mtp", "collapse", "translate", "identities-patterns",
        "identities-invariant-sets", "identities-overlay-sets"])
def test_suite_computes_each_value_once(monkeypatch, argv, module, name, n):
    calls = Counter()
    compute = getattr(module, name)

    def counted(*args):
        calls[args] += 1
        return compute(*args)

    monkeypatch.setattr(module, name, counted)
    status, _ = run(parse_config(argv.split()))
    assert status == 0
    assert len(calls) == n and set(calls.values()) == {1}


def test_reports_unchanged_under_optimize():
    # no check may hide behind an assert that python -O strips
    argv = ["-m", "popfock.cli", "verify", "basis", "--r", "2", "--depth", "1"]
    plain, optimized = (
        subprocess.run([sys.executable] + flags + argv, env=CHILD_ENV,
                       check=True, capture_output=True).stdout
        for flags in ([], ["-O"]))
    assert plain and optimized == plain


def test_enumerate_pops_output():
    status, lines = run(parse_config(["enumerate", "pops", "--lambda", "2,0"]))
    assert status == 0 and len(lines) == 4
    objs = [json.loads(line) for line in lines]
    assert all("rows" in o and "overlay" in o for o in objs)
    status, lines = run(parse_config(
        ["enumerate", "pops", "--lambda", "2,0", "--depth", "1"]))
    assert len(lines) == 1


@pytest.mark.parametrize("argv,sha256", [
    ("enumerate pops --lambda 3,2,1,0",
     "05368e32396d4a1ca510483caef540a8828ce99be89c13630a7f6cf4739d6a35"),
    ("enumerate pops --lambda 4,2,1,0 --depth 2",
     "5061d044b5f9125214dd94cf991db599c17f9ea96f81bcbbb475a3134c814a66"),
    ("enumerate colored --r 3 --m 5",
     "06d3926fd68fc4664700ca2eed51c284fad04d67c8375c2c847663ac7d44f7ae"),
    ("verify basis --r 1 --depth 5",
     "0208a39c9cd97a0bfceed09808028b4a881a462529e398b53c994d1cb0cb7507"),
    ("verify basis --r 2 --depth 4",
     "bacd34305aac9e6d4ed662fa8f949fcfad432432339dff4cd954880c6c26e72a"),
], ids=["unfiltered", "depth-filtered", "colored", "basis-r1-depth5",
        "basis-r2-depth4"])
def test_enumerate_pops_order_is_pinned(argv, sha256):
    status, lines = run(parse_config(argv.split()))
    stream = "".join(line + "\n" for line in lines).encode()
    assert status == 0 and hashlib.sha256(stream).hexdigest() == sha256


@pytest.mark.parametrize("argv,sha256", [
    ("verify brackets --r 2 --depth 1 --sector 0",
     "3ad50db0fcc218ee7f1841e821378bf67d47c78b4c37ce6a95fc0894f14c8f68"),
    ("verify basis --r 3 --depth 2 --sector 1",
     "c76b025efdd7237ccde6bc0f29e27ded1abfc413baeae56ad8988444ac712dec"),
    ("verify identities --r 3 --lambda 6,4,2,0",
     "b6eac805a38a5acef40cc1f5f13ebc45898f145d2d4d7ae989d263004cd9b2d2"),
], ids=["brackets", "basis", "identities"])
def test_benchmark_reports_are_pinned(capsys, argv, sha256):
    # the stdout of the three workloads of bench/README.md
    assert main(argv.split()) == 0
    stream = capsys.readouterr().out.encode()
    assert hashlib.sha256(stream).hexdigest() == sha256


def test_benchmark_layer_names_resolve():
    # bench/child.py --trace 1 times the public functions defined in each
    # popfock module (and a few methods); a per-layer name of BENCHMARK.json
    # that no longer resolves is a metric the traced run cannot measure
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    timed = [name.rsplit(".", 1)[0] for name in (m["name"] for m in layers)
             if name.rsplit(".", 1)[1] in ("calls", "s", "self_s")]
    assert timed
    for name in timed:
        module, *path = name.split(".")
        mod = importlib.import_module("popfock." + module)
        owner = getattr(mod, path[0])
        fn = getattr(owner, path[1]) if len(path) == 2 else owner
        assert len(path) <= 2 and not any(p.startswith("_") for p in path)
        assert isinstance(fn, FunctionType), name
        assert owner.__module__ == mod.__name__, name


def test_identities_holds_one_pop_at_a_time(monkeypatch):
    # (4,2,1,0) has 384 POPs; by the 300th check the suite must have let go
    # of the ones it has checked, and made none ahead of the one it checks
    def live_pops():
        return sum(isinstance(obj, pop.POP) for obj in gc.get_objects())

    check, calls, held = pop.area_identity, [], []

    def counted(P):
        calls.append(None)
        if len(calls) == 300:
            held.append(live_pops() - before)
        return check(P)

    monkeypatch.setattr(pop, "area_identity", counted)
    gc.collect()
    before = live_pops()
    status, lines = run(parse_config(
        ["verify", "identities", "--r", "3", "--lambda", "4,2,1,0"]))
    assert status == 0 and json.loads(lines[0])["input"]["pops"] == 384
    assert held and held[0] <= 2


def test_enumerate_patterns_and_colored():
    _, lines = run(parse_config(["enumerate", "patterns", "--lambda", "2,0"]))
    assert len(lines) == 3
    _, lines = run(parse_config(["enumerate", "colored", "--r", "2", "--m", "2"]))
    assert len(lines) == 5


def test_report_determinism():
    argv = ["verify", "weights", "--r", "1", "--lambda", "2,0"]
    out1 = run(parse_config(argv))
    out2 = run(parse_config(argv))
    assert out1 == out2


def test_dump_cocycle_and_vector():
    _, lines = run(parse_config(["dump", "cocycle", "--r", "2"]))
    assert lines[0].startswith("rank=2")
    pop_json = json.dumps({"rows": [[1], [2, 0]], "overlay": {"1,1": [1]}})
    _, lines = run(parse_config(["dump", "vector", "--pop", pop_json]))
    assert lines == ["gamma=0,0 modes=[(1,1)x1] coeff=-1/1"]


def test_out_file(tmp_path):
    path = tmp_path / "report.jsonl"
    status = main(["verify", "stability", "--r", "1", "--lambda", "2,0",
                   "--out", str(path)])
    assert status == 0
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4


def test_every_suite_runs_clean_rank1():
    # the other suites run at r = 1 in tests/test_acceptance.py
    quick = {
        "brackets": ["--depth", "1"],
        "weights": ["--lambda", "2,0"],
        "chain": ["--lambda", "1,0"],
    }
    for suite, extra in quick.items():
        status, lines = run(parse_config(["verify", suite, "--r", "1"] + extra))
        assert status == 0, (suite, lines)
        assert lines
