"""Acceptance suite: the ten exact (tolerance-zero) criteria.

Every criterion runs the `popfock verify` suites with their default
parameters, so the CLI and these tests share one definition of each check.
The tests add what a suite cannot check about itself: the pinned workload
counts and the independent oracles (the local Weyl module dimension and the
colored-partition count).  One summary line is printed per criterion.
"""

import json
import time
from math import comb

from popfock.cli import parse_config, run
from popfock.partitions import colored_partitions

C03_ARGV = ["verify", "brackets", "--r", "2", "--depth", "3"]


def _announce(num, name, t0):
    print("ACCEPTANCE %2d %-24s PASS  (%.1fs)" % (num, name, time.time() - t0))


def _verify(argv):
    """Reports of one `popfock verify` run, each asserted to pass."""
    status, lines = run(parse_config(argv))
    reports = [json.loads(line) for line in lines]
    for rep in reports:
        assert rep["status"] == "pass", rep
    assert status == 0 and reports
    return reports


def _weyl_dim(seq):
    """dim W(lambda) = prod_i C(r+1, i)^{m_i}, m the varpi-coefficients."""
    dim = 1
    for i in range(1, len(seq)):
        dim *= comb(len(seq), i) ** (seq[i - 1] - seq[i])
    return dim


def test_c01_pop_identity_suite():
    t0 = time.time()
    total = 0
    for r in (1, 2, 3):
        for rep in _verify(["verify", "identities", "--r", str(r)]):
            assert rep["input"]["pops"] == _weyl_dim(rep["input"]["lambda"])
            total += rep["input"]["pops"]
    assert total == 723
    _announce(1, "pop identities (%d POPs)" % total, t0)


def test_c02_weight_multiplicities():
    t0 = time.time()
    total = 0
    for r in (1, 2):
        total += len(_verify(["verify", "dims", "--r", str(r)]))
    assert total == 335
    _announce(2, "weight multiplicities (%d)" % total, t0)


def test_c03_bracket_relations():
    t0 = time.time()
    total = sum(rep["input"]["instances"] for rep in _verify(C03_ARGV))
    assert total == 237600
    _announce(3, "bracket relations (%d)" % total, t0)


def test_c04_translation_contract():
    t0 = time.time()
    for r in (1, 2):
        _verify(["verify", "translate", "--r", str(r)])
    _announce(4, "translation contract", t0)


def test_c05_cl_basis_and_weight_law():
    t0 = time.time()
    reports = _verify(["verify", "weights", "--r", "2"])
    counts = [rep["input"]["count"] for rep in reports
              if rep["check"] == "cl_basis_independent"]
    lams = [rep["input"]["lambda"] for rep in reports
            if rep["check"] == "weight_law"]
    assert lams == [[0, 0, 0], [1, 0, 0], [2, 0, 0], [2, 1, 0]]
    assert counts == [_weyl_dim(seq) for seq in lams]
    _announce(5, "basis independence + weights", t0)


def test_c06_chain_inclusion():
    t0 = time.time()
    assert len(_verify(["verify", "chain", "--r", "2"])) == 4
    _announce(6, "chain inclusion", t0)


def test_c07_main_stability():
    t0 = time.time()
    total = sum(len(_verify(["verify", "stability", "--r", str(r)]))
                for r in (1, 2))
    assert total >= 19
    _announce(7, "main stability theorem (%d stable POPs)" % total, t0)


def test_c08_intermediate_form():
    t0 = time.time()
    total = 0
    for r in (1, 2):
        reports = _verify(["verify", "mtp", "--r", str(r)])
        assert {rep["input"]["k"] for rep in reports} == {0, 1}
        total += len(reports)
    _announce(8, "intermediate form (%d)" % total, t0)


def test_c09_single_root_collapse():
    t0 = time.time()
    total = sum(rep["input"]["instances"]
                for r in (1, 2)
                for rep in _verify(["verify", "collapse", "--r", str(r)]))
    assert total == 528
    _announce(9, "single-root collapse (%d)" % total, t0)


def test_c10_stable_bases():
    t0 = time.time()
    total = 0
    for r in (1, 2):
        for rep in _verify(["verify", "basis", "--r", str(r)]):
            d = rep["input"]["d"]
            assert rep["witness"]["size"] == colored_partitions(
                r, d, count_only=True)
            total += 1
    assert total == 30
    _announce(10, "stable bases (%d)" % total, t0)
