"""Acceptance suite: the ten exact (tolerance-zero) criteria.

Every criterion runs the `popfock verify` suites with their default
parameters, so the CLI and these tests share one definition of each check.
The tests add what a suite cannot check about itself: the pinned workload
counts, the independent oracles (the local Weyl module dimension and the
colored-partition count) and the sha256 of each run's report stream, so a
change that moves any report byte shows here.  One summary line is printed
per criterion.
"""

import hashlib
import json
import time
from math import comb

from popfock.cli import parse_config, run
from popfock.partitions import colored_count

C03_ARGV = ["verify", "brackets", "--r", "2", "--depth", "3"]

# sha256 of the stdout of `popfock <argv>`: the report lines, each ending in
# a newline
REPORT_SHA256 = {
    "verify identities --r 1":
        "9424c2f4addb11e0ba717ff1fbfe15299a49d4a33f69553fb7283e6b2930df92",
    "verify identities --r 2":
        "56e7502609137be9ad4f4807fc2097399a7ab5227e8668c92b9d640d5d4711fe",
    "verify identities --r 3":
        "bc74bb3aa5bcbbbaf1365bc0d0aa9ba07146e550c99acb911ecbc40e84eeb362",
    "verify dims --r 1":
        "fcc899fa9ac89e106f13fc75df6f8038fc243d0450c17d24cdbb475a508c3a04",
    "verify dims --r 2":
        "e331794498877e8038e0c0f5166d9e3f2fc420bb25613006d62d743ecfcc5328",
    "verify brackets --r 2 --depth 3":
        "ace24dcc390dc7b06474bc0491adc14c5a53d5caf8013a3372733dcd3133fd86",
    "verify translate --r 1":
        "8488c2580a7e4405799524d93eab88cf8907a3d96d2c85cbeaf3bc828a998a3c",
    "verify translate --r 2":
        "f06c148c7732a804d01a0689493696912c36f81908a80459839c799aa91ac148",
    "verify weights --r 2":
        "9de11c695812a47f8991f8fe756aad4bdf51ee18b944664a03ce10c36d3d6b27",
    "verify chain --r 2":
        "9e2fa8e9a4203ec2d74d5bce03f80312c34e8edb1c458c6fd207726648362a69",
    "verify stability --r 1":
        "307517d8bb135c026ad0b6954ab54107fa1b4630aee81b244cac39854c2d0384",
    "verify stability --r 2":
        "f94c70e3ec9a57de4a12c9147e9c000134435989bb93048869becd49e2c9a66d",
    "verify mtp --r 1":
        "2a30eca49feeed12d990c5583e4f123298d9d0b2b48a3621f89af61126bf767a",
    "verify mtp --r 2":
        "468f73fa1b7e8ca4bb98d0d3515fde9996620eb6ffd0c19631d017cfe0336966",
    "verify collapse --r 1":
        "90571cc9b50c86371c35e5ad4f55513c274fc59cc2bf4a859d4050f314701f84",
    "verify collapse --r 2":
        "f31d4e04b506cc8441f5b3b72a90ef4a9212b313c651741a1a62f90a6532497a",
    "verify basis --r 1":
        "e1b19f307186638eda3954c3199ba048d7d48685a875fbbe513214f8bede6491",
    "verify basis --r 2":
        "8c17d313d859a85fe812788dea45113a16dca313c034bbc65048d2899d4ab637",
}


def _announce(num, name, t0):
    print("ACCEPTANCE %2d %-24s PASS  (%.1fs)" % (num, name, time.time() - t0))


def _verify(argv):
    """Reports of one `popfock verify` run, each asserted to pass, with the
    report stream pinned in REPORT_SHA256."""
    status, lines = run(parse_config(argv))
    reports = [json.loads(line) for line in lines]
    for rep in reports:
        assert rep["status"] == "pass", rep
    assert status == 0 and reports
    stream = "".join(line + "\n" for line in lines).encode()
    assert hashlib.sha256(stream).hexdigest() == REPORT_SHA256[" ".join(argv)]
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
            assert rep["witness"]["size"] == colored_count(r, d)
            total += 1
    assert total == 30
    _announce(10, "stable bases (%d)" % total, t0)
