"""Tests of the benchmark's oracles and report checker.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import unittest
from fractions import Fraction

import oracles

COCYCLE = "0123456789abcdef"


def dumps(rep):
    rep = dict(rep, cocycle=COCYCLE)
    return json.dumps(rep, sort_keys=True)


def stream(reports):
    return "\n".join(dumps(rep) for rep in reports) + "\n"


def brackets_reports():
    return [{"check": "brackets", "status": "pass",
             "input": {"r": 2, "sector": 0, "emax": 1, "instances": 8100}}]


def basis_reports():
    out = []
    r = oracles.BASIS["r"]
    for i, gamma, d in oracles.basis_cases():
        mu = [a + b for a, b in zip(oracles.fundamental_coords(r, i), gamma)]
        mu_plus = sorted(mu, reverse=True)
        lam = [x - mu_plus[-1] for x in mu_plus]
        out.append({"check": "stable_basis", "status": "pass",
                    "input": {"i": i, "d": d, "lambda_seq": lam,
                              "gamma": {"r": r, "coords": list(gamma)}},
                    "witness": {"size": oracles.colored_partition_count(r, d)}})
    return out


def identities_reports():
    return [{"check": "pop_identities", "status": "pass",
             "input": {"r": 3, "lambda": [6, 4, 2, 0], "pops": 9216}}]


class OracleValues(unittest.TestCase):

    def test_colored_partition_counts(self):
        self.assertEqual([oracles.colored_partition_count(1, m)
                          for m in range(8)], [1, 1, 2, 3, 5, 7, 11, 15])
        self.assertEqual([oracles.colored_partition_count(2, m)
                          for m in range(5)], [1, 2, 5, 10, 20])
        self.assertEqual([oracles.colored_partition_count(3, m)
                          for m in range(3)], [1, 3, 9])

    def test_key_counts(self):
        # r = 2, energy <= 2: the origin carries 1 + 2 + 5 keys and each of
        # the six roots (energy 1) carries 1 + 2
        self.assertEqual(oracles.sector_key_count(2, 0, 2), 26)
        self.assertEqual(oracles.sector_key_count(1, 0, 0), 1)
        self.assertEqual(oracles.sector_key_count(1, 1, 0), 2)

    def test_weyl_module_dim(self):
        self.assertEqual(oracles.weyl_module_dim((7, 4, 2, 0)), 36864)
        self.assertEqual(oracles.weyl_module_dim((6, 4, 2, 0)), 9216)
        self.assertEqual(oracles.weyl_module_dim((1, 0)), 2)

    def test_dominance(self):
        self.assertTrue(oracles.dominates((2, 1, 0), (0, 1, 2)))
        self.assertTrue(oracles.dominates((2, 0, 0), (1, 1, 0)))
        self.assertFalse(oracles.dominates((1, 1, 0), (2, 0, 0)))
        self.assertFalse(oracles.dominates((1, 0, 0), (0, 0, 0)))

    def test_rank_mod_prime(self):
        rows = [{"a": Fraction(1, 2), "b": 1}, {"a": 1, "b": 2}, {"c": 3}]
        self.assertEqual(oracles.rank_mod_prime(rows), 2)
        self.assertEqual(oracles.rank_mod_prime(rows[1:]), 2)


class Checker(unittest.TestCase):

    def test_accepts_correct_streams(self):
        for workload, reports in (("brackets", brackets_reports()),
                                  ("basis", basis_reports()),
                                  ("identities", identities_reports())):
            self.assertEqual(oracles.check_stream(workload, stream(reports)),
                             [], workload)

    def test_rejects_fail(self):
        for workload, reports in (("brackets", brackets_reports()),
                                  ("basis", basis_reports()),
                                  ("identities", identities_reports())):
            reports[-1]["status"] = "fail"
            self.assertTrue(oracles.check_stream(workload, stream(reports)),
                            workload)

    def test_rejects_wrong_instances(self):
        reports = brackets_reports()
        reports[0]["input"]["instances"] = 8101
        self.assertTrue(oracles.check_stream("brackets", stream(reports)))

    def test_rejects_wrong_size(self):
        reports = basis_reports()
        reports[5]["witness"]["size"] += 1
        self.assertTrue(oracles.check_stream("basis", stream(reports)))

    def test_rejects_wrong_pops(self):
        reports = identities_reports()
        reports[0]["input"]["pops"] = 9215
        self.assertTrue(oracles.check_stream("identities", stream(reports)))

    def test_rejects_lambda_below_mu(self):
        reports = basis_reports()
        reports[4]["input"]["lambda_seq"] = [0, 0, 0, 0]
        self.assertTrue(oracles.check_stream("basis", stream(reports)))

    def test_rejects_missing_report(self):
        self.assertTrue(oracles.check_stream(
            "basis", stream(basis_reports()[:-1])))

    def test_rejects_unparsable_stream(self):
        self.assertTrue(oracles.check_stream("identities", "{not json\n"))


class BasisVectors(unittest.TestCase):

    def good_sets(self):
        """Independent vectors of the right point and energy for each case."""
        r = oracles.BASIS["r"]
        out = []
        for i, gamma, d in oracles.basis_cases():
            point = oracles.lattice_rep(
                [a + b for a, b in zip(oracles.fundamental_coords(r, i), gamma)],
                i)
            size = oracles.colored_partition_count(r, d)
            # size distinct mode multisets of total degree d: one part (a, d)
            # per direction, plus (a, 1) pairs when d = 2
            modes = [[[a, d]] for a in range(1, r + 1)] if d else [[]]
            if d == 2:
                modes += [[[a, 1], [b, 1]] for a in range(1, r + 1)
                          for b in range(a, r + 1)]
            vecs = [[[list(point), m, 1, 1]] for m in modes[:size]]
            out.append(vecs)
        return out

    def test_accepts_good_sets(self):
        self.assertEqual(oracles.check_basis_vectors(self.good_sets()), [])

    def test_rejects_dependent_set(self):
        sets = self.good_sets()
        sets[2][1] = [list(t) for t in sets[2][0]]
        self.assertTrue(oracles.check_basis_vectors(sets))

    def test_rejects_wrong_energy(self):
        sets = self.good_sets()
        sets[1][0][0][1] = [[1, 2]]
        self.assertTrue(oracles.check_basis_vectors(sets))


if __name__ == "__main__":
    unittest.main()
