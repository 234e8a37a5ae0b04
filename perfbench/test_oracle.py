#!/usr/bin/env python3
"""Tests of the benchmark's oracle and of the checks built on it.

    python3 perfbench/test_oracle.py

Every expected answer below was worked out by hand from the small
documents, not by running the evaluator.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

DOC = (b"<site><people><person><phone/><profile><interest/></profile></person>"
       b"<person><watches><watch/><watch/></watches></person></people></site>")
# Offsets (start, one past the end): site 0..137, people 6..130,
# person#1 14..69, phone 22..30, profile 30..60, interest 39..50,
# person#2 69..121, watches 77..112, watch 86..94, watch 94..102.


class TreeTest(unittest.TestCase):
    def test_elements_and_offsets(self):
        t = oracle.Tree(DOC)
        self.assertEqual(t.tag, ["site", "people", "person", "phone", "profile",
                                 "interest", "person", "watches", "watch", "watch"])
        self.assertEqual(list(zip(t.start, t.end))[:4],
                         [(0, 137), (6, 130), (14, 69), (22, 30)])
        self.assertEqual(t.rows(t.by_tag["watch"]), [(86, 94), (94, 102)])
        self.assertEqual(t.parent[8], 7)
        self.assertEqual(t.last[6], 9)

    def test_rejects_unbalanced(self):
        with self.assertRaises(ValueError):
            oracle.Tree(b"<a><b></a></b>")
        with self.assertRaises(ValueError):
            oracle.Tree(b"<a><b/>")


class EvaluateTest(unittest.TestCase):
    def setUp(self):
        self.t = oracle.Tree(DOC)

    def count(self, expr):
        return len(oracle.evaluate(self.t, expr))

    def test_paths(self):
        self.assertEqual(self.count("person//phone"), 1)
        self.assertEqual(self.count("person//watch"), 2)
        self.assertEqual(self.count("profile//interest"), 1)
        self.assertEqual(self.count("people/person"), 2)
        self.assertEqual(self.count("people/watch"), 0)  # not a child

    def test_twig_and_predicates(self):
        self.assertEqual(self.count("person[profile]//interest"), 1)
        self.assertEqual(self.count("person[profile]//watch"), 0)
        self.assertEqual(self.count("person[watches//watch]"), 1)
        self.assertEqual(oracle.evaluate(self.t, "//person[watches//watch]"), [6])
        self.assertEqual(self.count("//person[/phone]"), 1)  # child axis

    def test_wildcard_and_empty(self):
        # person#1 has phone and profile, person#2 has watches.
        self.assertEqual(self.count("//person/*"), 3)
        self.assertEqual(self.count("//*"), 10)
        self.assertEqual(self.count("//interest//person"), 0)

    def test_nested_contexts_count_once(self):
        t = oracle.Tree(b"<a><a><b/></a><b/></a>")
        self.assertEqual(len(oracle.evaluate(t, "a//b")), 2)
        self.assertEqual(len(oracle.evaluate(t, "a/b")), 2)
        self.assertEqual(len(oracle.evaluate(t, "a/a/b")), 1)

    def test_bad_syntax(self):
        for expr in ("person//", "a[b", "a]", "//"):
            with self.assertRaises(ValueError):
                oracle.parse_query(expr)


class CheckTest(unittest.TestCase):
    """check_query accepts the right answer and rejects a perturbed one."""

    def setUp(self):
        self.t = oracle.Tree(DOC)

    def test_accepts_correct_answer(self):
        run.check_query(self.t, "PATH", "person//watch", b"OK COUNT 2 PAIRS 2 LISTED 2\n3 0\n3 8\n")
        run.check_query(self.t, "XPATH", "//watch",
                        b"OK COUNT 2 JOINS 0 LISTED 2\n86 94\n94 102\n")

    def test_rejects_perturbed_count(self):
        with self.assertRaises(run.CheckFailed):
            run.check_query(self.t, "PATH", "person//watch", b"OK COUNT 3 PAIRS 3 LISTED 0\n")

    def test_rejects_perturbed_offset(self):
        with self.assertRaises(run.CheckFailed):
            run.check_query(self.t, "XPATH", "//watch",
                            b"OK COUNT 2 JOINS 0 LISTED 2\n86 94\n95 102\n")

    def test_rejects_error_response(self):
        with self.assertRaises(run.CheckFailed):
            run.check_query(self.t, "PATH", "person//watch", b"ERR Internal boom")


class InputsTest(unittest.TestCase):
    def test_chop_rebuilds_the_document(self):
        doc = inputs.xmark(3, 200)
        base, chops = inputs.chop(doc, 60)
        self.assertGreater(len(chops), 40)
        model = inputs.Model(base)
        for gp, text in chops:
            oracle.Tree(text)  # each segment is well formed
            model.insert(gp, text)
        self.assertEqual(bytes(model.doc), doc)

    def test_streams_keep_the_document_well_formed(self):
        model = inputs.Model(inputs.xmark(5, 100))
        ops = inputs.update_stream(5, model, 300)
        kinds = {op[0] for op in ops}
        self.assertEqual(kinds, {"insert", "remove", "batch"})
        oracle.Tree(bytes(model.doc))

    def test_same_seed_same_inputs(self):
        a = inputs.update_stream(9, inputs.Model(inputs.xmark(9, 50)), 50)
        b = inputs.update_stream(9, inputs.Model(inputs.xmark(9, 50)), 50)
        self.assertEqual(a, b)


if __name__ == "__main__":
    unittest.main()
