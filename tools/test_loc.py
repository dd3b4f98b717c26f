#!/usr/bin/env python3
"""Unit tests of the line counter, plus the counts it must reproduce at a
fixed commit (skipped outside a git checkout that has that commit).

    python3 tools/test_loc.py
"""

import os
import subprocess
import tempfile
import unittest

from loc import count, count_lines, per_crate

# The commit whose counts earlier changes cite: the eight model crates and
# the daemon's connection layer.
PINNED = "850f831283888fa03c62a5e76c26b8cb3afd8ddb"
MODEL_CRATES = ("analysis", "data", "dcsim", "fab", "ghg", "lca", "socsim", "units")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class CountLines(unittest.TestCase):
    def test_blank_and_comment_lines_do_not_count(self):
        text = "//! crate doc\n\n/// item doc\nfn f() {\n    // note\n    1\n}\n"
        self.assertEqual(count_lines(text), 3)

    def test_counting_stops_at_the_first_cfg_test(self):
        text = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {}\n}\n#[cfg(test)]\n"
        self.assertEqual(count_lines(text), 1)

    def test_an_indented_cfg_test_also_stops_counting(self):
        self.assertEqual(count_lines("fn f() {}\n    #[cfg(test)]\nfn g() {}\n"), 1)

    def test_a_cfg_test_use_drops_only_that_use(self):
        text = ("use a::b;\n#[cfg(test)]\nuse c::{d, e};\n#[cfg(test)]\nuse f::g;\n"
                "fn f() {}\n#[cfg(test)]\nmod tests {\n    use super::*;\n}\n")
        self.assertEqual(count_lines(text), 2)

    def test_a_cfg_test_before_a_multi_line_use_still_stops_counting(self):
        text = "fn f() {}\n#[cfg(test)]\nuse c::{\n    d,\n};\nfn g() {}\n"
        self.assertEqual(count_lines(text), 1)

    def test_per_crate_groups_by_the_directory_under_crates(self):
        files = {
            os.path.join("crates", "lca", "src", "lib.rs"): 3,
            os.path.join("crates", "lca", "src", "phase.rs"): 4,
            os.path.join("src", "lib.rs"): 5,
        }
        self.assertEqual(per_crate(files), {"lca": 7, "src": 5})


def have_commit(rev):
    probe = subprocess.run(["git", "-C", REPO, "cat-file", "-e", rev + "^{commit}"],
                           capture_output=True)
    return probe.returncode == 0


@unittest.skipUnless(have_commit(PINNED), "needs a git checkout with the pinned commit")
class PinnedCounts(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        archive = subprocess.run(["git", "-C", REPO, "archive", PINNED, "crates"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", cls.tmp.name], input=archive, check=True)
        cls.cwd = os.getcwd()
        os.chdir(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        os.chdir(cls.cwd)
        cls.tmp.cleanup()

    def test_model_crates_total_6126(self):
        files = count([os.path.join("crates", c, "src") for c in MODEL_CRATES])
        self.assertEqual(sum(files.values()), 6126)
        self.assertEqual(per_crate(files)["lca"], 745)

    def test_server_rs_595(self):
        path = os.path.join("crates", "engine", "src", "server.rs")
        self.assertEqual(count([path]), {path: 595})


if __name__ == "__main__":
    unittest.main()
