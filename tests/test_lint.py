#!/usr/bin/env python3
"""Unit tests for tools/cbwt_lint.py (run under ctest as `lint_unittests`).

The fixture files under tests/lint_fixtures/ are exercised separately by
`cbwt_lint.py --self-test`; this suite covers the engine internals:
escape parsing, the metric-name grammar, layering module resolution,
DAG cycle detection, and the fallback TOML parser.
"""

import os
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import cbwt_lint  # noqa: E402


def load_config():
    return cbwt_lint.Config(
        cbwt_lint.load_toml(os.path.join(REPO_ROOT, "tools", "lint_rules.toml"))
    )


CONFIG = load_config()


def rules_for(path, text):
    return {f.rule for f in cbwt_lint.lint_text(CONFIG, path, text)}


class EscapeParsing(unittest.TestCase):
    def test_single_rule(self):
        line = "x();  // cbwt-lint: allow(steady-clock)"
        self.assertEqual(cbwt_lint.escaped_rules(line), {"steady-clock"})

    def test_multiple_rules_and_spacing(self):
        line = "x()  # cbwt-lint: allow( wall-clock , raw-thread )"
        self.assertEqual(
            cbwt_lint.escaped_rules(line), {"wall-clock", "raw-thread"}
        )

    def test_no_escape(self):
        self.assertEqual(cbwt_lint.escaped_rules("plain line"), set())

    def test_escape_only_covers_its_line(self):
        text = (
            "// cbwt-lint: allow(steady-clock)\n"
            "auto t = std::chrono::steady_clock::now();\n"
        )
        self.assertIn("steady-clock", rules_for("src/dns/x.cpp", text))

    def test_escape_suppresses_named_rule_only(self):
        line = (
            "auto t = std::chrono::system_clock::now();"
            "  // cbwt-lint: allow(steady-clock)\n"
        )
        self.assertEqual(rules_for("src/dns/x.cpp", line), {"wall-clock"})


class MetricNames(unittest.TestCase):
    def check(self, snippet):
        return rules_for("src/classify/m.cpp", snippet)

    def test_good_counter(self):
        self.assertEqual(
            self.check('counter("cbwt_classify_hits_total")'), set()
        )

    def test_counter_needs_total(self):
        self.assertEqual(
            self.check('counter("cbwt_classify_hits")'), {"metric-naming"}
        )

    def test_histogram_needs_seconds(self):
        self.assertEqual(
            self.check('histogram("cbwt_classify_wait_ms", b)'),
            {"metric-naming"},
        )

    def test_gauge_rejects_total(self):
        self.assertEqual(
            self.check('gauge("cbwt_classify_queued_total")'), {"metric-naming"}
        )

    def test_unknown_module(self):
        self.assertEqual(
            self.check('counter("cbwt_mystery_hits_total")'), {"metric-naming"}
        )

    def test_report_json_is_a_module(self):
        self.assertEqual(
            self.check('counter("cbwt_report_json_rows_total")'), set()
        )

    def test_doubled_underscore(self):
        self.assertEqual(
            self.check('counter("cbwt_classify__hits_total")'), {"metric-naming"}
        )

    def test_prefix_fragment_charset_only(self):
        self.assertEqual(
            self.check('counter("cbwt_classify_" + site + "_total")'), set()
        )
        self.assertEqual(
            self.check('counter("cbwt_Classify_" + site)'), {"metric-naming"}
        )

    def test_bare_literal_outside_call(self):
        self.assertEqual(
            self.check('names = {"cbwt_classify_hits_total"};'), set()
        )
        self.assertEqual(
            self.check('names = {"cbwt_BadName"};'), {"metric-naming"}
        )

    def test_out_of_scope_path_ignored(self):
        findings = rules_for("docs/notes.cpp", 'counter("cbwt_BadName")')
        self.assertEqual(findings, set())


class Layering(unittest.TestCase):
    def test_module_of_uses_overrides(self):
        self.assertEqual(cbwt_lint.module_of(CONFIG, "report/json.h"), "report_json")
        self.assertEqual(cbwt_lint.module_of(CONFIG, "report/writer.h"), "report")
        self.assertEqual(cbwt_lint.module_of(CONFIG, "util/prng.h"), "util")

    def test_allowed_edge(self):
        text = '#include "filterlist/engine.h"\n'
        self.assertEqual(rules_for("src/classify/x.cpp", text), set())

    def test_forbidden_edge(self):
        text = '#include "classify/match_cache.h"\n'
        self.assertEqual(rules_for("src/filterlist/x.cpp", text), {"layering"})

    def test_system_includes_ignored(self):
        text = "#include <classify/match_cache.h>\n"
        self.assertEqual(rules_for("src/filterlist/x.cpp", text), set())

    def test_intra_module_include_ignored(self):
        text = '#include "filterlist/tokens.h"\n'
        self.assertEqual(rules_for("src/filterlist/x.cpp", text), set())

    def test_obs_may_use_report_json_but_not_report(self):
        ok = '#include "report/json.h"\n'
        bad = '#include "report/writer.h"\n'
        self.assertEqual(rules_for("src/obs/x.cpp", ok), set())
        self.assertEqual(rules_for("src/obs/x.cpp", bad), {"layering"})

    def test_dns_may_not_use_fault(self):
        text = '#include "fault/retry.h"\n'
        self.assertEqual(rules_for("src/dns/x.cpp", text), {"layering"})
        self.assertEqual(rules_for("src/netflow/x.cpp", text), set())

    def test_files_outside_src_skip_layering(self):
        text = '#include "classify/match_cache.h"\n'
        self.assertEqual(rules_for("tests/test_x.cpp", text), set())


class DagCheck(unittest.TestCase):
    def make_config(self, deps):
        config = load_config()
        config.deps = deps
        return config

    def test_tree_dag_is_acyclic(self):
        self.assertEqual(list(cbwt_lint.check_dag(CONFIG)), [])

    def test_cycle_detected(self):
        config = self.make_config({"a": ["b"], "b": ["c"], "c": ["a"]})
        findings = list(cbwt_lint.check_dag(config))
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].rule, "layering-config")
        self.assertIn("a -> b -> c -> a", findings[0].message)

    def test_self_loop_detected(self):
        config = self.make_config({"a": ["a"]})
        findings = list(cbwt_lint.check_dag(config))
        self.assertEqual(len(findings), 1)


class MiniTomlFallback(unittest.TestCase):
    """The <3.11 fallback parser must agree with tomllib on our ruleset."""

    def test_parses_ruleset_identically(self):
        path = os.path.join(REPO_ROOT, "tools", "lint_rules.toml")
        with open(path, encoding="utf-8") as f:
            fallback = cbwt_lint._mini_toml_parse(f.read())
        import tomllib

        with open(path, "rb") as f:
            reference = tomllib.load(f)
        self.assertEqual(fallback, reference)


class TreeIsClean(unittest.TestCase):
    def test_repo_tree_has_no_findings(self):
        findings = cbwt_lint.lint_tree(REPO_ROOT, CONFIG)
        self.assertEqual([str(f) for f in findings], [])


if __name__ == "__main__":
    unittest.main()
