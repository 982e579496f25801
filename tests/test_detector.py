"""Detector semantics: counting rules, aggregation, determinism."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kurev.catalog import (
    CapabilityId,
    KuId,
    load_catalog,
    load_catalog_text,
    serialize_catalog,
)
from kurev.detector import (
    _Imports,
    detect_capabilities,
    detect_kus,
    ku_vector_from_hits,
    parse_java,
)
from kurev.errors import ParseError

CORPUS = Path(__file__).parent / "fixtures" / "ku_corpus"
# Nonzero per-capability counts of every corpus file, keyed by file stem
# and capability label; recorded from the detector and kept as a golden
# file so that refactors of the parser or detector cannot move a count.
GOLDEN = json.loads(
    (CORPUS.parent / "ku_corpus_capabilities.json").read_text(encoding="utf-8")
)
CATALOG = load_catalog()


def cap(ku, c):
    return CapabilityId(KuId(ku), c)


def nonzero(hits):
    return {(c.ku.index, c.cap_index): n for c, n in hits.items() if n}


def test_abstract_class_counts_once():
    hits = detect_capabilities("abstract class X {}", CATALOG)
    assert hits[cap(6, 4)] == 1


def test_two_try_blocks_count_two():
    src = """
    class T {
      void f() {
        try { g(); } catch (Exception e) {}
        try { g(); } catch (Exception e) {}
      }
      void g() {}
    }
    """
    hits = detect_capabilities(src, CATALOG)
    assert hits[cap(11, 1)] == 2


def test_absence_case():
    hits = detect_capabilities("class C { void f() { int x = 0; } }", CATALOG)
    vec = ku_vector_from_hits(hits)
    assert vec[15] == 0  # K16 Concurrency untouched


def test_generic_class_plus_arraylist():
    src = "class C<T> {}\nclass D { Object o = new ArrayList<String>(); }"
    vec = detect_kus(src, CATALOG)
    assert vec[7] >= 2  # K8


def test_empty_file_is_all_zero():
    assert detect_kus("", CATALOG) == [0] * 28


def test_nested_inner_classes_count_each():
    src = "class A { class B { class C {} } }"
    hits = detect_capabilities(src, CATALOG)
    assert hits[cap(7, 1)] == 2


def test_import_mismatch_suppresses_api_capability():
    # Produces resolved to JAX-RS must not count for CDI and vice versa
    rs = 'import javax.ws.rs.Produces;\nclass A { @Produces String f() { return ""; } }'
    cdi = 'import javax.enterprise.inject.Produces;\nclass A { @Produces String f() { return ""; } }'
    rs_hits = detect_capabilities(rs, CATALOG)
    cdi_hits = detect_capabilities(cdi, CATALOG)
    assert rs_hits[cap(24, 1)] == 1 and rs_hits[cap(27, 1)] == 0
    assert cdi_hits[cap(27, 1)] == 1 and cdi_hits[cap(24, 1)] == 0


def test_simple_name_without_import_counts():
    hits = detect_capabilities("class C { Locale l; }", CATALOG)
    assert hits[cap(18, 1)] == 1


def test_fully_qualified_use_counts():
    hits = detect_capabilities(
        "class C { void f() { java.nio.file.Files.exists(p); } }", CATALOG
    )
    assert hits[cap(14, 2)] == 1


def test_qualified_creation_keeps_the_qualifiers_kus():
    # the lambda (K2) and the binary expression (K10) sit in the qualifier
    def kus(expression):
        return detect_kus(f"class A {{ void f() {{ Object o = {expression}; }} }}", CATALOG)

    assert kus("make(x -> x + 1).new Inner()") == kus("make(x -> x + 1)")
    assert kus("make(x -> x + 1)")[1] == kus("make(x -> x + 1)")[9] == 1


@pytest.mark.parametrize("i", range(1, 29))
def test_corpus_fires_own_ku(i):
    src = (CORPUS / f"K{i:02d}.java").read_text()
    vec = detect_kus(src, CATALOG)
    assert vec[i - 1] >= 1


# Hand-counted expected hits for ten spot-check fixtures. Keys are
# (ku, capability); every enabled capability not listed must be zero.
SPOT_CHECKS = {
    "K01": {(1, 1): 6},
    "K03": {(1, 1): 3, (2, 1): 1, (3, 1): 6, (3, 2): 2},
    "K04": {
        (1, 1): 2, (2, 1): 13, (2, 2): 2, (2, 3): 2, (3, 1): 1,
        (4, 1): 1, (4, 2): 2, (4, 3): 1, (4, 4): 1, (4, 5): 1,
    },
    "K05": {
        (1, 1): 3, (2, 1): 6, (4, 2): 1, (5, 1): 3, (5, 2): 3,
        (5, 3): 4, (5, 4): 1, (5, 5): 1, (5, 6): 8, (5, 7): 1, (7, 2): 1,
    },
    "K06": {
        (1, 1): 2, (2, 1): 3, (5, 1): 1, (6, 1): 1, (6, 3): 1,
        (6, 4): 2, (6, 5): 1, (6, 6): 1,
    },
    "K11": {
        (2, 1): 1, (2, 2): 1, (6, 1): 1, (6, 5): 1, (11, 1): 2,
        (11, 2): 3, (11, 3): 1, (11, 4): 1, (11, 5): 2, (11, 6): 2, (11, 7): 1,
    },
    "K14": {(3, 1): 1, (5, 1): 2, (11, 5): 1, (14, 1): 3, (14, 2): 1},
    "K17": {(1, 1): 1, (5, 1): 2, (11, 5): 2, (17, 1): 5, (17, 2): 2},
    "K18": {(1, 1): 1, (5, 1): 1, (18, 1): 3, (18, 2): 2},
    "K28": {(1, 1): 1, (5, 6): 2, (28, 1): 3},
}


@pytest.mark.parametrize("name", sorted(SPOT_CHECKS))
def test_spot_check_hand_counts(name):
    src = (CORPUS / f"{name}.java").read_text()
    hits = detect_capabilities(src, CATALOG)
    assert nonzero(hits) == SPOT_CHECKS[name]


def test_golden_file_covers_whole_corpus():
    assert sorted(GOLDEN) == sorted(p.stem for p in CORPUS.glob("*.java"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_matches_golden_capabilities(name):
    hits = detect_capabilities((CORPUS / f"{name}.java").read_text(), CATALOG)
    assert {c.label: n for c, n in sorted(hits.items()) if n} == GOLDEN[name]


def test_aggregation_consistency_over_corpus():
    for path in sorted(CORPUS.glob("*.java")):
        src = path.read_text()
        hits = detect_capabilities(src, CATALOG)
        assert detect_kus(src, CATALOG) == ku_vector_from_hits(hits)


def test_concatenation_monotonicity():
    a = "void f() { try { g(); } catch (Exception e) {} }"
    b = "int[] xs = new int[3];"
    va = detect_kus(f"class C {{ {a} }}", CATALOG)
    vab = detect_kus(f"class C {{ {a} {b} }}", CATALOG)
    assert all(x >= y for x, y in zip(vab, va))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(p.name for p in CORPUS.glob("*.java"))), st.integers(0, 3))
def test_determinism(name, _repeat):
    src = (CORPUS / name).read_text()
    assert detect_kus(src, CATALOG) == detect_kus(src, CATALOG)


# Inputs nested past the parser's depth bound, and one long chain, which
# the parser builds in a loop.
DEEP_INPUTS = {
    "parens": "class C { int x = " + "(" * 500 + "1" + ")" * 500 + "; }",
    "ifs": "class C { void f() { " + "if (x) { " * 300 + "g();" + " }" * 300 + " } }",
    "lambdas": "class C { Object f = " + "x -> " * 400 + "x; }",
    "concat": "class C { String s = " + " + ".join(['"a"'] * 3000) + "; }",
}


def nested(opening, middle, closing, levels=2000):
    return opening * levels + middle + closing * levels


# Each construct the parser reads by recursion, nested 2,000 levels deep.
NESTED_2000 = {
    "parentheses": "class C { int x = " + nested("(", "1", ")") + "; }",
    "calls": "class C { int x = " + nested("f(", "1", ")") + "; }",
    "array initializers": "class C { int[] x = " + nested("{", "1", "}") + "; }",
    "blocks": "class C { void f() { " + nested("{ ", "g();", " }") + " } }",
    "bare ifs": "class C { void f() { " + nested("if (x) ", "g();", "") + " } }",
    "if blocks": "class C { void f() { " + nested("if (x) { ", "g();", " }") + " } }",
    "lambdas": "class C { Object f = " + nested("x -> ", "x", "") + "; }",
    "casts": "class C { Object f = " + nested("(Object) ", "x", "") + "; }",
    "prefix operators": "class C { int f = " + nested("- ", "x", "") + "; }",
    "ternary chains": "class C { int f = " + nested("a ? b : ", "c", "") + "; }",
    "assignment chains": "class C { void f() { " + nested("a = ", "b", "") + "; } }",
    "switch statements": (
        "class C { void f() { " + nested("switch (x) { case 1: ", "g();", " }") + " } }"
    ),
    "arrow-case blocks": (
        "class C { void f() { " + nested("switch (x) { case 1 -> { ", "g();", " } }") + " } }"
    ),
    "switch expressions": "class C { int f = " + nested("switch (x) { case 1 -> ", "1", "; }") + "; }",
    "nested classes": nested("class A { ", "int x;", " }"),
    "local classes": "class C { void f() { " + nested("class L { void f() { ", "g();", " } }") + " } }",
    "anonymous classes": (
        "class C { Object o = " + nested("new Object() { Object o = ", "null", "; }") + "; }"
    ),
    "enum constant bodies": nested("enum E { A { ", "int x;", " } }"),
    "annotations": nested("@A(", "1", ")") + " class C { void m() {} }",
}


def at_stack_depth(frames, fn, *args):
    """``fn(*args)``, called under ``frames`` more stack frames."""
    if frames == 0:
        return fn(*args)
    return at_stack_depth(frames - 1, fn, *args)


def _assert_vector_or_parse_error(src):
    try:
        vec = detect_kus(src, CATALOG)
    except ParseError:
        return
    assert len(vec) == 28 and all(isinstance(n, int) and n >= 0 for n in vec)


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_deep_nesting_gives_vector_or_parse_error(name):
    _assert_vector_or_parse_error(DEEP_INPUTS[name])


def test_deep_nesting_gives_one_vector_at_any_stack_depth():
    # The parser bounds nesting itself, so a vector depends on the file's
    # text alone, not on how deep in the stack detection runs.
    for name, src in NESTED_2000.items():
        vec = detect_kus(src, CATALOG)
        assert len(vec) == 28 and all(isinstance(n, int) and n >= 0 for n in vec), name
        assert at_stack_depth(300, detect_kus, src, CATALOG) == vec, name


def test_thousand_link_chains_give_vectors():
    # The parser reads a chain in a loop, so its length costs no stack.
    for src in (
        "class C { void f() { sb" + '.append("x")' * 1000 + "; } }",
        "class C { String s = " + " + ".join(['"a"'] * 1000) + "; }",
    ):
        vec = detect_kus(src, CATALOG)
        assert len(vec) == 28 and all(isinstance(n, int) and n >= 0 for n in vec)


def test_thousand_and_terms_count_each_operator():
    src = "class C { boolean b = " + " && ".join(["x"] * 1000) + "; }"
    # the field (K1.1) and 999 binary expressions (K2.1)
    assert nonzero(detect_capabilities(src, CATALOG)) == {(1, 1): 1, (2, 1): 999}


def test_hundred_nested_calls_give_a_vector():
    # Past the parser's depth bound the innermost calls become an error
    # event; an unqualified call counts no KU, so the vector is one call's.
    src = "class C { int x = " + "f(" * 100 + "1" + ")" * 100 + "; }"
    vec = detect_kus(src, CATALOG)
    assert len(vec) == 28 and all(isinstance(n, int) and n >= 0 for n in vec)
    assert vec == detect_kus("class C { int x = f(1); }", CATALOG)


@settings(max_examples=100, deadline=None)
@given(st.text())
def test_any_text_gives_vector_or_parse_error(src):
    _assert_vector_or_parse_error(src)


# --- the rules x events x patterns matcher, kept as the reference ---------


def _naive_pattern_matches(pattern, event, imports):
    category, _, keywords, name, qualified = event
    if pattern.node_kind != category:
        return False
    if pattern.keyword is not None:
        if not set(pattern.keyword.split()) <= keywords:
            return False
    if pattern.name is not None and name != pattern.name:
        return False
    if pattern.import_prefix is not None:
        if not imports.consistent(name, qualified, pattern.import_prefix):
            return False
    return True


def naive_capabilities(source, catalog):
    events, imports = parse_java(source)
    imports = _Imports(imports)
    out = {}
    for rule in catalog.enabled_rules():
        matched = set()
        for event in events:
            if any(_naive_pattern_matches(p, event, imports) for p in rule.patterns):
                matched.add(event[1])
        out[rule.id] = len(matched)
    return out


# Built-in rules plus rules that exercise every branch of the matcher:
# two rules sharing (type, List), one with an import prefix; a multi-word
# keyword; patterns with no name; a disabled rule; and one rule whose two
# patterns hit the same node (an invocation and its qualifier type).
EXTRA_RULES = """
- ku: 1
  capability: 90
  patterns:
    - {node_kind: type, name: List, import_prefix: java.util}
- ku: 1
  capability: 91
  patterns:
    - {node_kind: type, name: List}
    - {node_kind: type, name: List, keyword: generic}
- ku: 2
  capability: 90
  patterns:
    - {node_kind: declaration, keyword: static method}
    - {node_kind: statement}
- ku: 3
  capability: 90
  enabled: false
  patterns:
    - {node_kind: statement}
- ku: 4
  capability: 90
  patterns:
    - {node_kind: invocation, name: println}
    - {node_kind: type, name: System}
"""
CUSTOM = load_catalog_text(serialize_catalog(CATALOG) + EXTRA_RULES)
HAND = """
import java.awt.List;
class C {
  static void f(List x) {
    System.out.println(x);
    java.util.List<String> y = null;
    synchronized (this) { if (x == null) return; }
  }
  void g() {}
}
"""


@pytest.mark.parametrize("catalog", [CATALOG, CUSTOM], ids=["builtin", "custom"])
def test_matcher_equals_naive_matcher_over_corpus(catalog):
    sources = [HAND] + [p.read_text() for p in sorted(CORPUS.glob("*.java"))]
    for src in sources:
        assert detect_capabilities(src, catalog) == naive_capabilities(src, catalog)


def test_custom_rules_fire_as_written():
    hits = detect_capabilities(HAND, CUSTOM)
    assert cap(3, 90) not in hits
    assert hits[cap(1, 90)] == 1  # java.util.List; the java.awt.List use is filtered
    assert hits[cap(1, 91)] == 2
    assert hits[cap(2, 90)] == 3  # static f, the synchronized and the if statement
    assert hits[cap(4, 90)] == 1  # println and its qualifier System are one node
