"""Parser behaviour: the events of constructs, error recovery, hard syntax."""

import random
from collections import Counter
from pathlib import Path

import pytest

from kurev.catalog import NODE_KINDS
from kurev.errors import ParseError
from kurev.javaparse import parse_java
from kurev.javaparse.lexer import KEYWORDS, tokenize
from kurev.javaparse.parser import ASSIGN_OPS, BINARY_LEVELS, MAX_DEPTH, _KW, _Parser

CORPUS = Path(__file__).parent / "fixtures" / "ku_corpus"


def events(source):
    """(category, keywords, name, qualified) of each event, in order."""
    return [(category, set(keywords), name, qualified)
            for category, _, keywords, name, qualified in parse_java(source)[0]]


def count(source, category, keywords=None, name=None):
    """How many events of ``category`` have ``keywords`` among their own
    and, when ``name`` is given, that name."""
    return sum(c == category and set(keywords or ()) <= k and (name is None or n == name)
               for c, k, n, _ in events(source))


def test_minimal_class():
    assert events("class A {}") == [("declaration", {"class"}, "A", None)]


def test_empty_file():
    assert parse_java("") == ([], {})


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.java")), ids=lambda p: p.stem)
def test_corpus_trees_are_well_formed(path):
    found, imports = parse_java(path.read_text(encoding="utf-8"))
    assert found
    for index, event in enumerate(found):
        assert isinstance(event, tuple) and len(event) == 5, event
        category, node_id, keywords, name, qualified = event
        assert category in NODE_KINDS, event  # the corpus reads without error events
        # a node's id is the index of its first event
        assert isinstance(node_id, int) and 0 <= node_id <= index, event
        assert found[node_id][1] == node_id, event
        assert isinstance(keywords, (set, frozenset)), event
        assert all(isinstance(word, str) and word for word in keywords), event
        assert name is None or isinstance(name, str), event
        assert qualified is None or isinstance(qualified, str), event
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in imports.items())


def test_binary_input_raises_with_offset():
    with pytest.raises(ParseError) as exc:
        parse_java("class A {\x00}")
    assert exc.value.offset == 9


def test_unbalanced_brace_recovers():
    # no crash is the contract; error events are allowed but not required
    assert count("class A { void f() { if (x { } }", "declaration", {"class"}, "A") == 1


def test_a_stray_closing_brace_keeps_the_next_type_declaration():
    # The stray `}` is consumed as one error; it closes nothing the skip opened.
    found = events("class A { void f() {} } } class B { void g() { for (;;) {} } }")
    assert found[2:] == [
        ("error", set(), None, None),
        ("statement", {"for"}, None, None),
        ("declaration", {"method", "member"}, "g", None),
        ("declaration", {"class"}, "B", None),
    ]


def test_an_unreadable_parameter_stops_at_the_body():
    source = "class C { void f(int a, 1 b { while (x) {} } void g() {} }"
    assert count(source, "statement", {"while"}) == 1
    assert count(source, "declaration", {"method"}, "g") == 1


def test_a_stray_bracket_in_a_case_label_keeps_what_follows():
    source = "class C { void f() { switch (x) { case 1]: g(); } while (y) {} } }"
    assert count(source, "invocation", name="g") == 1
    assert count(source, "statement", {"while"}) == 1


def test_nesting_past_max_depth_becomes_an_error_node():
    def fields_with_calls(levels):
        return ("class C { int x = " + "f(" * levels + "1" + ")" * levels
                + "; int y; }")

    # The field is one level and each expression three, so the argument
    # of the 32nd nested call takes levels 98 to 100, and that of the 33rd
    # (the innermost `1`) becomes the error event.
    assert MAX_DEPTH == 100
    assert count(fields_with_calls(32), "error") == 0
    deeper = fields_with_calls(33)
    assert count(deeper, "error") == 1
    assert count(deeper, "invocation", name="f") == 33
    assert count(deeper, "declaration", {"field"}) == 2  # the next member is read


def test_garbage_produces_error_nodes():
    assert count("%%% ??? )))", "error")


def test_package_and_imports():
    found, imports = parse_java(
        "package a.b;\nimport java.util.List;\nimport java.util.*;\n"
        "import static java.lang.Math.max;\nimport java.util.Map.Entry;\nclass C {}"
    )
    # only single-type imports register; wildcard and static ones do not
    assert imports == {"List": "java.util.List", "Entry": "java.util.Map.Entry"}
    assert [e[0] for e in found] == ["declaration"]


def test_method_fields():
    src = "class C { public static <T> T pick(T a, T b, int... rest) throws E1, E2 { return a; } }"
    assert ("declaration", {"method", "returning", "generic", "member", "parameterized",
                            "varargs", "throwing", "public", "static"}, "pick", None) in events(src)
    # the return and two parameter types, and the two thrown types; <T> is
    # a type parameter, no use
    types = Counter(name for category, _, name, _ in events(src) if category == "type")
    assert types == {"T": 3, "E1": 1, "E2": 1}
    assert _Parser(tokenize("(T a, T b, int... rest)"))._parse_params() == (3, True)


def test_constructor_vs_method():
    src = "class C { C() {} C make() { return new C(); } }"
    assert count(src, "declaration", {"constructor"}) == 1
    assert count(src, "declaration", {"method"}, "make") == 1
    assert count(src, "invocation", {"new"}, "C") == 1


def test_control_flow_statements():
    src = """
    class C {
      void f(int n) {
        while (n > 0) { n--; }
        do { n++; } while (n < 5);
        for (int i = 0; i < n; i++) { if (i == 2) break; else continue; }
        for (String s : names) {}
        switch (n) { case 1: break; default: break; }
        synchronized (this) {}
        assert n >= 0 : "neg";
      }
    }
    """
    statements = Counter(
        word for category, keywords, _, _ in events(src) if category == "statement"
        for word in keywords)
    assert statements == {
        "while": 1, "do_while": 1, "for": 1, "enhanced_for": 1, "switch": 1,
        "synchronized": 1, "assert": 1, "if": 1, "break": 3, "continue": 1,
    }


def test_try_catch_finally_resources():
    src = """
    class C {
      void f() {
        try (Reader r = open(); Writer w = sink()) { use(r); }
        catch (IOException | SQLException e) { log(e); }
        catch (Exception e) { }
        finally { done(); }
      }
    }
    """
    found = events(src)
    statements = [keywords for category, keywords, _, _ in found if category == "statement"]
    assert statements == [
        {"try", "try_with_resources"}, {"catch", "multi_catch"}, {"catch"}, {"finally"},
    ]
    # both resources are read as variables, and the multi-catch's two types
    assert [name for category, _, name, _ in found if category == "type"] == [
        "Reader", "Writer", "IOException", "SQLException", "Exception",
    ]


def test_generics_and_arrays():
    src = "class C { Map<String, List<Integer>> m; int[][] grid = new int[2][3]; }"
    assert ("type", {"generic"}, "Map", "Map") in events(src)
    assert count(src, "type", {"multidim_array"}) == 1
    assert count(src, "expression", {"multidim_array_creation"}) == 1


def test_lambdas_and_references():
    src = """
    class C {
      Runnable a = () -> run();
      Function<String, Integer> b = s -> s.length();
      BiFunction<Integer, Integer, Integer> c = (x, y) -> x + y;
      Supplier<List<String>> d = ArrayList::new;
      Function<String, String> e = String::trim;
    }
    """
    found = events(src)
    assert count(src, "expression", {"lambda"}) == 3
    # inferred parameters are bare names, so none is read as a type
    assert not {name for category, _, name, _ in found if category == "type"} & {"s", "x", "y"}
    assert count(src, "expression", {"method_reference"}) == 2
    for event in (("invocation", {"new"}, "ArrayList", None), ("type", set(), "ArrayList", None),
                  ("invocation", set(), "trim", None), ("type", set(), "String", None)):
        assert event in found, event


def test_anonymous_class_and_enum():
    src = """
    enum Mode {
      FAST, SLOW { @Override public String toString() { return "s"; } };
      int cost() { return 1; }
    }
    class C { Runnable r = new Runnable() { public void run() {} }; }
    """
    assert count(src, "declaration", {"enum_constant"}) == 2
    assert [name for category, keywords, name, _ in events(src)
            if category == "declaration" and "anonymous_class" in keywords] == ["Runnable"]


def test_casts_and_instanceof():
    src = ("class C { void f(Object o) { int x = (int) 1.5; String s = (String) o;"
           " if (o instanceof Number) {} } }")
    assert count(src, "expression", {"primitive_cast"}) == 1
    assert count(src, "expression", {"reference_cast"}) == 1
    assert count(src, "expression", {"instanceof"}) == 1


def test_parenthesized_expression_not_cast():
    src = "class C { int f(int a, int b) { return (a) + b; } }"
    assert count(src, "expression", {"primitive_cast"}) == 0
    assert count(src, "expression", {"reference_cast"}) == 0


def test_less_than_not_generics():
    found = events("class C { boolean f(int a, int b) { return a < b && b > a; } }")
    # `<`, `&&` and `>`, and no type
    assert [e for e in found if e[0] != "declaration"] == [
        ("expression", {"binary"}, None, None),
    ] * 3


def test_explicit_constructor_invocations():
    src = "class C { C() { this(1); } C(int x) { super(); } }"
    ctors = [keywords for category, keywords, _, _ in events(src)
             if category == "declaration" and "constructor" in keywords]
    assert ["chained_constructor" in keywords for keywords in ctors] == [True, False]
    assert count(src, "expression", {"super"}) == 1


def test_qualified_invocation_name_merging():
    assert events("class C { void f() { java.nio.file.Files.exists(p); } }") == [
        ("invocation", set(), "exists", None),
        ("type", set(), "Files", "java.nio.file.Files"),
        ("declaration", {"method", "member"}, "f", None),
        ("declaration", {"class"}, "C", None),
    ]


def test_annotations_with_arguments():
    src = '@Entity @Table(name = "t", schema = @Schema("s")) class C { @Id long id; }'
    names = {name for category, _, name, _ in events(src) if category == "annotation"}
    assert {"Entity", "Table", "Schema", "Id"} <= names


def test_text_block_and_string_escapes():
    src = 'class C { String a = """\nhello "x"\n"""; String b = "a\\"b"; }'
    assert count(src, "declaration", {"field"}) == 2
    assert count(src, "error") == 0


def test_lexer_numbers():
    numbers = [text for kind, text in tokenize("1_000 0x1F 1.5e-3 2f 3. x.y") if kind == "number"]
    assert numbers == ["1_000", "0x1F", "1.5e-3", "2f", "3"]


# (source, expected tokens before eof as (kind, text)), written by
# hand from the lexing rules: unterminated literals stop at the newline or
# at the end of input, a backslash takes the next character with it,
# unclosed comments and text blocks run to the end of input.
LEXER_CASES = [
    ('"ab\nc', [("string", '"ab'), ("identifier", "c")]),
    ('"ab', [("string", '"ab')]),
    ("'a\nb", [("char", "'a"), ("identifier", "b")]),
    ("'a", [("char", "'a")]),
    ('"a\\\nb" x', [("string", '"a\\\nb"'), ("identifier", "x")]),
    ('"\\', [("string", '"\\')]),
    ("a /* b", [("identifier", "a")]),
    ('x """ab\n"', [("identifier", "x"), ("string", '"""ab\n"')]),
    ("1.", [("number", "1"), ("punct", ".")]),
    ("x.y", [("identifier", "x"), ("punct", "."), ("identifier", "y")]),
    (".5", [("number", ".5")]),
    ("1e+5", [("number", "1e+5")]),
    ("0x1P-3", [("number", "0x1P-3")]),
    ("0x1p-3", [("number", "0x1p-3")]),
    ("1E-3f", [("number", "1E-3f")]),
    # In a hex literal e/E is a digit, not an exponent: it takes no sign.
    ("0xE+1", [("number", "0xE"), ("op", "+"), ("number", "1")]),
    ("0XFE-x", [("number", "0XFE"), ("op", "-"), ("identifier", "x")]),
    ("a>>>=b", [("identifier", "a"), ("op", ">>>="), ("identifier", "b")]),
    ("a...b", [("identifier", "a"), ("op", "..."), ("identifier", "b")]),
    ("a..b", [("identifier", "a"), ("punct", "."), ("punct", "."), ("identifier", "b")]),
    ("a....b", [("identifier", "a"), ("op", "..."), ("punct", "."), ("identifier", "b")]),
    ("x.5", [("identifier", "x"), ("number", ".5")]),
    ("A::b", [("identifier", "A"), ("op", "::"), ("identifier", "b")]),
    ("$x", [("identifier", "$x")]),
    ("café", [("identifier", "café")]),
    # A letter number (category Nl) starts an identifier, as in Java.
    ("Ⅻx", [("identifier", "Ⅻx")]),
    # Layout (whitespace and comments) gives no token, wherever it is.
    ("a\n", [("identifier", "a")]),
    ("a // c", [("identifier", "a")]),
    ("a//c", [("identifier", "a")]),
    ("/* c */\n", []),
    ("// c", []),
    (" \t\n", []),
    ("", []),
    ("a/**/b", [("identifier", "a"), ("identifier", "b")]),
    ("1./**/x", [("number", "1"), ("punct", "."), ("identifier", "x")]),
    ("a\r\nb\r\n", [("identifier", "a"), ("identifier", "b")]),
    ("a //c\r\nb", [("identifier", "a"), ("identifier", "b")]),
    ('"a\r\nb', [("string", '"a\r'), ("identifier", "b")]),
    # Python's \s: a no-break space and a line separator are whitespace.
    ("a\u00a0b", [("identifier", "a"), ("identifier", "b")]),
    ("a\u2028b", [("identifier", "a"), ("identifier", "b")]),
]


@pytest.mark.parametrize("source,expected", LEXER_CASES, ids=[c[0] for c in LEXER_CASES])
def test_lexer_edge_cases(source, expected):
    assert [(kind, text) for kind, text in tokenize(source)] == expected + [("eof", "")]


def test_interface_and_record():
    src = ("interface I<T> { T get(); default int n() { return 0; } }\n"
           "record Point(int x, int y) { int sum() { return x + y; } }")
    assert ("declaration", {"interface", "generic"}, "I", None) in events(src)
    assert ("declaration", {"class", "record"}, "Point", None) in events(src)
    assert count(src, "declaration", {"method", "member", "returning"}, "sum") == 1
    assert count(src, "error") == 0
    # a record's header is a parameter list: each component type is a use
    boxed = "record Pair(Integer x, java.util.List<String> y) { }"
    assert [(name, qualified) for category, _, name, qualified in events(boxed)
            if category == "type"] == [
        ("Integer", "Integer"), ("String", "String"), ("List", "java.util.List"),
    ]


def test_local_records_with_and_without_modifiers():
    src = "class A { void m() { final record R(int x) {} record S(int y) {} } }"
    records = [(name, keywords) for category, keywords, name, _ in events(src)
               if category == "declaration" and "record" in keywords]
    assert records == [("R", {"final", "class", "record"}), ("S", {"class", "record"})]
    assert count(src, "error") == 0


def test_statement_handlers_name_keywords():
    # parse_statement looks a handler up by the keyword's text, so a
    # handler named after anything else could never run
    words = [n.removeprefix("_stmt_") for n in dir(_Parser) if n.startswith("_stmt_")]
    assert words
    assert [w for w in words if w not in KEYWORDS] == []


@pytest.mark.parametrize("start", ["this.x", "x", "super.x", "new A().x"])
def test_expression_statement_missing_semicolon_recovers(start):
    # every expression statement recovers the same way: the tokens after
    # the missing ';' become an error, not a local variable declaration
    src = f"class A {{ void m() {{ {start} = 1 String y; }} }}"
    assert count(src, "declaration", {"variable"}) == 0
    assert count(src, "error")


# --- binary expressions: the level-by-level descent, kept as the reference --


def read(parser_class, src):
    """The events ``parser_class`` emits for ``src``."""
    parser = parser_class(tokenize(src))
    parser.parse_compilation_unit()
    return parser.events


class _LevelParser(_Parser):
    """The parser with binary expressions parsed one precedence level per
    call, operators of one level in a left-associative loop."""

    def _parse_binary(self, level: int = 0):
        if level >= len(BINARY_LEVELS):
            return self._parse_unary()
        ops = BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while True:
            kind, text = self.tok()
            if (kind, text) == ("keyword", "instanceof") and "instanceof" in ops:
                self.eat()
                self._emit("expression", _KW["instanceof"])
                if self._parse_type() is not None and self.tok()[0] == "identifier":
                    self.eat()  # pattern binding
                left = None
                continue
            if kind == "op" and text in ops and text != "instanceof":
                self.eat()
                self._emit("expression", _KW["binary equality" if text in ("==", "!=")
                                             else "binary"])
                self._parse_binary(level + 1)
                left = None
                continue
            return left


BINARY_OPS = [op for ops in BINARY_LEVELS for op in ops if op != "instanceof"]
INSTANCEOF = ["instanceof T", "instanceof T t", "instanceof List<String> l",
              "instanceof int[]", "instanceof Map<K, List<V>>"]
ATOMS = ["a", "b1", "2", "0x1F", '"s"', "'c'", "f(a < b, c > d)", "x.y", "arr[i]",
         "this", "List.<T>of()", "new A()", "(int) x", "(String) y", "(List<T>) z",
         "(a)", "-a", "!b", "~c", "++d", "e--", "(T & U) v"]


def _chain(rng: random.Random, depth: int = 0) -> str:
    """A random expression mixing every binary level, instanceof with and
    without a binding, ternaries, casts, prefix unary and generic angles."""
    parts = [_operand(rng, depth)]
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.15:
            parts.append(rng.choice(INSTANCEOF))
        else:
            parts.append(rng.choice(BINARY_OPS))
            parts.append(_operand(rng, depth))
    expr = " ".join(parts)
    if depth < 2 and rng.random() < 0.2:
        expr = f"{expr} ? {_chain(rng, depth + 1)} : {_chain(rng, depth + 1)}"
    return expr


def _operand(rng: random.Random, depth: int) -> str:
    roll = rng.random()
    if depth < 2 and roll < 0.1:
        return f"({_chain(rng, depth + 1)})"
    if depth < 2 and roll < 0.15:
        return f"({rng.choice(['int', 'String', 'List<T>'])}) {_operand(rng, depth + 1)}"
    if roll < 0.25:
        return rng.choice(["-", "!", "~", "+", "--"]) + _operand(rng, depth)
    return rng.choice(ATOMS)


# Cases the random chains may miss: one level repeated, every level in
# both orders, tighter operators after an instanceof.
HAND_CHAINS = [
    "a - b - c", "a * b + c * d - e", "a || b && c | d ^ e & f == g < h << i + j * k",
    "k * j + i << h < g == f & e ^ d | c && b || a",
    "x instanceof T + y", "x instanceof T t * y", "x instanceof T < y instanceof U",
    "a < b > c", "(a) + b", "-a * -b", "a ? b : c ? d : e",
]


def test_binary_chains_equal_level_by_level_descent():
    rng = random.Random(9)
    for expr in HAND_CHAINS + [_chain(rng) for _ in range(1500)]:
        src = f"class C {{ void m() {{ Object r = {expr}; g({expr}, {expr}); {expr}; }} }}"
        assert read(_Parser, src) == read(_LevelParser, src), expr


# --- lone names and literals: every expression level, kept as the reference --


class _FullChainParser(_Parser):
    """The parser with every expression read through all of its levels,
    without the shortcut that reads a lone name or literal directly."""

    def parse_expression(self):
        if self.depth >= MAX_DEPTH:
            self._too_deep()
            return None
        self.depth += 1
        expr = self._parse_ternary()
        kind, text = self.tok()
        if kind == "op" and text in ASSIGN_OPS:
            self.eat()
            self._emit("expression", _KW["assignment"])
            self.parse_expression()
            expr = None
        self.depth -= 1
        return expr


def _leaf_shapes(levels: int) -> list[str]:
    """Lone names and literals at the innermost of ``levels`` nestings."""
    return [
        "class C { int x = " + "f(" * levels + "a, 1, \"s\", 'c'" + ")" * levels + "; }",
        "class C { int[] x = " + "{" * levels + "a, 2" + "}" * levels + "; }",
        "class C { int x = " + "a ? " * levels + "b" + " : c" * levels + "; }",
        "class C { void m() { " + "{ " * levels + "y = a; g(b); return c;" + " }" * levels
        + " } }",
        "class C { void m() { " + "if (x) " * levels + "y = z[i];" + " } }",
    ]


@pytest.mark.parametrize("levels", [1, 31, 32, 33, 47, 48, 94, 95, 96, 97, 98, 99, 100])
def test_lone_names_and_literals_equal_the_full_expression_chain(levels):
    sources = _leaf_shapes(levels) + [
        path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.java"))
    ]
    for src in sources:
        assert read(_Parser, src) == read(_FullChainParser, src), src[:60]
