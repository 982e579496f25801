"""Parser behaviour: shape of trees, error recovery, hard syntax."""

import random
from pathlib import Path

import pytest

from kurev.errors import ParseError
from kurev.javaparse import parse_java
from kurev.javaparse.lexer import KEYWORDS, tokenize
from kurev.javaparse.nodes import Node
from kurev.javaparse.parser import ASSIGN_OPS, BINARY_LEVELS, MAX_DEPTH, _Parser

CORPUS = Path(__file__).parent / "fixtures" / "ku_corpus"


def kinds(tree):
    return [n.kind for n in tree.walk()]


def find_all(tree, kind):
    return [n for n in tree.walk() if n.kind == kind]


def test_minimal_class():
    tree = parse_java("class A {}")
    decls = find_all(tree, "class_declaration")
    assert len(decls) == 1
    assert decls[0].get("name") == "A"


def test_empty_file():
    tree = parse_java("")
    assert tree.kind == "compilation_unit"
    assert tree.children == []


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.java")), ids=lambda p: p.stem)
def test_corpus_trees_are_well_formed(path):
    for node in parse_java(path.read_text(encoding="utf-8")).walk():
        assert isinstance(node.kind, str)
        assert isinstance(node.fields, dict), node.kind
        assert isinstance(node.children, list), node.kind
        assert all(isinstance(c, Node) for c in node.children), node.kind


def test_binary_input_raises_with_offset():
    with pytest.raises(ParseError) as exc:
        parse_java("class A {\x00}")
    assert exc.value.offset == 9


def test_unbalanced_brace_recovers():
    tree = parse_java("class A { void f() { if (x { } }")
    assert find_all(tree, "class_declaration")
    # no crash is the contract; error nodes are allowed but not required
    assert tree.kind == "compilation_unit"


def test_nesting_past_max_depth_becomes_an_error_node():
    def fields_with_calls(levels):
        return parse_java("class C { int x = " + "f(" * levels + "1" + ")" * levels
                          + "; int y; }")

    # The field is one level and each expression three, so the argument
    # of the 32nd nested call takes levels 98 to 100, and that of the 33rd
    # (the innermost `1`) becomes the error node.
    assert MAX_DEPTH == 100
    assert find_all(fields_with_calls(32), "error") == []
    deeper = fields_with_calls(33)
    assert len(find_all(deeper, "error")) == 1
    assert len(find_all(deeper, "method_invocation")) == 33
    assert len(find_all(deeper, "field_declaration")) == 2  # the next member is read


def test_garbage_produces_error_nodes():
    tree = parse_java("%%% ??? )))")
    assert find_all(tree, "error")


def test_package_and_imports():
    tree = parse_java(
        "package a.b;\nimport java.util.List;\nimport java.util.*;\n"
        "import static java.lang.Math.max;\nclass C {}"
    )
    imports = find_all(tree, "import_declaration")
    assert [i.get("name") for i in imports] == ["java.util.List", "java.util", "java.lang.Math.max"]
    assert imports[1].get("wildcard") and not imports[0].get("wildcard")
    assert imports[2].get("static")


def test_method_fields():
    tree = parse_java(
        "class C { public static <T> T pick(T a, T b, int... rest) throws E1, E2 { return a; } }"
    )
    m = find_all(tree, "method_declaration")[0]
    assert m.get("name") == "pick"
    assert m.get("params") == 3
    assert m.get("varargs") is True
    assert m.get("generic") is True
    assert m.get("throws") == ("E1", "E2")
    assert set(m.get("modifiers")) == {"public", "static"}


def test_constructor_vs_method():
    tree = parse_java("class C { C() {} C make() { return new C(); } }")
    assert len(find_all(tree, "constructor_declaration")) == 1
    assert len(find_all(tree, "method_declaration")) == 1
    assert len(find_all(tree, "object_creation")) == 1


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
    tree = parse_java(src)
    for kind in [
        "while_statement", "do_statement", "for_statement",
        "enhanced_for_statement", "switch_statement",
        "synchronized_statement", "assert_statement", "if_statement",
    ]:
        assert find_all(tree, kind), kind
    assert len(find_all(tree, "break_statement")) == 3
    assert len(find_all(tree, "continue_statement")) == 1


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
    tree = parse_java(src)
    t = find_all(tree, "try_statement")[0]
    assert t.get("resources") == 2
    catches = find_all(tree, "catch_clause")
    assert [c.get("types") for c in catches] == [2, 1]
    assert find_all(tree, "finally_clause")


def test_generics_and_arrays():
    tree = parse_java(
        "class C { Map<String, List<Integer>> m; int[][] grid = new int[2][3]; }"
    )
    g = find_all(tree, "generic_type")
    assert any(t.get("name") == "Map" for t in g)
    arr = find_all(tree, "array_type")
    assert arr and arr[0].get("dims") == 2
    creation = find_all(tree, "array_creation")[0]
    assert creation.get("dims") == 2


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
    tree = parse_java(src)
    lambdas = find_all(tree, "lambda_expression")
    assert len(lambdas) == 3
    # inferred parameters are bare names, so they give no formal_parameter
    assert not any(find_all(lam, "formal_parameter") for lam in lambdas)
    refs = find_all(tree, "method_reference")
    assert {r.get("name") for r in refs} == {"new", "trim"}
    assert {r.get("qualifier") for r in refs} == {"ArrayList", "String"}


def test_anonymous_class_and_enum():
    src = """
    enum Mode {
      FAST, SLOW { @Override public String toString() { return "s"; } };
      int cost() { return 1; }
    }
    class C { Runnable r = new Runnable() { public void run() {} }; }
    """
    tree = parse_java(src)
    assert len(find_all(tree, "enum_constant")) == 2
    anon = [n for n in find_all(tree, "object_creation") if n.get("anonymous")]
    assert len(anon) == 1 and anon[0].get("type_name") == "Runnable"


def test_casts_and_instanceof():
    tree = parse_java(
        "class C { void f(Object o) { int x = (int) 1.5; String s = (String) o;"
        " if (o instanceof Number) {} } }"
    )
    casts = find_all(tree, "cast_expression")
    assert len(casts) == 2
    first_targets = [c.children[0].kind for c in casts]
    assert "primitive_type" in first_targets and "named_type" in first_targets
    assert find_all(tree, "instanceof_expression")


def test_parenthesized_expression_not_cast():
    tree = parse_java("class C { int f(int a, int b) { return (a) + b; } }")
    assert not find_all(tree, "cast_expression")


def test_less_than_not_generics():
    tree = parse_java("class C { boolean f(int a, int b) { return a < b && b > a; } }")
    ops = [n.get("op") for n in find_all(tree, "binary_expression")]
    assert ops.count("<") == 1 and ops.count(">") == 1


def test_explicit_constructor_invocations():
    tree = parse_java("class C { C() { this(1); } C(int x) { super(); } }")
    targets = [n.get("target") for n in find_all(tree, "explicit_constructor_invocation")]
    assert sorted(targets) == ["super", "this"]


def test_qualified_invocation_name_merging():
    tree = parse_java("class C { void f() { java.nio.file.Files.exists(p); } }")
    inv = find_all(tree, "method_invocation")[0]
    assert inv.get("name") == "exists"
    assert inv.get("qualifier") == "java.nio.file.Files"


def test_annotations_with_arguments():
    tree = parse_java(
        '@Entity @Table(name = "t", schema = @Schema("s")) class C { @Id long id; }'
    )
    names = {a.get("name") for a in find_all(tree, "annotation")}
    assert {"Entity", "Table", "Schema", "Id"} <= names


def test_text_block_and_string_escapes():
    src = 'class C { String a = """\nhello "x"\n"""; String b = "a\\"b"; }'
    tree = parse_java(src)
    assert len(find_all(tree, "variable_declarator")) == 2


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
    tree = parse_java(
        "interface I<T> { T get(); default int n() { return 0; } }\n"
        "record Point(int x, int y) { int sum() { return x + y; } }"
    )
    assert find_all(tree, "interface_declaration")[0].get("generic")
    rec = find_all(tree, "record_declaration")[0]
    assert rec.get("params") == 2


def test_local_records_with_and_without_modifiers():
    tree = parse_java(
        "class A { void m() { final record R(int x) {} record S(int y) {} } }"
    )
    records = find_all(tree, "record_declaration")
    assert [(r.get("name"), r.get("modifiers")) for r in records] == [
        ("R", ("final",)), ("S", ()),
    ]
    assert not find_all(tree, "error")


def test_statement_handlers_name_keywords():
    # parse_statement looks a handler up by the keyword's text, so a
    # handler named after anything else could never run
    words = [n.removeprefix("_stmt_") for n in dir(_Parser) if n.startswith("_stmt_")]
    assert words
    assert [w for w in words if w not in KEYWORDS] == []


@pytest.mark.parametrize("start", ["this.x", "x", "super.x", "new A().x"])
def test_expression_statement_missing_semicolon_recovers(start):
    # every expression statement recovers the same way: the tokens after
    # the missing ';' become an error node, not a local variable declaration
    tree = parse_java(f"class A {{ void m() {{ {start} = 1 String y; }} }}")
    assert not find_all(tree, "local_variable_declaration")
    assert find_all(tree, "error")


# --- binary expressions: the level-by-level descent, kept as the reference --


class _LevelParser(_Parser):
    """The parser with binary expressions parsed one precedence level per
    call, operators of one level in a left-associative loop."""

    def _parse_binary(self, level: int = 0) -> Node:
        if level >= len(BINARY_LEVELS):
            return self._parse_unary()
        ops = BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while True:
            kind, text = self.tok()
            if (kind, text) == ("keyword", "instanceof") and "instanceof" in ops:
                self.eat()
                node = Node("instanceof_expression")
                node.children.append(left)
                itype = self._parse_type()
                if itype is not None:
                    node.children.append(itype)
                    if self.tok()[0] == "identifier":  # pattern binding
                        self.eat()
                left = node
                continue
            if kind == "op" and text in ops and text != "instanceof":
                self.eat()
                node = Node("binary_expression", {"op": text})
                node.children.append(left)
                node.children.append(self._parse_binary(level + 1))
                left = node
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
        climbing = _Parser(tokenize(src)).parse_compilation_unit()
        levels = _LevelParser(tokenize(src)).parse_compilation_unit()
        assert climbing == levels, expr


# --- lone names and literals: every expression level, kept as the reference --


class _FullChainParser(_Parser):
    """The parser with every expression read through all of its levels,
    without the shortcut that builds a lone name or literal directly."""

    def parse_expression(self) -> Node:
        if self.depth >= MAX_DEPTH:
            return self._too_deep()
        self.depth += 1
        node = self._parse_ternary()
        kind, text = self.tok()
        if kind == "op" and text in ASSIGN_OPS:
            self.eat()
            node = Node("assignment_expression", {}, [node, self.parse_expression()])
        self.depth -= 1
        return node


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
        shortcut = _Parser(tokenize(src)).parse_compilation_unit()
        assert shortcut == _FullChainParser(tokenize(src)).parse_compilation_unit(), src[:60]
