"""One short source per Java construct that the KU corpus does not hold.

Each case states the parse tree's node kinds in pre-order and the
detector's evidence for the source, both worked out by hand from the
grammar in ``javaparse.parser`` and the rules in ``ku_catalog.yaml``.
Capabilities are (KU, capability) pairs with a nonzero count.
"""

import pytest

from kurev.detector import _Collector, detect_capabilities, detect_kus, parse_java
from tests.test_javaparse import find_all, kinds


def events(source):
    """(category, keywords, name, qualified) of every detector event."""
    collector = _Collector()
    collector.run(parse_java(source))
    return [(e.category, set(e.keywords), e.name, e.qualified) for e in collector.events]


def capabilities(source):
    hits = detect_capabilities(source)
    return {(c.ku.index, c.cap_index): n for c, n in hits.items() if n}


# --- detector paths ------------------------------------------------------------


def test_anonymous_class_is_a_declaration_and_its_body_is_visited():
    src = "class A { Task t = new Task() { public void run() { } }; }"
    assert kinds(parse_java(src)) == [
        "compilation_unit", "class_declaration", "field_declaration", "named_type",
        "variable_declarator", "object_creation", "named_type",
        "method_declaration", "primitive_type", "block",
    ]
    found = events(src)
    assert ("invocation", {"new"}, "Task", "Task") in found
    assert ("declaration", {"anonymous_class"}, "Task", None) in found
    assert ("declaration", {"method", "public", "member"}, "run", None) in found
    # field (K1.1), anonymous class (K7.1), public method (K5.6)
    assert capabilities(src) == {(1, 1): 1, (7, 1): 1, (5, 6): 1}


def test_constructor_reference_is_a_creation_of_its_qualifier():
    src = "class A { Object a = A::new; Object b = java.util.ArrayList::new; }"
    refs = find_all(parse_java(src), "method_reference")
    assert [(r.get("name"), r.get("qualifier")) for r in refs] == [
        ("new", "A"), ("new", "java.util.ArrayList"),
    ]
    found = events(src)
    for event in (
        ("expression", {"method_reference"}, None, None),
        ("invocation", {"new"}, "A", None),
        ("type", set(), "A", None),
        ("invocation", {"new"}, "ArrayList", "java.util.ArrayList"),
        ("type", set(), "ArrayList", "java.util.ArrayList"),
    ):
        assert event in found, event
    # two fields (K1.1), two method references (K9.1), new ArrayList (K8.2)
    assert capabilities(src) == {(1, 1): 2, (9, 1): 2, (8, 2): 1}


def test_class_declared_in_a_block_is_local():
    src = "class A { void m() { class Local { } } }"
    assert kinds(parse_java(src)) == [
        "compilation_unit", "class_declaration", "method_declaration",
        "primitive_type", "block", "class_declaration",
    ]
    assert ("declaration", {"class", "local_class"}, "Local", None) in events(src)
    assert capabilities(src) == {(7, 1): 1}


def test_final_class_with_final_fields_set_by_a_constructor_is_immutable():
    src = "final class P { private final int x; P(int x) { this.x = x; } }"
    assert ("declaration", {"final", "class", "immutable_class"}, "P", None) in events(src)
    # immutable (K5.8, K7.4), final class and final field (K7.2), field
    # (K1.1), private field (K5.6), the assignment (K2.1)
    assert capabilities(src) == {
        (5, 8): 1, (7, 4): 1, (7, 2): 2, (1, 1): 1, (5, 6): 1, (2, 1): 1,
    }
    mutable = "final class Q { private int x; Q(int x) { this.x = x; } }"
    assert ("declaration", {"final", "class"}, "Q", None) in events(mutable)


def test_private_constructor_and_static_factory_make_a_singleton():
    src = "class S { private S() { } static S instance() { return new S(); } }"
    assert kinds(parse_java(src)) == [
        "compilation_unit", "class_declaration", "constructor_declaration", "block",
        "method_declaration", "named_type", "block", "return_statement",
        "object_creation", "named_type",
    ]
    assert ("declaration", {"class", "singleton_class"}, "S", None) in events(src)
    # singleton (K7.4), private constructor (K5.6), static method (K5.2)
    assert capabilities(src) == {(7, 4): 1, (5, 6): 1, (5, 2): 1}


def test_one_parameter_setter_is_an_accessor():
    src = "class B { int x; void setX(int v) { x = v; } }"
    assert (
        "declaration", {"method", "member", "parameterized", "accessor_method"}, "setX", None
    ) in events(src)
    # field (K1.1), setter (K5.7), the assignment (K2.1)
    assert capabilities(src) == {(1, 1): 1, (5, 7): 1, (2, 1): 1}


def test_method_with_type_parameters_is_generic():
    src = "class G { <T> T id(T t) { return t; } }"
    (method,) = find_all(parse_java(src), "method_declaration")
    assert method.get("generic") is True
    assert (
        "declaration", {"method", "returning", "generic", "member", "parameterized"}, "id", None
    ) in events(src)
    # generic method (K8.1), parameterized returning method (K5.1)
    assert capabilities(src) == {(8, 1): 1, (5, 1): 1}


# --- parser constructs -----------------------------------------------------------


def test_annotation_type_with_default_values():
    src = '@interface Tag { int level() default 1; String[] names() default {"a"}; }'
    assert kinds(parse_java(src)) == [
        "compilation_unit", "annotation_declaration",
        "method_declaration", "primitive_type", "literal",
        "method_declaration", "array_type", "named_type", "array_initializer", "literal",
    ]
    assert ("declaration", {"annotation_type"}, "Tag", None) in events(src)
    # the String[] type and the {"a"} initializer (K3.1)
    assert capabilities(src) == {(3, 1): 2}


def test_labeled_statements_and_labeled_jumps():
    src = (
        "class A { void m() { outer: for (;;) {"
        " inner: for (;;) { continue outer; } break outer; } } }"
    )
    assert kinds(parse_java(src)) == [
        "compilation_unit", "class_declaration", "method_declaration",
        "primitive_type", "block", "labeled_statement", "for_statement", "block",
        "labeled_statement", "for_statement", "block", "continue_statement",
        "break_statement",
    ]
    # two for loops (K4.2), the break (K4.4), the continue (K4.5)
    assert capabilities(src) == {(4, 2): 2, (4, 4): 1, (4, 5): 1}


def test_switch_expression_with_arrow_arms_and_yield():
    src = (
        "class A { int m(int k) { int v = switch (k) {"
        " case 1 -> 10; default -> { yield k; } }; return v; } }"
    )
    assert kinds(parse_java(src)) == [
        "compilation_unit", "class_declaration", "method_declaration",
        "primitive_type", "formal_parameter", "primitive_type", "block",
        "local_variable_declaration", "primitive_type", "variable_declarator",
        "switch_statement", "name", "case_label", "expression_statement", "literal",
        "case_label", "block", "yield_statement", "name",
        "return_statement", "name",
    ]
    # parameterized returning method (K5.1), the local (K1.1), switch (K2.4)
    assert capabilities(src) == {(5, 1): 1, (1, 1): 1, (2, 4): 1}


def test_sealed_and_non_sealed_types():
    src = (
        "sealed interface Shape permits Circle, Square {}"
        " final class Circle implements Shape {}"
        " non-sealed class Square implements Shape {}"
    )
    tree = parse_java(src)
    assert kinds(tree) == [
        "compilation_unit", "interface_declaration", "named_type", "named_type",
        "class_declaration", "named_type", "class_declaration", "named_type",
    ]
    decls = find_all(tree, "interface_declaration") + find_all(tree, "class_declaration")
    assert [(d.get("name"), d.get("modifiers")) for d in decls] == [
        ("Shape", ()), ("Circle", ("final",)), ("Square", ()),
    ]
    assert capabilities(src) == {(7, 2): 1}  # final class


def test_permits_clause_keeps_the_rest_of_the_file():
    src = "sealed interface S permits A {} class After { void m() { for (;;) {} } }"
    assert "error" not in kinds(parse_java(src))
    # the for loop after the sealed type (K4) counts, as without the clause
    assert detect_kus(src)[3] == 1
    assert detect_kus(src) == detect_kus(src.replace(" permits A", ""))


def test_enum_constants_with_arguments_and_a_body():
    src = (
        "enum Coin { PENNY(1), DIME(10) { int bonus() { return 1; } };"
        " final int cents; Coin(int c) { cents = c; } }"
    )
    assert kinds(parse_java(src)) == [
        "compilation_unit", "enum_declaration",
        "enum_constant", "literal",
        "enum_constant", "literal", "method_declaration", "primitive_type", "block",
        "return_statement", "literal",
        "field_declaration", "primitive_type", "variable_declarator",
        "constructor_declaration", "formal_parameter", "primitive_type", "block",
        "expression_statement", "assignment_expression", "name", "name",
    ]
    # the enum and its two constants (K7.3), field (K1.1), final field
    # (K7.2), the assignment (K2.1)
    assert capabilities(src) == {(7, 3): 3, (1, 1): 1, (7, 2): 1, (2, 1): 1}


def test_array_creation_with_an_initializer():
    src = "class A { int[] xs = new int[]{1, 2}; int[][] grid = new int[][]{{1}}; }"
    tree = parse_java(src)
    assert kinds(tree) == [
        "compilation_unit", "class_declaration",
        "field_declaration", "array_type", "primitive_type", "variable_declarator",
        "array_creation", "primitive_type", "array_initializer", "literal", "literal",
        "field_declaration", "array_type", "primitive_type", "variable_declarator",
        "array_creation", "primitive_type", "array_initializer", "array_initializer",
        "literal",
    ]
    assert [n.get("dims") for n in find_all(tree, "array_creation")] == [1, 2]
    # two fields (K1.1); one-dimensional type, creation and three
    # initializers (K3.1); two-dimensional type and creation (K3.2)
    assert capabilities(src) == {(1, 1): 2, (3, 1): 5, (3, 2): 2}


def test_primitive_class_literal():
    src = "class A { Object a = int.class, b = int[].class; }"
    tree = parse_java(src)
    assert kinds(tree) == [
        "compilation_unit", "class_declaration", "field_declaration", "named_type",
        "variable_declarator", "name", "variable_declarator", "name",
    ]
    assert [n.get("name") for n in find_all(tree, "name")] == ["int", "int"]
    assert capabilities(src) == {(1, 1): 1}


def test_for_with_expression_lists_in_init_and_update():
    src = "class A { void m() { int i, j; for (i = 0, j = 9; i < j; i++, j--) { } } }"
    assert kinds(parse_java(src)) == [
        "compilation_unit", "class_declaration", "method_declaration",
        "primitive_type", "block",
        "local_variable_declaration", "primitive_type", "variable_declarator",
        "variable_declarator",
        "for_statement", "assignment_expression", "name", "literal",
        "assignment_expression", "name", "literal", "binary_expression", "name", "name",
        "unary_expression", "name", "unary_expression", "name", "block",
    ]
    # the local (K1.1); two assignments, one binary, two unary (K2.1); for (K4.2)
    assert capabilities(src) == {(1, 1): 1, (2, 1): 5, (4, 2): 1}


def test_try_with_an_existing_variable_as_resource():
    src = "class A { void m(java.io.Reader r) throws Exception { try (r) { } } }"
    tree = parse_java(src)
    assert kinds(tree) == [
        "compilation_unit", "class_declaration", "method_declaration",
        "primitive_type", "formal_parameter", "named_type", "named_type", "block",
        "try_statement", "resource", "name", "block",
    ]
    (stmt,) = find_all(tree, "try_statement")
    assert stmt.get("resources") == 1
    assert ("statement", {"try", "try_with_resources"}, None, None) in events(src)
    # try (K11.1), try-with-resources (K11.3), throwing method (K11.5)
    assert capabilities(src) == {(11, 1): 1, (11, 3): 1, (11, 5): 1}


def test_lambda_with_generic_parameter_types():
    src = "class A { Object f = (java.util.Map<String, Integer> m, int k) -> k; }"
    tree = parse_java(src)
    assert kinds(tree) == [
        "compilation_unit", "class_declaration", "field_declaration", "named_type",
        "variable_declarator", "lambda_expression",
        "formal_parameter", "generic_type", "named_type", "named_type",
        "formal_parameter", "primitive_type", "name",
    ]
    # the field (K1.1), Map<String, Integer> (K8.1), the lambda (K10.1)
    assert capabilities(src) == {(1, 1): 1, (8, 1): 1, (10, 1): 1}


def test_typed_lambda_parameters_count_as_method_parameters_do():
    param = "java.util.function.Predicate<String> p"
    as_lambda = capabilities(f"class A {{ Object f = ({param}, int k) -> k; }}")
    as_method = capabilities(f"class A {{ void m({param}) {{ }} }}")
    # Predicate (K9.1) and its type argument (K8.1), in both forms
    for cap in ((8, 1), (9, 1)):
        assert as_lambda[cap] == as_method[cap] == 1, cap
    assert as_lambda == {(1, 1): 1, (8, 1): 1, (9, 1): 1, (10, 1): 1}


def test_one_typed_lambda_parameter_is_not_two_names():
    src = "class A { Object f = (String s) -> s; }"
    (lam,) = find_all(parse_java(src), "lambda_expression")
    assert kinds(lam) == [
        "lambda_expression", "formal_parameter", "named_type", "name",
    ]
    assert [t.get("name") for t in find_all(lam, "named_type")] == ["String"]


def test_compact_record_constructor_keeps_its_body():
    src = "record P(int x) { P { if (x < 0) throw new IllegalArgumentException(); } }"
    tree = parse_java(src)
    assert kinds(tree) == [
        "compilation_unit", "record_declaration", "formal_parameter", "primitive_type",
        "constructor_declaration", "block", "if_statement", "binary_expression",
        "name", "literal", "throw_statement", "object_creation", "named_type",
    ]
    (ctor,) = find_all(tree, "constructor_declaration")
    assert ctor.get("params") == 0
    # the comparison (K2.1), if (K2.3), throw (K11.5), IllegalArgumentException
    # (K11.6): the canonical form's evidence less its `this.x = x`
    assert capabilities(src) == {(2, 1): 1, (2, 3): 1, (11, 5): 1, (11, 6): 1}


def _returning(call):
    return f"import java.util.*; class A {{ <T> Object m() {{ return {call}; }} }}"


@pytest.mark.parametrize("typed, plain", [
    ("Collections.<String>emptyList()", "Collections.emptyList()"),
    ("Optional.<String>empty().isPresent()", "Optional.empty().isPresent()"),
    ("this.<T>m()", "this.m()"),
])
def test_explicit_type_arguments_on_a_call_count_as_the_plain_call(typed, plain):
    assert "binary_expression" not in kinds(parse_java(_returning(typed)))
    assert capabilities(_returning(typed)) == capabilities(_returning(plain))


def test_a_calls_type_arguments_are_type_uses():
    (call,) = find_all(parse_java(_returning("Collections.<String>emptyList()")),
                       "method_invocation")
    assert (call.get("name"), call.get("qualifier")) == ("emptyList", "Collections")
    assert kinds(call) == ["method_invocation", "named_type"]
    # an argument type adds what any use of it adds: Optional (K10.3)
    expected = capabilities(_returning("Collections.emptyList()"))
    expected[(10, 3)] = 1
    assert capabilities(_returning("Collections.<Optional<String>>emptyList()")) == expected


# --- variables of for loops and try resources read as locals -----------------------

JPA = "import javax.persistence.*; import java.io.*; import java.util.*; "


def test_for_init_modifiers_count_as_a_local_variables_do():
    src = JPA + "class A { void m() { for (final int i = 0; i < 3; i++) { } } }"
    tree = parse_java(src)
    (init,) = find_all(tree, "local_variable_declaration")
    assert init.get("modifiers") == ("final",)
    assert find_all(tree, "assignment_expression") == []
    assert ("declaration", {"variable", "final"}, None, None) in events(src)
    # the local (K1.1), final (K7.2), for (K4.2); `<` and `++` (K2.1), not
    # the initializer's `=`
    assert capabilities(src) == {(1, 1): 1, (7, 2): 1, (4, 2): 1, (2, 1): 2}


def test_annotated_for_init_variable_counts_its_annotation():
    src = JPA + "class A { void m() { for (@Id int i = 0; i < 3; i++) { } } }"
    # the local (K1.1), @Id (K19.1), for (K4.2), `<` and `++` (K2.1)
    assert capabilities(src) == {(1, 1): 1, (19, 1): 1, (4, 2): 1, (2, 1): 2}


@pytest.mark.parametrize("plain", [
    "for (String s : list) { }",
    "try (Reader r = new StringReader(\"\")) { }",
])
def test_annotated_enhanced_for_and_resource_variables_count_their_annotations(plain):
    def source(stmt):
        return JPA + f"class A {{ void m(List<String> list) throws Exception {{ {stmt} }} }}"

    annotated = source(plain.replace("(", "(@Id ", 1))
    (anno,) = find_all(parse_java(annotated), "annotation")
    assert anno.get("name") == "Id"
    expected = capabilities(source(plain))
    expected[(19, 1)] = 1  # @Id
    assert capabilities(annotated) == expected


# --- an instanceof pattern's binding reads as a local's head -------------------------


def test_a_modifier_on_an_instanceof_binding_keeps_the_rest_of_the_condition():
    plain = ("class A { void m(Object o) { int x; "
             "if (o instanceof String s && s.isEmpty()) { x = 1; } } }")
    final = plain.replace("instanceof ", "instanceof final ")
    assert "error" not in kinds(parse_java(final))
    (pattern,) = find_all(parse_java(final), "instanceof_expression")
    assert kinds(pattern) == ["instanceof_expression", "name", "named_type"]
    # the local (K1.1), `&&` and `=` (K2.1), if (K2.3), as without `final`
    assert capabilities(final) == capabilities(plain) == {(1, 1): 1, (2, 1): 2, (2, 3): 1}
    annotated = JPA + plain.replace("instanceof ", "instanceof @Id ")
    assert capabilities(annotated) == {(1, 1): 1, (2, 1): 2, (2, 3): 1, (19, 1): 1}
