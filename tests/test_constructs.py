"""One short source per Java construct that the KU corpus does not hold.

Each case states the parser's events for the source, as a multiset, and
the detector's evidence, both worked out by hand from the grammar in
``javaparse.parser`` and the rules in ``ku_catalog.yaml``. Capabilities
are (KU, capability) pairs with a nonzero count.
"""

from collections import Counter

import pytest

from kurev.detector import detect_capabilities, detect_kus, iter_events


def events(source):
    """(category, keywords, name, qualified) of every detector event."""
    return [(category, set(keywords), name, qualified)
            for category, keywords, name, qualified in iter_events(source)]


def multiset(found):
    """Events (category, keywords, name, qualified) as a multiset."""
    return Counter((category, tuple(sorted(keywords)), name, qualified)
                   for category, keywords, name, qualified in found)


def event_multiset(source):
    """The events of ``source`` as a multiset."""
    return multiset(iter_events(source))


def capabilities(source):
    hits = detect_capabilities(source)
    return {(c.ku.index, c.cap_index): n for c, n in hits.items() if n}


# --- detector paths ------------------------------------------------------------


def test_anonymous_class_is_a_declaration_and_its_body_is_visited():
    src = "class A { Task t = new Task() { public void run() { } }; }"
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["field", "member"], None, None),
        ("type", [], "Task", "Task"),
        ("invocation", ["new"], "Task", "Task"),
        ("declaration", ["anonymous_class"], "Task", None),
        ("type", [], "Task", "Task"),
        ("declaration", ["method", "public", "member"], "run", None),
    ])
    # field (K1.1), anonymous class (K7.1), public method (K5.6)
    assert capabilities(src) == {(1, 1): 1, (7, 1): 1, (5, 6): 1}


def test_constructor_reference_is_a_creation_of_its_qualifier():
    src = "class A { Object a = A::new; Object b = java.util.ArrayList::new; }"
    # each reference's qualifier is the type it creates, and a type use
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["field", "member"], None, None),
        ("type", [], "Object", "Object"),
        ("expression", ["method_reference"], None, None),
        ("invocation", ["new"], "A", None),
        ("type", [], "A", None),
        ("declaration", ["field", "member"], None, None),
        ("type", [], "Object", "Object"),
        ("expression", ["method_reference"], None, None),
        ("invocation", ["new"], "ArrayList", "java.util.ArrayList"),
        ("type", [], "ArrayList", "java.util.ArrayList"),
    ])
    # two fields (K1.1), two method references (K9.1), new ArrayList (K8.2)
    assert capabilities(src) == {(1, 1): 2, (9, 1): 2, (8, 2): 1}


def test_class_declared_in_a_block_is_local():
    src = "class A { void m() { class Local { } } }"
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["method", "member"], "m", None),
        ("declaration", ["class", "local_class"], "Local", None),
    ])
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
    assert event_multiset(src) == multiset([
        ("declaration", ["class", "singleton_class"], "S", None),
        ("declaration", ["constructor", "member", "private"], "S", None),
        ("declaration", ["method", "member", "returning", "static"], "instance", None),
        ("type", [], "S", "S"),
        ("invocation", ["new"], "S", "S"),
        ("type", [], "S", "S"),
    ])
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
    # the type parameter <T> is no type use; the return and parameter types are
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "G", None),
        ("declaration", ["method", "returning", "generic", "member", "parameterized"],
         "id", None),
        ("type", [], "T", "T"),
        ("type", [], "T", "T"),
    ])
    # generic method (K8.1), parameterized returning method (K5.1)
    assert capabilities(src) == {(8, 1): 1, (5, 1): 1}


# --- parser constructs -----------------------------------------------------------


def test_annotation_type_with_default_values():
    src = '@interface Tag { int level() default 1; String[] names() default {"a"}; }'
    assert event_multiset(src) == multiset([
        ("declaration", ["annotation_type"], "Tag", None),
        ("declaration", ["method", "member", "returning"], "level", None),
        ("declaration", ["method", "member", "returning"], "names", None),
        ("type", ["array"], None, None),
        ("type", [], "String", "String"),
        ("expression", ["array_initializer"], None, None),
    ])
    # the String[] type and the {"a"} initializer (K3.1)
    assert capabilities(src) == {(3, 1): 2}


def test_labeled_statements_and_labeled_jumps():
    src = (
        "class A { void m() { outer: for (;;) {"
        " inner: for (;;) { continue outer; } break outer; } } }"
    )
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["method", "member"], "m", None),
        ("statement", ["for"], None, None),
        ("statement", ["for"], None, None),
        ("statement", ["continue"], None, None),
        ("statement", ["break"], None, None),
    ])
    # two for loops (K4.2), the break (K4.4), the continue (K4.5)
    assert capabilities(src) == {(4, 2): 2, (4, 4): 1, (4, 5): 1}


def test_switch_expression_with_arrow_arms_and_yield():
    src = (
        "class A { int m(int k) { int v = switch (k) {"
        " case 1 -> 10; default -> { yield k; } }; return v; } }"
    )
    # case labels, the arms' values and `yield k` give no event
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["method", "member", "parameterized", "returning"], "m", None),
        ("declaration", ["variable"], None, None),
        ("statement", ["switch"], None, None),
    ])
    # parameterized returning method (K5.1), the local (K1.1), switch (K2.4)
    assert capabilities(src) == {(5, 1): 1, (1, 1): 1, (2, 4): 1}


def test_sealed_and_non_sealed_types():
    src = (
        "sealed interface Shape permits Circle, Square {}"
        " final class Circle implements Shape {}"
        " non-sealed class Square implements Shape {}"
    )
    # `sealed` and `non-sealed` are no modifiers; the permitted types are uses
    assert event_multiset(src) == multiset([
        ("declaration", ["interface"], "Shape", None),
        ("type", [], "Circle", "Circle"),
        ("type", [], "Square", "Square"),
        ("declaration", ["class", "final"], "Circle", None),
        ("type", [], "Shape", "Shape"),
        ("declaration", ["class"], "Square", None),
        ("type", [], "Shape", "Shape"),
    ])
    assert capabilities(src) == {(7, 2): 1}  # final class


def test_permits_clause_keeps_the_rest_of_the_file():
    src = "sealed interface S permits A {} class After { void m() { for (;;) {} } }"
    assert "error" not in {category for category, _, _, _ in iter_events(src)}
    # the for loop after the sealed type (K4) counts, as without the clause
    assert detect_kus(src)[3] == 1
    assert detect_kus(src) == detect_kus(src.replace(" permits A", ""))


def test_enum_constants_with_arguments_and_a_body():
    src = (
        "enum Coin { PENNY(1), DIME(10) { int bonus() { return 1; } };"
        " final int cents; Coin(int c) { cents = c; } }"
    )
    assert event_multiset(src) == multiset([
        ("declaration", ["enum"], "Coin", None),
        ("declaration", ["enum_constant"], "PENNY", None),
        ("declaration", ["enum_constant"], "DIME", None),
        ("declaration", ["method", "member", "returning"], "bonus", None),
        ("declaration", ["field", "final", "member"], None, None),
        ("declaration", ["constructor", "member", "parameterized"], "Coin", None),
        ("expression", ["assignment"], None, None),
    ])
    # the enum and its two constants (K7.3), field (K1.1), final field
    # (K7.2), the assignment (K2.1)
    assert capabilities(src) == {(7, 3): 3, (1, 1): 1, (7, 2): 1, (2, 1): 1}


def test_array_creation_with_an_initializer():
    src = "class A { int[] xs = new int[]{1, 2}; int[][] grid = new int[][]{{1}}; }"
    # a created array's type is the creation's: no array type use of its own
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["field", "member"], None, None),
        ("type", ["array"], None, None),
        ("expression", ["array_creation"], None, None),
        ("expression", ["array_initializer"], None, None),
        ("declaration", ["field", "member"], None, None),
        ("type", ["multidim_array"], None, None),
        ("expression", ["multidim_array_creation"], None, None),
        ("expression", ["array_initializer"], None, None),
        ("expression", ["array_initializer"], None, None),
    ])
    # two fields (K1.1); one-dimensional type, creation and three
    # initializers (K3.1); two-dimensional type and creation (K3.2)
    assert capabilities(src) == {(1, 1): 2, (3, 1): 5, (3, 2): 2}


def test_primitive_class_literal():
    src = "class A { Object a = int.class, b = int[].class; }"
    # each literal reads as the name `int`, which gives no event, and no error
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["field", "member"], None, None),
        ("type", [], "Object", "Object"),
    ])
    assert capabilities(src) == {(1, 1): 1}


def test_for_with_expression_lists_in_init_and_update():
    src = "class A { void m() { int i, j; for (i = 0, j = 9; i < j; i++, j--) { } } }"
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["method", "member"], "m", None),
        ("declaration", ["variable"], None, None),
        ("statement", ["for"], None, None),
        ("expression", ["assignment"], None, None),
        ("expression", ["assignment"], None, None),
        ("expression", ["binary"], None, None),
        ("expression", ["unary"], None, None),
        ("expression", ["unary"], None, None),
    ])
    # the local (K1.1); two assignments, one binary, two unary (K2.1); for (K4.2)
    assert capabilities(src) == {(1, 1): 1, (2, 1): 5, (4, 2): 1}


def test_try_with_an_existing_variable_as_resource():
    src = "class A { void m(java.io.Reader r) throws Exception { try (r) { } } }"
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["method", "member", "parameterized", "throwing"], "m", None),
        ("type", [], "Reader", "java.io.Reader"),
        ("type", [], "Exception", "Exception"),
        ("statement", ["try", "try_with_resources"], None, None),
    ])
    # try (K11.1), try-with-resources (K11.3), throwing method (K11.5)
    assert capabilities(src) == {(11, 1): 1, (11, 3): 1, (11, 5): 1}


def test_lambda_with_generic_parameter_types():
    src = "class A { Object f = (java.util.Map<String, Integer> m, int k) -> k; }"
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["field", "member"], None, None),
        ("type", [], "Object", "Object"),
        ("expression", ["lambda"], None, None),
        ("type", ["generic"], "Map", "java.util.Map"),
        ("type", [], "String", "String"),
        ("type", [], "Integer", "Integer"),
    ])
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
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["field", "member"], None, None),
        ("type", [], "Object", "Object"),
        ("expression", ["lambda"], None, None),
        ("type", [], "String", "String"),
    ])


def test_compact_record_constructor_keeps_its_body():
    src = "record P(int x) { P { if (x < 0) throw new IllegalArgumentException(); } }"
    # the compact constructor has no parameter of its own
    assert event_multiset(src) == multiset([
        ("declaration", ["class", "record"], "P", None),
        ("declaration", ["constructor", "member"], "P", None),
        ("statement", ["if"], None, None),
        ("expression", ["binary"], None, None),
        ("statement", ["throw"], None, None),
        ("invocation", ["new"], "IllegalArgumentException", "IllegalArgumentException"),
        ("type", [], "IllegalArgumentException", "IllegalArgumentException"),
    ])
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
    assert not any("binary" in keywords for _, keywords, _, _ in iter_events(_returning(typed)))
    assert capabilities(_returning(typed)) == capabilities(_returning(plain))


def test_a_calls_type_arguments_are_type_uses():
    # the call of emptyList on Collections, and its type argument String
    assert event_multiset(_returning("Collections.<String>emptyList()")) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["generic", "member", "method", "returning"], "m", None),
        ("type", [], "Object", "Object"),
        ("invocation", [], "emptyList", None),
        ("type", [], "Collections", None),
        ("type", [], "String", "String"),
    ])
    # an argument type adds what any use of it adds: Optional (K10.3)
    expected = capabilities(_returning("Collections.emptyList()"))
    expected[(10, 3)] = 1
    assert capabilities(_returning("Collections.<Optional<String>>emptyList()")) == expected


def test_explicit_type_arguments_on_a_creation_count_as_the_plain_creation():
    def source(creation):
        return f"import java.util.*; class A {{ Object m() {{ return {creation}; }} }}"

    typed = source("new <String>ArrayList<String>()")
    # ArrayList<String> (K8.1) and its creation (K8.2); String adds nothing
    assert capabilities(typed) == capabilities(source("new ArrayList<String>()")) == {
        (8, 1): 1, (8, 2): 1,
    }
    assert ("type", {"generic"}, "ArrayList", "ArrayList") in events(typed)
    assert [e for e in events(typed) if e[0] in ("type", "error") and e[2] == "String"] == [
        ("type", set(), "String", "String"),
    ] * 2


def test_explicit_type_arguments_on_a_constructor_call_keep_it_a_chain():
    typed = "class A { A() { <T>this(1); } A(int x) { } }"
    # two overloaded constructors (K5.3), the first chained to the second (K5.4)
    assert capabilities(typed) == capabilities(typed.replace("<T>", "")) == {
        (5, 3): 2, (5, 4): 1,
    }
    assert "error" not in {category for category, _, _, _ in iter_events(typed)}
    with_super = "class A extends B { A() { <T>super(1); } }"
    assert event_multiset(with_super) == multiset([
        ("declaration", ["class", "subclass"], "A", None),
        ("type", [], "B", "B"),
        ("declaration", ["constructor", "member"], "A", None),
        ("type", [], "T", "T"),
        ("expression", ["super"], None, None),
    ])


# --- variables of for loops and try resources read as locals -----------------------

JPA = "import javax.persistence.*; import java.io.*; import java.util.*; "


def test_for_init_modifiers_count_as_a_local_variables_do():
    src = JPA + "class A { void m() { for (final int i = 0; i < 3; i++) { } } }"
    found = events(src)
    assert [e for e in found if "variable" in e[1]] == [
        ("declaration", {"variable", "final"}, None, None),
    ]
    assert not any("assignment" in keywords for _, keywords, _, _ in found)
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
    assert [name for category, _, name, _ in iter_events(annotated)
            if category == "annotation"] == ["Id"]
    expected = capabilities(source(plain))
    expected[(19, 1)] = 1  # @Id
    assert capabilities(annotated) == expected


# --- an instanceof pattern's binding reads as a local's head -------------------------


def test_a_modifier_on_an_instanceof_binding_keeps_the_rest_of_the_condition():
    plain = ("class A { void m(Object o) { int x; "
             "if (o instanceof String s && s.isEmpty()) { x = 1; } } }")
    final = plain.replace("instanceof ", "instanceof final ")
    # the binding's type String is read; the condition goes on to `&&`
    assert event_multiset(final) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["member", "method", "parameterized"], "m", None),
        ("type", [], "Object", "Object"),
        ("declaration", ["variable"], None, None),
        ("statement", ["if"], None, None),
        ("expression", ["instanceof"], None, None),
        ("type", [], "String", "String"),
        ("expression", ["binary"], None, None),
        ("invocation", [], "isEmpty", None),
        ("expression", ["assignment"], None, None),
    ])
    # the local (K1.1), `&&` and `=` (K2.1), if (K2.3), as without `final`
    assert capabilities(final) == capabilities(plain) == {(1, 1): 1, (2, 1): 2, (2, 3): 1}
    annotated = JPA + plain.replace("instanceof ", "instanceof @Id ")
    assert capabilities(annotated) == {(1, 1): 1, (2, 1): 2, (2, 3): 1, (19, 1): 1}


# --- a speculative read that backs off leaves no event behind ------------------------


def test_a_call_statement_first_read_as_a_local_leaves_only_the_call():
    # `Foo.bar` reads as a type until `(` shows no variable name follows
    assert event_multiset("class A { void m() { Foo.bar(x); } }") == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["member", "method"], "m", None),
        ("invocation", [], "bar", None),
        ("type", [], "Foo", None),
    ])


def test_a_cast_and_a_parenthesised_operand_are_told_apart():
    # `(String) o` is a cast; `(a) + b` backs off the cast and is a sum
    src = ("class A { Object f(Object o, int a, int b) {"
           " String s = (String) o; int c = (a) + b; return s; } }")
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["member", "method", "parameterized", "returning"], "f", None),
        ("declaration", ["variable"], None, None),
        ("declaration", ["variable"], None, None),
        ("expression", ["binary"], None, None),
        ("expression", ["reference_cast"], None, None),
        ("type", [], "Object", "Object"),
        ("type", [], "Object", "Object"),
        ("type", [], "String", "String"),
        ("type", [], "String", "String"),
    ])


def test_lambdas_and_a_parenthesised_expression_are_told_apart():
    # each parenthesis is first tried as a cast; `(String s) -> s` keeps
    # one String, read as the lambda's parameter type
    src = ("class A { Object f = (a, b) -> a; Object g = (String s) -> s;"
           " int h = (x + y) * 2; }")
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["field", "member"], None, None),
        ("declaration", ["field", "member"], None, None),
        ("declaration", ["field", "member"], None, None),
        ("expression", ["binary"], None, None),
        ("expression", ["binary"], None, None),
        ("expression", ["lambda"], None, None),
        ("expression", ["lambda"], None, None),
        ("type", [], "Object", "Object"),
        ("type", [], "Object", "Object"),
        ("type", [], "String", "String"),
    ])


def test_a_comparison_statement_and_a_generic_local_are_told_apart():
    # `a < b;` reads `<b` as type arguments until `;`; `List<String> x;` is a local
    src = "class A { void m(int a, int b) { a < b; List<String> x; } }"
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["member", "method", "parameterized"], "m", None),
        ("declaration", ["variable"], None, None),
        ("expression", ["binary"], None, None),
        ("type", [], "String", "String"),
        ("type", ["generic"], "List", "List"),
    ])


# --- every bound of an intersection cast and every annotation count ------------------


def test_every_bound_of_an_intersection_cast_is_a_type_use():
    src = "class A { Object r = (Runnable & java.io.Serializable) () -> {}; }"
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["field", "member"], None, None),
        ("type", [], "Object", "Object"),
        ("type", [], "Runnable", "Runnable"),
        ("type", [], "Serializable", "java.io.Serializable"),
        ("expression", ["reference_cast"], None, None),
        ("expression", ["lambda"], None, None),
    ])


def test_an_annotation_before_no_parameter_type_counts():
    src = 'import javax.ws.rs.PathParam; class A { void m(@PathParam("id")) {} }'
    assert event_multiset(src) == multiset([
        ("declaration", ["class"], "A", None),
        ("declaration", ["member", "method"], "m", None),
        ("annotation", [], "PathParam", "PathParam"),
    ])
    # @PathParam (K24.2)
    assert capabilities(src) == {(24, 2): 1}


@pytest.mark.parametrize("src", [
    "@Deprecated import a.B; class C { }",
    "enum E { A, @Deprecated ; }",
    "class C { @Deprecated { } }",
])
def test_an_annotation_that_starts_no_declaration_still_counts(src):
    assert [name for category, _, name, _ in iter_events(src)
            if category == "annotation"] == ["Deprecated"]
