"""Knowledge-unit detection over parsed Java source.

A single traversal of the syntax tree emits *events* (declaration uses,
statement kinds, expression kinds, type references, annotations and
invocations). Catalog patterns are pure predicates over events; a
capability counts each distinct node matched by any of its patterns
once, and a KU count is the sum of its capability counts.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, NamedTuple

from .catalog import (
    KU_COUNT,
    CapabilityCatalog,
    CapabilityId,
    load_catalog,
)
from .javaparse.nodes import Node
from .javaparse.parser import parse_java
from .util import sha256_bytes, sha256_text

__all__ = [
    "parse_java",
    "detect_capabilities",
    "detect_kus",
    "ku_vector_from_hits",
    "detection_key",
]

# Type-declaration kind -> keywords of its declaration event.
_TYPE_KEYWORDS = {
    "class_declaration": ("class",),
    "interface_declaration": ("interface",),
    "enum_declaration": ("enum",),
    "record_declaration": ("class", "record"),
    "annotation_declaration": ("annotation_type",),
}
_TYPE_DECLS = frozenset(_TYPE_KEYWORDS)

# Members of a type body other than nested types; nothing else holds them.
_BODY_MEMBERS = frozenset([
    "method_declaration", "field_declaration", "constructor_declaration",
    "initializer_block", "enum_constant",
])

# Node kinds that always emit one event: kind -> (category, keywords).
_SIMPLE_EVENTS = {
    "if_statement": ("statement", frozenset(["if"])),
    "switch_statement": ("statement", frozenset(["switch"])),
    "while_statement": ("statement", frozenset(["while"])),
    "do_statement": ("statement", frozenset(["do_while"])),
    "for_statement": ("statement", frozenset(["for"])),
    "enhanced_for_statement": ("statement", frozenset(["enhanced_for"])),
    "break_statement": ("statement", frozenset(["break"])),
    "continue_statement": ("statement", frozenset(["continue"])),
    "throw_statement": ("statement", frozenset(["throw"])),
    "assert_statement": ("statement", frozenset(["assert"])),
    "synchronized_statement": ("statement", frozenset(["synchronized"])),
    "finally_clause": ("statement", frozenset(["finally"])),
    "assignment_expression": ("expression", frozenset(["assignment"])),
    "unary_expression": ("expression", frozenset(["unary"])),
    "ternary_expression": ("expression", frozenset(["ternary"])),
    "instanceof_expression": ("expression", frozenset(["instanceof"])),
    "lambda_expression": ("expression", frozenset(["lambda"])),
    "array_access": ("expression", frozenset(["array_access"])),
    "array_initializer": ("expression", frozenset(["array_initializer"])),
    "super_expression": ("expression", frozenset(["super"])),
}

# The keyword set of every other event, by its words. Events hold these
# sets, and the sets of declarations, themselves: no event's keywords
# change once it is emitted, so none is copied.
_KW = {words: frozenset(words.split()) for words in [
    "", "try", "try try_with_resources", "catch", "catch multi_catch", "binary",
    "binary equality", "primitive_cast", "reference_cast", "array_creation",
    "multidim_array_creation", "super", "method_reference", "new", "anonymous_class",
    "generic", "array", "multidim_array",
]}

_EXCEPTION_SUFFIXES = ("Exception", "Error", "Throwable")

# The pattern table of a node kind that no enabled pattern names.
_NO_PATTERNS: tuple = ((), {}, {})


class _Event(NamedTuple):
    category: str  # one of catalog.NODE_KINDS
    node_id: int
    keywords: AbstractSet[str] = _KW[""]
    name: str | None = None
    qualified: str | None = None


# Builds an _Event from a tuple without the Python frame of _Event.__new__;
# the collector makes one per event.
_new_event = tuple.__new__


@dataclass
class _Imports:
    explicit: dict[str, str] = field(default_factory=dict)  # simple -> qualified

    def consistent(self, name: str | None, qualified: str | None, prefix: str) -> bool:
        """Whether a use of ``name`` could resolve under ``prefix``.

        Fully-qualified uses are checked directly; simple names defer to
        an explicit import when one exists, and otherwise count (the
        binding may come from java.lang, the same package, or a wildcard).
        """
        if qualified and "." in qualified:
            head = qualified.split(".", 1)[0]
            if head and head[0].islower():
                return qualified == prefix or qualified.startswith(prefix + ".")
        if name:
            imported = self.explicit.get(name)
            if imported is not None:
                return imported == f"{prefix}.{name}" or imported.startswith(prefix + ".")
        return True


def _accessor_like(name: str, params: int, returning: bool) -> bool:
    for pre in ("get", "is"):
        if name.startswith(pre) and len(name) > len(pre) and name[len(pre)].isupper():
            return params == 0 and returning
    if name.startswith("set") and len(name) > 3 and name[3].isupper():
        return params == 1
    return False


def _first_body_statement(decl: Node) -> Node | None:
    for child in decl.children:
        if child.kind == "block":
            return child.children[0] if child.children else None
    return None


def _is_this_chain(decl: Node) -> bool:
    stmt = _first_body_statement(decl)
    if stmt is None or stmt.kind != "expression_statement" or not stmt.children:
        return False
    head = stmt.children[0]
    return (head.kind == "explicit_constructor_invocation"
            and head.fields.get("target") == "this")


def _qualifier_type_use(qualifier: str) -> tuple[str, str | None] | None:
    """Extract a plausible type reference from a dotted qualifier.

    ``Files`` -> (Files, None); ``java.nio.file.Files.x`` -> the first
    capitalized segment together with its package prefix. Returns None
    when every segment looks like a plain variable.
    """
    parts = qualifier.split(".")
    for i, part in enumerate(parts):
        if part and part[0].isupper():
            if i == 0:
                return part, None
            return part, ".".join(parts[: i + 1])
        if part and not part[0].islower():
            return None
    return None


class _Collector:
    def __init__(self) -> None:
        self.events: list[_Event] = []
        self.imports = _Imports()
        # (nodes, in_block, body) still to visit: a work list, so that a
        # chain of any length is walked in a loop. ``body`` is None, or the
        # (overloaded method names, constructor count) of the type body
        # whose members ``nodes`` are.
        self.pending: list[tuple[list[Node], bool, tuple[set[str], int] | None]] = []

    def emit(self, category: str, node: Node, keywords: AbstractSet[str] = _KW[""],
             name: str | None = None, qualified: str | None = None) -> None:
        self.events.append(_new_event(_Event, (category, id(node), keywords, name, qualified)))

    # --- traversal --------------------------------------------------------

    def run(self, unit: Node) -> None:
        """Emit the events of every node under ``unit``, in one loop over
        the work list (each node kind's events inline)."""
        pending = self.pending
        for child in unit.children:
            if child.kind == "import_declaration":
                self._register_import(child)
            else:
                pending.append(([child], False, None))
        emit = self.emit
        while pending:
            nodes, in_block, body = pending.pop()
            for node in nodes:
                kind, fields = node.kind, node.fields
                # the commonest kinds first
                if kind == "name":
                    text = fields["name"]
                    if "." in text:
                        use = _qualifier_type_use(text)
                        if use is not None:
                            emit("type", node, name=use[0], qualified=use[1])
                elif kind == "named_type" or kind == "generic_type":
                    emit("type", node, _KW["generic" if kind == "generic_type" else ""],
                         fields["name"], fields["qualified"])
                elif kind in _SIMPLE_EVENTS:
                    category, keywords = _SIMPLE_EVENTS[kind]
                    emit(category, node, keywords)
                elif kind == "method_invocation":
                    emit("invocation", node, name=fields["name"])
                    self._emit_qualifier_type(node)
                elif kind in _TYPE_DECLS:
                    self._visit_type(node, nested=body is not None, local=in_block)
                    continue
                elif kind in _BODY_MEMBERS:
                    self._member(node, *body)
                    continue
                elif kind == "annotation":
                    emit("annotation", node, name=fields["name"], qualified=fields["qualified"])
                elif kind == "local_variable_declaration":
                    emit("declaration", node, {"variable", *fields["modifiers"]})
                elif kind == "binary_expression":
                    emit("expression", node,
                         _KW["binary equality" if fields["op"] in ("==", "!=") else "binary"])
                elif kind == "object_creation":
                    ctype = node.children[0] if node.children else None
                    qualified = ctype.fields.get("qualified") if ctype is not None else None
                    emit("invocation", node, _KW["new"], fields["type_name"], qualified)
                    if fields["anonymous"]:
                        emit("declaration", node, _KW["anonymous_class"], fields["type_name"])
                        self._push_body(node)
                        continue
                elif kind == "array_type":
                    emit("type", node, _KW["multidim_array" if fields["dims"] >= 2 else "array"])
                elif kind == "cast_expression":
                    target = node.children[0] if node.children else None
                    primitive = target is not None and target.kind == "primitive_type"
                    emit("expression", node,
                         _KW["primitive_cast" if primitive else "reference_cast"])
                elif kind == "array_creation":
                    emit("expression", node, _KW[
                        "multidim_array_creation" if fields["dims"] >= 2 else "array_creation"])
                elif kind == "method_reference":
                    emit("expression", node, _KW["method_reference"])
                    ref = fields["name"]
                    if ref == "new":
                        qual = fields["qualifier"]
                        use = _qualifier_type_use(qual) if qual else None
                        if use is not None:
                            emit("invocation", node, _KW["new"], use[0], use[1])
                    elif ref:
                        emit("invocation", node, name=ref)
                    self._emit_qualifier_type(node)
                elif kind == "explicit_constructor_invocation":
                    if fields["target"] == "super":
                        emit("expression", node, _KW["super"])
                elif kind == "try_statement":
                    emit("statement", node,
                         _KW["try try_with_resources" if fields["resources"] > 0 else "try"])
                elif kind == "catch_clause":
                    emit("statement", node,
                         _KW["catch multi_catch" if fields["types"] > 1 else "catch"])
                if node.children:
                    pending.append(
                        (node.children, in_block or kind in ("block", "switch_statement"), None))

    def _register_import(self, node: Node) -> None:
        fields = node.fields
        name = fields["name"]
        if name and not fields["static"] and not fields["wildcard"]:
            self.imports.explicit[name.rsplit(".", 1)[-1]] = name

    def _visit_type(self, decl: Node, nested: bool, local: bool) -> None:
        kind, fields = decl.kind, decl.fields
        name = fields["name"]
        mods = set(fields["modifiers"])
        keywords = mods | set(_TYPE_KEYWORDS[kind])
        if nested:
            keywords.add("member")
            if kind == "class_declaration":
                keywords.add("inner_class")
        if local and kind == "class_declaration":
            keywords.add("local_class")
        if fields["generic"]:
            keywords.add("generic")
        superclass = fields.get("superclass_name")
        if superclass:
            keywords.add("subclass")
        if kind == "class_declaration" and (
            name.endswith(_EXCEPTION_SUFFIXES)
            or (superclass or "").endswith(_EXCEPTION_SUFFIXES)
        ):
            keywords.add("exception_class")

        if kind == "class_declaration":
            if self._looks_immutable(mods, decl.children):
                keywords.add("immutable_class")
            if self._looks_singleton(name, decl.children):
                keywords.add("singleton_class")
        self.emit("declaration", decl, keywords, name=name)
        self._push_body(decl)

    def _push_body(self, decl: Node) -> None:
        """Queue the children of a type, enum-constant or anonymous-class
        body, with the body's overloaded method names and constructor count."""
        names: set[str] = set()
        overloaded: set[str] = set()
        n_ctors = 0
        for child in decl.children:
            if child.kind == "method_declaration":
                name = child.fields["name"]
                (overloaded if name in names else names).add(name)
            n_ctors += child.kind == "constructor_declaration"
        self.pending.append((decl.children, False, (overloaded, n_ctors)))

    @staticmethod
    def _looks_immutable(mods: set[str], members: list[Node]) -> bool:
        if "final" not in mods:
            return False
        fields = [m for m in members if m.kind == "field_declaration"]
        ctors = [m for m in members if m.kind == "constructor_declaration"]
        if not fields or not any(c.fields.get("params", 0) >= 1 for c in ctors):
            return False
        return all("final" in f.fields.get("modifiers", ()) for f in fields)

    @staticmethod
    def _looks_singleton(name: str, members: list[Node]) -> bool:
        ctors = [m for m in members if m.kind == "constructor_declaration"]
        if not any("private" in c.fields.get("modifiers", ()) for c in ctors):
            return False
        for m in members:
            if "static" not in m.fields.get("modifiers", ()):
                continue
            if m.kind == "field_declaration":
                for t in m.children:
                    if t.kind in ("named_type", "generic_type") and t.fields.get("name") == name:
                        return True
            elif m.kind == "method_declaration" and m.fields.get("return_type_name") == name:
                return True
        return False

    def _member(self, decl: Node, overloaded: set[str], n_ctors: int) -> None:
        """Emit a member of a type body other than a nested type, then queue
        what it holds; ``overloaded`` and ``n_ctors`` describe the body."""
        kind, fields = decl.kind, decl.fields
        if kind == "initializer_block":
            static = ("static",) if fields["static"] else ()
            self.emit("declaration", decl, {"initializer", *static})
            self.pending.append((decl.children, True, None))
            return
        if kind == "enum_constant":
            self.emit("declaration", decl, {"enum_constant"}, name=fields["name"])
            self._push_body(decl)
            return
        if kind == "method_declaration":
            name = fields["name"]
            keywords = {"method"}
            returning = fields["return_type_name"] != "void"
            if returning:
                keywords.add("returning")
            if fields["generic"]:
                keywords.add("generic")
            if name in overloaded:
                keywords.add("overloaded_method")
            if _accessor_like(name, fields["params"], returning):
                keywords.add("accessor_method")
        elif kind == "constructor_declaration":
            keywords = {"constructor"}
            if n_ctors > 1:
                keywords.add("overloaded_constructor")
            if _is_this_chain(decl):
                keywords.add("chained_constructor")
        else:
            keywords = {"field"}
        keywords.update(fields["modifiers"])
        keywords.add("member")
        if fields.get("params", 0) >= 1:
            keywords.add("parameterized")
        if fields.get("varargs"):
            keywords.add("varargs")
        if fields.get("throws"):
            keywords.add("throwing")
        self.emit("declaration", decl, keywords, name=fields.get("name"))
        self.pending.append((decl.children, False, None))

    def _emit_qualifier_type(self, node: Node) -> None:
        qual = node.fields.get("qualifier")
        if not qual:
            return
        use = _qualifier_type_use(qual)
        if use is not None:
            self.emit("type", node, name=use[0], qualified=use[1])


def _matched_nodes(source: str, catalog: CapabilityCatalog) -> dict[int, set[int]]:
    """Ids of the nodes each enabled rule matched, keyed by the rule's
    position in ``catalog.enabled_rules()``; rules that matched no node
    are absent.

    Raises :class:`ParseError` for binary content.
    """
    collector = _Collector()
    collector.run(parse_java(source))
    consistent = collector.imports.consistent
    tables = catalog.patterns_by_kind
    matched: defaultdict[int, set[int]] = defaultdict(set)
    for category, node_id, keywords, name, qualified in collector.events:
        # the patterns that could match: by kind alone, by name, by keyword
        found, by_name, by_keyword = tables.get(category, _NO_PATTERNS)
        if name is not None:
            found += by_name.get(name, ())
        for word in keywords:
            found += by_keyword.get(word, ())
        for position, required, prefix in found:
            if required <= keywords and (
                prefix is None or consistent(name, qualified, prefix)
            ):
                matched[position].add(node_id)
    return matched


def detect_capabilities(
    source: str, catalog: CapabilityCatalog | None = None
) -> dict[CapabilityId, int]:
    """Count capability evidence in one Java source file.

    Returns a mapping from every enabled capability to the number of
    distinct syntax nodes exhibiting it (zero entries included). Raises
    :class:`ParseError` for binary content.
    """
    if catalog is None:
        catalog = load_catalog()
    matched = _matched_nodes(source, catalog)
    return {
        rule.id: len(matched.get(position, ()))
        for position, rule in enumerate(catalog.enabled_rules())
    }


def ku_vector_from_hits(hits: dict[CapabilityId, int]) -> list[int]:
    """Aggregate capability counts into the 28-slot KU vector."""
    vector = [0] * KU_COUNT
    for cap, count in hits.items():
        vector[cap.ku.index - 1] += count
    return vector


def detect_kus(source: str, catalog: CapabilityCatalog | None = None) -> list[int]:
    """KU vector (28 non-negative counts) for one Java source file.

    Equals ``ku_vector_from_hits(detect_capabilities(source, catalog))``.
    """
    if catalog is None:
        catalog = load_catalog()
    vector = [0] * KU_COUNT
    slots = catalog.ku_slots
    for position, nodes in _matched_nodes(source, catalog).items():
        vector[slots[position]] += len(nodes)
    return vector


def detection_key(catalog: CapabilityCatalog) -> str:
    """Digest of ``catalog`` and of the code :func:`detect_kus` runs.

    The KU cache and the mine stage's signature key on it, so a vector
    computed by other rules or by other detection code is never reused.
    """
    return sha256_text(f"{catalog.digest}:{_code_digest()}")


@functools.cache
def _code_digest() -> str:
    """Digest of the source of ``catalog.py``, this module and
    ``javaparse/``, read once per process."""
    package = Path(__file__).parent
    files = [package / "catalog.py", Path(__file__),
             *sorted((package / "javaparse").glob("*.py"))]
    return sha256_text(" ".join(
        f"{path.relative_to(package).as_posix()}:{sha256_bytes(path.read_bytes())}"
        for path in files
    ))
