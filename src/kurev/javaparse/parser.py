"""Best-effort recursive-descent reader of Java compilation units.

The grammar coverage is pragmatic rather than compiler-grade: the reader
recognises declarations, statements, expressions, type usages,
annotations and invocations with enough fidelity for pattern-based
counting, and builds no syntax tree. As it reads each construct it
appends that construct's detection events to one list. An event is a
tuple ``(category, node_id, keywords, name, qualified)``: ``category`` is
one of ``catalog.NODE_KINDS`` or ``error``, and the events of one
construct share its node id, the index of its first event. Localized
syntax errors become ``error`` events and reading continues at the next
synchronization point.

What an event needs beyond its own construct is reader state:

- A type body keeps the keywords of its methods, constructors and fields
  until it closes, when overloads, the constructor count and the
  immutable and singleton checks are known; then its member events and
  its type's event are appended.
- A speculative read that backs off truncates the event list to where it
  began, so whatever it read leaves no event. Type parameters give no
  event either; every other construct read keeps its events.
- A dotted name read as an expression gives its type event once the
  name ends; a parenthesised name, whose event is given, takes it back
  when it reads on (``(a.B).c()`` qualifies a call, as ``a.B.c()`` does).
"""

from __future__ import annotations

from typing import AbstractSet

from ..errors import ParseError
from .lexer import Token, tokenize

PRIMITIVES = frozenset(
    ["boolean", "byte", "char", "short", "int", "long", "float", "double", "void"]
)

MODIFIER_WORDS = frozenset(
    [
        "public", "protected", "private", "static", "abstract", "final",
        "native", "synchronized", "transient", "volatile", "strictfp",
        "default",
    ]
)

ASSIGN_OPS = frozenset(
    ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="]
)

# Outermost first; '<'/'>' double as generics brackets, handled upstream.
BINARY_LEVELS = [
    ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
    ("<", ">", "<=", ">=", "instanceof"), ("<<", ">>", ">>>"),
    ("+", "-"), ("*", "/", "%"),
]
# Operator text -> its index in BINARY_LEVELS. The lexer gives these texts
# only to `op` tokens and `instanceof` only to a keyword, so the text alone
# identifies a binary operator.
_BINARY_LEVEL = {op: level for level, ops in enumerate(BINARY_LEVELS) for op in ops}

# Nesting bound, so that the events depend on the text alone: each open
# statement, member and annotation is one level, each expression three.
# parse_statement, _parse_member, _parse_annotation, parse_expression,
# _parse_ternary and _parse_unary each take one level while they run.
MAX_DEPTH = 100

# Tokens that end an expression whatever came before: a name or literal
# followed by one is a whole expression.
_LEAF_ENDS = frozenset([";", ",", ")", "]", "}", ":"])
_LEAF_KINDS = frozenset(["identifier", "number", "string", "char"])

# The keyword set of every event but a declaration's, by its words. No
# event's keywords change once it is appended, so events share these sets.
_KW = {words: frozenset(words.split()) for words in [
    "", "if", "switch", "while", "do_while", "for", "enhanced_for", "break",
    "continue", "throw", "assert", "synchronized", "finally", "try",
    "try try_with_resources", "catch", "catch multi_catch", "assignment", "unary",
    "ternary", "instanceof", "lambda", "array_access", "array_initializer", "super",
    "binary", "binary equality", "primitive_cast", "reference_cast", "array_creation",
    "multidim_array_creation", "method_reference", "new", "anonymous_class",
    "generic", "array", "multidim_array", "enum_constant",
]}

# Type-declaration keyword -> keywords of its declaration event.
_TYPE_KEYWORDS = {
    "class": ("class",),
    "interface": ("interface",),
    "enum": ("enum",),
    "record": ("class", "record"),
    "@interface": ("annotation_type",),
}

_EXCEPTION_SUFFIXES = ("Exception", "Error", "Throwable")

# A method's, constructor's or field's (keywords, name, type name), kept
# until its type body closes; the type name is a method's return type or a
# field's class type.
_Member = tuple[set[str], str | None, str | None]

# What an expression reader returns besides a name (a str) or None:
# `this`, `super`, and `this(…)`, a constructor chaining to another.
_THIS = object()
_SUPER = object()
_THIS_CALL = object()


def parse_java(source: str) -> tuple[list[tuple], dict[str, str]]:
    """Read Java source text into its detection events and imports.

    Returns the events (see the module docstring) and the explicit
    single-type imports, by simple name. Raises :class:`ParseError` only
    for catastrophically unusable input (NUL bytes, i.e. binary data
    mislabeled as source). Anything else yields events, possibly
    including ``error`` events.
    """
    nul = source.find("\x00")
    if nul >= 0:
        raise ParseError(f"binary content (NUL byte at offset {nul})", offset=nul)
    parser = _Parser(tokenize(source))
    parser.parse_compilation_unit()
    return parser.events, parser.imports


def _accessor_like(name: str, params: int, returning: bool) -> bool:
    for pre in ("get", "is"):
        if name.startswith(pre) and len(name) > len(pre) and name[len(pre)].isupper():
            return params == 0 and returning
    if name.startswith("set") and len(name) > 3 and name[3].isupper():
        return params == 1
    return False


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


def _looks_immutable(members: list[_Member]) -> bool:
    """Whether a final class's fields are all final and a constructor
    takes parameters to set them."""
    fields = [k for k, _, _ in members if "field" in k]
    return bool(fields) and all("final" in f for f in fields) and any(
        "constructor" in k and "parameterized" in k for k, _, _ in members)


def _looks_singleton(name: str, members: list[_Member]) -> bool:
    """Whether class ``name`` has a private constructor and a static field
    of its own type or a static method returning it."""
    return any("constructor" in k and "private" in k for k, _, _ in members) and any(
        "static" in k and type_name == name for k, _, type_name in members)


class _Parser:
    def __init__(self, tokens: list[Token]):
        # Two more copies of the final eof token: no lookahead goes past
        # tok(2), and the position never moves past the first eof, so every
        # index below is in range without a bounds test.
        self.toks = tokens + tokens[-1:] * 2
        self.pos = 0
        self.depth = 0
        self.events: list[tuple] = []
        self.imports: dict[str, str] = {}  # simple name -> qualified name

    # --- token helpers -------------------------------------------------
    # Hot paths read ``self.toks[self.pos]`` themselves. Only eof has empty
    # text, so a token with a given (non-empty) text is never eof.

    def tok(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def at(self, text: str) -> bool:
        return self.toks[self.pos][1] == text

    def at_kw(self, word: str) -> bool:
        return self.toks[self.pos] == ("keyword", word)

    def eat(self) -> Token:
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        if self.toks[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def eof(self) -> bool:
        return self.toks[self.pos][0] == "eof"

    # --- events ---------------------------------------------------------
    # Hot paths append their events themselves.

    def _emit(self, category: str, keywords: AbstractSet[str] = _KW[""],
              name: str | None = None, qualified: str | None = None) -> None:
        events = self.events
        events.append((category, len(events), keywords, name, qualified))

    def _type_use(self, name: str, node_id: int | None = None) -> None:
        """The type use that ``name``, a qualifier or a name read as an
        expression, gives, if any: an event of node ``node_id``, or else
        of a node of its own, which a name with no dot never gives."""
        events = self.events
        if node_id is None:
            if "." not in name:
                return
            node_id = len(events)
        use = _qualifier_type_use(name)
        if use is not None:
            events.append(("type", node_id, _KW[""], use[0], use[1]))

    def _invocation(self, name: str, qualifier: str | None) -> None:
        """A call of ``name`` on ``qualifier``, and the type that the
        qualifier names, if any, as one node."""
        events = self.events
        node_id = len(events)
        events.append(("invocation", node_id, _KW[""], name, None))
        if qualifier:
            self._type_use(qualifier, node_id)

    def _rewind(self, mark: tuple[int, int]) -> None:
        """Back off a speculative read: the position and the event list
        return to ``mark``, a (position, event count) pair taken when the
        read began, so whatever it read leaves no event."""
        self.pos, n_events = mark
        del self.events[n_events:]

    # --- error recovery -------------------------------------------------

    def _skip_to(self, stops: AbstractSet[str]) -> None:
        """The parser's one skip: consume tokens up to the first of ``stops``
        outside the brackets it opened, or up to eof. A closer that closes
        nothing it opened is consumed, and the stops after it still count."""
        toks, depth = self.toks, 0
        while True:
            kind, text = toks[self.pos]
            if kind == "eof" or (not depth and text in stops):
                return
            if text in ("(", "[", "{"):
                depth += 1
            elif depth and text in (")", "]", "}"):
                depth -= 1
            self.pos += 1

    def _too_deep(self) -> None:
        """Past MAX_DEPTH, a construct is an error spanning the tokens up
        to an unmatched closing bracket, or up to a ``,``, ``:`` or ``;``
        outside brackets."""
        self._skip_to({",", ":", ";", ")", "]", "}"})
        self._emit("error")

    def _recover(self) -> None:
        """Consume tokens into an error up to a ``}`` or through a ``;``
        outside the brackets they open."""
        self._skip_to({";", "}"})
        self.accept(";")
        self._emit("error")

    # --- compilation unit -------------------------------------------------

    def parse_compilation_unit(self) -> None:
        self._parse_list(self._parse_top_level, None, None)

    def _parse_top_level(self) -> None:
        """A package, import or type declaration, or an empty one."""
        toks = self.toks
        if toks[self.pos][1] == ";":
            self.pos += 1
            return
        mods = self._parse_modifiers()
        if toks[self.pos] == ("keyword", "package"):
            self.pos += 1
            self._qualified_name()
            self.accept(";")
        elif toks[self.pos] == ("keyword", "import"):
            self._parse_import()
        else:
            self._parse_type_declaration(mods)

    def _parse_import(self) -> None:
        """An import; a single-type one registers its simple name."""
        toks = self.toks
        pos = self.pos + 1  # after 'import'
        is_static = toks[pos] == ("keyword", "static")
        pos += is_static
        parts = []
        wildcard = False
        while toks[pos][0] in ("identifier", "keyword"):
            parts.append(toks[pos][1])
            if toks[pos + 1][1] != ".":
                pos += 1
                break
            pos += 2
            if toks[pos][1] == "*":
                wildcard = True
                pos += 1
                break
        self.pos = pos + (toks[pos][1] == ";")
        if parts and not is_static and not wildcard:
            self.imports[parts[-1]] = ".".join(parts)

    # --- annotations & modifiers -------------------------------------------

    def _parse_annotation(self) -> None:
        if self.depth >= MAX_DEPTH:
            self._too_deep()
            return
        self.depth += 1
        self.eat()  # @
        qualified = self._qualified_name()
        self._emit("annotation", _KW[""], qualified.rsplit(".", 1)[-1], qualified)
        if self.at("("):
            depth = 0
            while not self.eof():
                if self.at("@") and depth > 0:
                    self._parse_annotation()
                    continue
                text = self.eat()[1]
                if text == "(":
                    depth += 1
                elif text == ")":
                    depth -= 1
                    if depth == 0:
                        break
        self.depth -= 1

    def _parse_modifiers(self) -> list[str]:
        """Modifier words, annotations (as events) and the contextual
        ``sealed`` and ``non-sealed``; returns the modifier words."""
        mods: list[str] = []
        toks = self.toks
        while True:
            kind, text = toks[self.pos]
            if kind == "keyword" and text in MODIFIER_WORDS:
                mods.append(text)
                self.pos += 1
            elif text == "@" and toks[self.pos + 1] != ("keyword", "interface"):
                self._parse_annotation()
            elif kind == "identifier" and text == "sealed" and toks[self.pos + 1][0] == "keyword":
                self.pos += 1  # contextual 'sealed' before class/interface
            elif (kind == "identifier" and text == "non" and toks[self.pos + 1][1] == "-"
                  and toks[self.pos + 2][1] == "sealed"):
                self.pos += 3
            else:
                return mods

    def _qualified_name(self) -> str:
        toks, pos = self.toks, self.pos
        parts = []
        while toks[pos][0] == "identifier":
            parts.append(toks[pos][1])
            pos += 1
            if toks[pos][1] != "." or toks[pos + 1][0] != "identifier":
                break
            pos += 1
        self.pos = pos
        return ".".join(parts)

    # --- type declarations ---------------------------------------------------

    def _type_decl_keyword(self) -> str | None:
        """The word that starts a type declaration here, or None."""
        kind, text = self.toks[self.pos]
        if kind == "keyword" and text in ("class", "interface", "enum"):
            return text
        if text == "@" and self.tok(1) == ("keyword", "interface"):
            return "@interface"
        if (kind == "identifier" and text == "record"
                and self.tok(1)[0] == "identifier" and self.tok(2)[1] == "("):
            return "record"
        return None

    def _parse_type_declaration(self, mods: list[str], nested: bool = False,
                                local: bool = False) -> None:
        """A type declaration after its modifiers ``mods``; ``nested`` for a
        member of a type body, ``local`` for a statement. Where no type
        declaration starts, what follows is an error."""
        kw = self._type_decl_keyword()
        if kw is None:
            self._recover()
            return

        self.accept("@")  # of @interface
        self.eat()  # class/interface/enum/record keyword
        name = self.eat()[1] if self.tok()[0] == "identifier" else ""
        keywords = {*mods, *_TYPE_KEYWORDS[kw]}
        if self.at("<"):
            keywords.add("generic")
            self._skip_angles()
        if kw == "record" and self.at("("):
            self._parse_params()
        superclass = ""
        if self.at_kw("extends"):
            self.eat()
            names = self._parse_type_list(",")
            if names and kw == "class":
                superclass = names[0]
                keywords.add("subclass")
        while self.at_kw("implements") or self.at("permits"):  # 'permits' is contextual
            self.eat()
            self._parse_type_list(",")

        members: list[_Member] = []
        if self.accept(";"):
            pass
        elif kw == "enum":
            members = self._parse_enum_body(name)
        else:
            members = self._parse_class_body(name)

        if nested:
            keywords.add("member")
            if kw == "class":
                keywords.add("inner_class")
        if kw == "class":
            if local:
                keywords.add("local_class")
            if name.endswith(_EXCEPTION_SUFFIXES) or superclass.endswith(_EXCEPTION_SUFFIXES):
                keywords.add("exception_class")
            if "final" in mods and _looks_immutable(members):
                keywords.add("immutable_class")
            if _looks_singleton(name, members):
                keywords.add("singleton_class")
        self._emit("declaration", keywords, name)

    def _parse_type_list(self, sep: str) -> list[str]:
        """Read ``sep``-separated types; returns their simple names."""
        names = []
        while True:
            t = self._parse_type()
            if t is None:
                break
            names.append(t[1])
            if not self.accept(sep):
                break
        return names

    def _parse_class_body(self, type_name: str) -> list[_Member]:
        """A class, enum-constant or anonymous-class body: its members'
        records (see _parse_members)."""
        if not self.accept("{"):
            self._recover()
            return []
        return self._parse_members(type_name)

    def _parse_members(self, type_name: str) -> list[_Member]:
        """Members up to and including the closing ``}``.

        Returns the record of each method, constructor and field (see
        _Member). Their declaration events are appended once the body is
        read, when its overloads are known.
        """
        toks = self.toks
        members = []
        while toks[self.pos][1] != "}" and not self.eof():
            start = self.pos
            member = self._parse_member(type_name)
            if member is not None:
                members.append(member)
            if self.pos == start:
                self._recover()
                if self.pos == start:
                    self.eat()
        self.accept("}")
        names: set[str] = set()
        overloaded: set[str] = set()
        n_ctors = 0
        for keywords, name, _ in members:
            if "method" in keywords:
                (overloaded if name in names else names).add(name)
            n_ctors += "constructor" in keywords
        events = self.events
        for keywords, name, _ in members:
            if "method" in keywords:
                if name in overloaded:
                    keywords.add("overloaded_method")
            elif n_ctors > 1 and "constructor" in keywords:
                keywords.add("overloaded_constructor")
            events.append(("declaration", len(events), keywords, name, None))
        return members

    def _parse_enum_body(self, type_name: str) -> list[_Member]:
        if not self.accept("{"):
            self._recover()
            return []
        # constants until ';' or '}'
        while not self.eof() and not self.at("}") and not self.at(";"):
            self._parse_modifiers()
            if self.tok()[0] != "identifier":
                self._recover()
                break
            self._emit("declaration", _KW["enum_constant"], self.eat()[1])
            if self.at("("):
                self._parse_args()
            if self.at("{"):
                self._parse_class_body(type_name)
            if not self.accept(","):
                break
        if self.accept(";"):
            return self._parse_members(type_name)
        self.accept("}")
        return []

    def _parse_member(self, type_name: str) -> _Member | None:
        """One member of a type body: the record of a method, constructor
        or field (see _parse_members); None for anything else, whose
        events are appended here."""
        if self.depth >= MAX_DEPTH:
            self._too_deep()
            return None
        self.depth += 1
        try:
            toks = self.toks
            if toks[self.pos][1] == ";":
                self.pos += 1
                return None
            mods = self._parse_modifiers()
            text = toks[self.pos][1]

            # initializer block
            if text == "{":
                self._emit("declaration",
                           {"initializer", "static"} if "static" in mods else {"initializer"})
                self._parse_block()
                return None

            if self._type_decl_keyword() is not None:  # nested type
                self._parse_type_declaration(mods, nested=True)
                return None

            # generic method type parameters
            generic_method = text == "<"
            if generic_method:
                self._skip_angles()

            # constructor; a record's compact one has no parameter list
            if toks[self.pos] == ("identifier", type_name) and toks[self.pos + 1][1] in ("(", "{"):
                self.pos += 1
                keywords = {"constructor", "member", *mods}
                _, first = self._parse_callable(keywords)
                if first is _THIS_CALL:
                    keywords.add("chained_constructor")
                return keywords, type_name, None

            rtype = self._parse_type()
            if rtype is None or toks[self.pos][0] != "identifier":
                self._recover()
                return None
            name = toks[self.pos][1]
            self.pos += 1
            if toks[self.pos][1] == "(":
                keywords = {"method", "member", *mods}
                returning = rtype[1] != "void"
                if returning:
                    keywords.add("returning")
                if generic_method:
                    keywords.add("generic")
                n_params, _ = self._parse_callable(keywords)
                if _accessor_like(name, n_params, returning):
                    keywords.add("accessor_method")
                return keywords, name, rtype[1]

            # field declaration
            self._parse_declarators()
            class_type = rtype[1] if rtype[0] in ("named_type", "generic_type") else None
            return {"field", "member", *mods}, None, class_type
        finally:
            self.depth -= 1

    def _parse_callable(self, keywords: set[str]) -> tuple[int, object]:
        """The parameters, ``throws`` types, ``default`` value and body of
        a method or constructor, adding what they show to its
        ``keywords``. Returns the parameter count and what the body's
        first statement read (see parse_statement)."""
        n_params, varargs = self._parse_params()
        toks = self.toks
        if toks[self.pos][1] == "[":
            self._skip_dims()
        if toks[self.pos] == ("keyword", "throws"):
            self.pos += 1
            if self._parse_type_list(","):
                keywords.add("throwing")
        if n_params:
            keywords.add("parameterized")
        if varargs:
            keywords.add("varargs")
        if toks[self.pos] == ("keyword", "default"):  # annotation-type member default
            self.pos += 1
            self.parse_expression()
        if toks[self.pos][1] == "{":
            return n_params, self._parse_block()
        self.accept(";")
        return n_params, None

    def _parse_declarators(self) -> None:
        toks = self.toks
        while True:
            if toks[self.pos][1] == "[":
                self._skip_dims()
            if toks[self.pos][1] == "=":
                self.pos += 1
                self.parse_expression()
            if toks[self.pos][1] != ",":
                break
            self.pos += 1
            if toks[self.pos][0] != "identifier":
                break
            self.pos += 1  # the next variable's name
        self.accept(";")

    def _parse_array_initializer(self) -> None:
        self._emit("expression", _KW["array_initializer"])
        self.eat()  # {
        self._parse_list(self.parse_expression, ",", "}")

    def _parse_params(self) -> tuple[int, bool]:
        """A parameter list: how many parameters, and whether the last is
        varargs."""
        n_params = 0
        varargs = False
        if not self.accept("("):
            return n_params, varargs
        toks = self.toks
        while toks[self.pos][1] != ")" and not self.eof():
            self._parse_modifiers()
            if self._parse_type() is None:  # unreadable: the list ends unless ',' follows
                self._skip_to({",", ")", "{", ";"})
                if not self.accept(","):
                    break
                continue
            if toks[self.pos][1] == "...":
                self.pos += 1
                varargs = True
            if toks[self.pos][0] == "identifier":
                self.pos += 1  # the parameter's name
            if toks[self.pos][1] == "[":
                self._skip_dims()
            n_params += 1
            if toks[self.pos][1] == ",":
                self.pos += 1
        self.accept(")")
        return n_params, varargs

    # --- types -------------------------------------------------------------

    def _parse_type(self) -> tuple[str, str, str | None, int] | None:
        """A type and its events: (kind, simple name, qualified name,
        array dimensions), the kind being ``primitive_type``,
        ``named_type``, ``generic_type`` or ``array_type``, and the names
        an array's element type's. None, with nothing read, when no type
        starts here."""
        kind, text = self.toks[self.pos]
        events = self.events
        if kind == "keyword" and text in PRIMITIVES:
            self.pos += 1
            result = ("primitive_type", text, None, 0)
        elif kind == "identifier":
            mark = self.pos
            qualified = self._qualified_name()
            name = qualified.rsplit(".", 1)[-1]
            if self.toks[self.pos][1] == "<":
                if not self._parse_type_args():
                    self.pos = mark
                    return None
                events.append(("type", len(events), _KW["generic"], name, qualified))
                result = ("generic_type", name, qualified, 0)
            else:
                events.append(("type", len(events), _KW[""], name, qualified))
                result = ("named_type", name, qualified, 0)
        else:
            return None
        dims = self._skip_dims() if self.toks[self.pos][1] == "[" else 0
        if dims:
            events.append(("type", len(events),
                           _KW["multidim_array" if dims >= 2 else "array"], None, None))
            return "array_type", result[1], result[2], dims
        return result

    def _parse_type_args(self) -> bool:
        """Consume balanced angle brackets, a type event for each type name
        inside. On failure, whatever they held leaves no event, and the
        position returns to the ``<``, or stays past a closer that closes
        more than was opened."""
        events = self.events
        mark = self.pos, len(events)
        self.eat()  # <
        depth = 1
        budget = 512
        while not self.eof() and budget:
            budget -= 1
            kind, text = self.tok()
            if text == "<":
                depth += 1
            elif text in (">", ">>", ">>>"):
                depth -= len(text)
                if depth <= 0:
                    self.eat()
                    if depth == 0:
                        return True
                    self._rewind((self.pos, mark[1]))
                    return False
            elif text == ">=":
                break
            elif kind == "identifier":
                qualified = self._qualified_name()
                events.append(("type", len(events), _KW[""],
                               qualified.rsplit(".", 1)[-1], qualified))
                continue
            elif text in (";", "{", "}", "(", ")", "=") or kind in ("string", "char"):
                break
            self.eat()
        self._rewind(mark)
        return False

    def _skip_dims(self) -> int:
        """Consume ``[]`` pairs; returns how many."""
        toks, dims = self.toks, 0
        while toks[self.pos][1] == "[" and toks[self.pos + 1][1] == "]":
            self.pos += 2
            dims += 1
        return dims

    def _skip_angles(self) -> None:
        """Type parameters, which give no event."""
        mark = len(self.events)
        if not self._parse_type_args():
            # unbalanced; consume the single '<' and move on
            if self.at("<"):
                self.eat()
        del self.events[mark:]

    # --- statements ----------------------------------------------------------

    def _parse_block(self) -> object:
        """A block; returns what its first statement read (see
        parse_statement)."""
        if not self.accept("{"):
            self._recover()
            return None
        statements = self._parse_list(self.parse_statement, None, "}")
        return statements[0] if statements else None

    def parse_statement(self) -> object:
        """One statement. Returns what an expression statement's
        expression read (see parse_expression), and None for any other
        statement."""
        if self.depth >= MAX_DEPTH:
            self._too_deep()
            return None
        self.depth += 1
        try:
            kind, text = self.toks[self.pos]
            if text == "{":
                self._parse_block()
                return None
            if text == ";":
                self.pos += 1
                return None
            if kind == "keyword":
                handler = getattr(self, f"_stmt_{text}", None)
                if handler is not None:
                    handler()
                    return None
            if (kind == "identifier" and self.tok(1) == ("op", ":")
                    and self.tok(2)[1] != ":"):
                self.pos += 2  # a label
                self.parse_statement()
                return None
            if (kind == "identifier" and text == "yield"
                    and self.tok(1)[1] not in ("=", ".", "(", ";", "[")):
                self.eat()
                self._expression_statement()
                return None
            if self._try_local_var_decl():
                return None
            if text in MODIFIER_WORDS or text == "@" or self._type_decl_keyword() is not None:
                # a local type, or modifiers that start no declaration
                self._parse_type_declaration(self._parse_modifiers(), local=True)
                return None
            return self._expression_statement()
        finally:
            self.depth -= 1

    def _variable_head(self) -> list[str] | None:
        """``[modifiers] Type name``: its modifiers, with the position after
        the name. None, with nothing read, when no such head starts here."""
        mark = self.pos, len(self.events)
        mods = self._parse_modifiers()
        if self._parse_type() is None or self.toks[self.pos][0] != "identifier":
            self._rewind(mark)
            return None
        self.pos += 1
        return mods

    def _try_local_var_decl(self) -> bool:
        mark = self.pos, len(self.events)
        mods = self._variable_head()
        toks, pos = self.toks, self.pos
        nxt = toks[pos][1]
        if mods is None or not (
                nxt in ("=", ",", ";") or (nxt == "[" and toks[pos + 1][1] == "]")):
            self._rewind(mark)
            return False
        self._emit("declaration", {"variable", *mods})
        self._parse_declarators()
        return True

    def _stmt_if(self) -> None:
        self.eat()
        self._emit("statement", _KW["if"])
        self._parse_condition()
        self.parse_statement()
        if self.at_kw("else"):
            self.eat()
            self.parse_statement()

    def _stmt_while(self) -> None:
        self.eat()
        self._emit("statement", _KW["while"])
        self._parse_condition()
        self.parse_statement()

    def _stmt_do(self) -> None:
        self.eat()
        self._emit("statement", _KW["do_while"])
        self.parse_statement()
        if self.at_kw("while"):
            self.eat()
            self._parse_condition()
        self.accept(";")

    def _stmt_for(self) -> None:
        self.eat()
        if not self.accept("("):
            self._emit("statement", _KW["for"])
            self._recover()
            return
        # enhanced for: [modifiers] Type name : expr
        mark = self.pos, len(self.events)
        if self._variable_head() is not None and self.at(":") and self.tok(1)[1] != ":":
            self.eat()  # :
            self._emit("statement", _KW["enhanced_for"])
            self.parse_expression()
            self.accept(")")
            self.parse_statement()
            return
        self._rewind(mark)
        self._emit("statement", _KW["for"])
        if not self.accept(";"):
            if not self._try_local_var_decl():  # a local consumes its ';'
                self.parse_expression()
                while self.accept(","):
                    self.parse_expression()
                self.accept(";")
        if not self.at(";"):
            self.parse_expression()
        self.accept(";")
        self._parse_list(self.parse_expression, ",", ")")
        self.parse_statement()

    def _stmt_switch(self) -> None:
        self.eat()
        self._emit("statement", _KW["switch"])
        self._parse_condition()
        if not self.accept("{"):
            self._recover()
            return
        self._parse_list(self._parse_switch_item, None, "}")

    def _parse_switch_item(self) -> None:
        """A case label, whose tokens give no event, or a statement."""
        if self.at_kw("case") or self.at_kw("default"):
            self.eat()
            self._skip_to({":", "->", "{", "}"})
            if not self.accept(":"):
                self.accept("->")
        else:
            self.parse_statement()

    def _stmt_try(self) -> None:
        self.eat()
        resources = 0
        if self.accept("("):
            resources = len(self._parse_list(self._parse_resource, ";", ")"))
        self._emit("statement", _KW["try try_with_resources" if resources else "try"])
        self._parse_block()
        while self.at_kw("catch"):
            self.eat()
            types = 0
            if self.accept("("):
                self._parse_modifiers()
                types = len(self._parse_type_list("|"))
                if self.tok()[0] == "identifier":
                    self.eat()  # the exception variable
                self.accept(")")
            self._emit("statement", _KW["catch multi_catch" if types > 1 else "catch"])
            self._parse_block()
        if self.at_kw("finally"):
            self.eat()
            self._emit("statement", _KW["finally"])
            self._parse_block()

    def _parse_resource(self) -> None:
        mark = self.pos, len(self.events)
        if self._variable_head() is not None and self.accept("="):
            self.parse_expression()
            return
        self._rewind(mark)  # an existing variable (Java 9+): a plain expression
        self.parse_expression()

    def _stmt_return(self) -> None:
        self.pos += 1
        if self.toks[self.pos][1] not in (";", "}"):
            self.parse_expression()
        self.accept(";")

    def _stmt_throw(self) -> None:
        self.eat()
        self._emit("statement", _KW["throw"])
        self._expression_statement()

    def _stmt_break(self) -> None:
        self._emit("statement", _KW[self.eat()[1]])  # 'break' or 'continue'
        if self.tok()[0] == "identifier":
            self.eat()  # the label
        self.accept(";")

    _stmt_continue = _stmt_break

    def _stmt_assert(self) -> None:
        self.eat()
        self._emit("statement", _KW["assert"])
        self.parse_expression()
        if self.accept(":"):
            self.parse_expression()
        self.accept(";")

    def _stmt_synchronized(self) -> None:
        self.eat()
        self._emit("statement", _KW["synchronized"])
        self._parse_condition()
        self._parse_block()

    def _parse_condition(self) -> None:
        """A parenthesized expression, if one follows."""
        if self.accept("("):
            self.parse_expression()
            self.accept(")")

    def _expression_statement(self) -> object:
        """One expression, then its ``;``; returns what the expression
        read.

        When the ``;`` is missing, the tokens up to the next statement
        boundary become an error, unless the block ends here.
        """
        expr = self.parse_expression()
        if not self.accept(";") and not (self.at("}") or self.eof()):
            self._recover()
        return expr

    # --- expressions -----------------------------------------------------------
    # Each expression reader returns what it read, when a reader above
    # needs to know: a name (its text, dotted or not), _THIS, _SUPER or
    # _THIS_CALL; and None for anything else.

    def parse_expression(self) -> object:
        """An expression, assignments included (right-associative)."""
        depth = self.depth
        if depth >= MAX_DEPTH:
            self._too_deep()
            return None
        kind, text = self.toks[self.pos]
        # A name or literal on its own passes the levels below unchanged:
        # read it here when they would all be in bounds.
        if (self.toks[self.pos + 1][1] in _LEAF_ENDS and kind in _LEAF_KINDS
                and depth < MAX_DEPTH - 2):
            self.pos += 1
            return text if kind == "identifier" else None
        self.depth = depth + 1
        expr = self._parse_ternary()
        kind, text = self.toks[self.pos]
        if kind == "op" and text in ASSIGN_OPS:
            self.pos += 1
            self._emit("expression", _KW["assignment"])
            self.parse_expression()
            expr = None
        self.depth = depth
        return expr

    def _parse_ternary(self) -> object:
        if self.depth >= MAX_DEPTH:
            self._too_deep()
            return None
        self.depth += 1
        expr = self._parse_binary()
        if self.toks[self.pos] == ("op", "?"):
            self.pos += 1
            self._emit("expression", _KW["ternary"])
            self.parse_expression()
            self.accept(":")
            self._parse_ternary()
            expr = None
        self.depth -= 1
        return expr

    def _parse_binary(self, min_level: int = 0) -> object:
        """Binary and instanceof expressions with operators of level
        ``min_level`` or tighter, by precedence climbing.

        Every operator's right operand holds only tighter operators, so
        each level associates to the left. After an ``instanceof``, which
        has a type and no right operand, no tighter operator may follow.
        """
        left = self._parse_unary()
        max_level = len(BINARY_LEVELS) - 1
        events = self.events
        while True:
            text = self.toks[self.pos][1]
            level = _BINARY_LEVEL.get(text)
            if level is None or level < min_level or level > max_level:
                return left
            self.pos += 1
            if text == "instanceof":
                events.append(("expression", len(events), _KW["instanceof"], None, None))
                if self._variable_head() is None:  # else a pattern binding
                    self._parse_type()
            else:
                events.append(("expression", len(events),
                               _KW["binary equality" if text in ("==", "!=") else "binary"],
                               None, None))
                self._parse_binary(level + 1)
            left = None
            max_level = level

    def _parse_unary(self) -> object:
        if self.depth >= MAX_DEPTH:
            self._too_deep()
            return None
        self.depth += 1
        kind, text = self.toks[self.pos]
        if kind == "op" and text in ("!", "~", "+", "-", "++", "--"):
            self.pos += 1
            self._emit("expression", _KW["unary"])
            self._parse_unary()
            expr = None
        elif text == "(" and self._try_cast():
            expr = None
        else:
            expr = self._parse_postfix()
        self.depth -= 1
        return expr

    def _try_cast(self) -> bool:
        mark = self.pos, len(self.events)
        self.eat()  # (
        ctype = self._parse_type()
        while ctype is not None and self.at("&"):  # intersection cast
            self.eat()
            if self._parse_type() is None:
                ctype = None
        if ctype is None or not self.accept(")"):
            self._rewind(mark)
            return False
        kind, text = self.tok()
        plausible = (
            ctype[0] in ("primitive_type", "array_type", "generic_type")
            or kind in ("identifier", "number", "string", "char")
            or text in ("(", "!", "~")
            or (kind == "keyword" and text in ("new", "this", "super"))
        )
        if not plausible:
            self._rewind(mark)
            return False
        self._emit("expression",
                   _KW["primitive_cast" if ctype[0] == "primitive_type" else "reference_cast"])
        self._parse_unary()
        return True

    def _parse_postfix(self) -> object:
        expr = self._parse_primary()
        toks, events = self.toks, self.events
        # A name is read on by its suffixes, and gives its type event, if
        # any, once it ends. A parenthesised dotted name has given its
        # event already, as the last one: take it back.
        if type(expr) is str and "." in expr and _qualifier_type_use(expr) is not None:
            events.pop()
        while True:
            kind, text = toks[self.pos]
            if text == "." and toks[self.pos + 1][0] in ("identifier", "keyword"):
                kind, seg = toks[self.pos + 1]
                if kind == "keyword" and seg not in ("new", "class", "this", "super"):
                    break
                self.pos += 2
                if seg == "new":  # outer.new Inner(): the qualifier is evidence too
                    if type(expr) is str:
                        self._type_use(expr)
                    self._parse_creation()
                    expr = None
                elif kind == "keyword":  # .class, .this, .super
                    continue
                elif toks[self.pos][1] == "(":
                    self._invocation(seg, expr if type(expr) is str else None)
                    self._parse_args()
                    expr = None
                elif type(expr) is str:
                    expr = expr + "." + seg
                else:
                    expr = None  # a field access
            elif text == "." and toks[self.pos + 1][1] == "<":  # a.<T>m(): type arguments
                mark = self.pos, len(events)
                self.pos += 1
                if (not self._parse_type_args() or toks[self.pos][0] != "identifier"
                        or toks[self.pos + 1][1] != "("):
                    self._rewind(mark)
                    break
                self._invocation(self.eat()[1], expr if type(expr) is str else None)
                self._parse_args()
                expr = None
            elif text == "(" and type(expr) is str:
                qualifier, _, name = expr.rpartition(".")
                self._invocation(name, qualifier or None)
                self._parse_args()
                expr = None
            elif text == "(" and (expr is _THIS or expr is _SUPER):
                # this(…) or super(…); `super` has given its event
                expr = _THIS_CALL if expr is _THIS else None
                self._parse_args()
            elif text == "::":
                self.pos += 1
                kind, text = toks[self.pos]
                ref = "new" if kind == "keyword" and text == "new" else (
                    text if kind == "identifier" else "")
                self.eat()
                qualifier = expr if type(expr) is str else None
                node_id = len(events)
                events.append(("expression", node_id, _KW["method_reference"], None, None))
                if ref == "new":
                    use = _qualifier_type_use(qualifier) if qualifier else None
                    if use is not None:
                        events.append(("invocation", node_id, _KW["new"], use[0], use[1]))
                elif ref:
                    events.append(("invocation", node_id, _KW[""], ref, None))
                if qualifier:
                    self._type_use(qualifier, node_id)
                expr = None
            elif text == "[":
                if type(expr) is str:
                    self._type_use(expr)
                self.pos += 1
                events.append(("expression", len(events), _KW["array_access"], None, None))
                if not self.at("]"):
                    self.parse_expression()
                self.accept("]")
                expr = None
            elif kind == "op" and text in ("++", "--"):
                if type(expr) is str:
                    self._type_use(expr)
                self.pos += 1
                events.append(("expression", len(events), _KW["unary"], None, None))
                expr = None
            else:
                break
        if type(expr) is str:
            self._type_use(expr)
        return expr

    def _parse_primary(self) -> object:
        kind, text = self.toks[self.pos]
        if kind in ("number", "string", "char"):
            self.pos += 1
            return None
        if kind == "keyword":
            if text == "switch":
                self._stmt_switch()
                return None
            self.pos += 1
            if text == "new":
                self._parse_creation()
                return None
            if text == "this":
                return _THIS
            if text == "super":
                self._emit("expression", _KW["super"])
                return _SUPER
            if text in PRIMITIVES:
                self._skip_dims()
                return text
            # keyword in expression position: give up gracefully
            self._emit("error")
            return None
        if text == "(":
            if self._try_lambda():
                return None
            self.pos += 1
            inner = self.parse_expression()
            self.accept(")")
            return inner
        if kind == "identifier":
            self.pos += 1
            if self.toks[self.pos][1] == "->":
                self.pos += 1
                self._emit("expression", _KW["lambda"])
                self._parse_lambda_body()
                return None
            return text
        if text == "@":
            self._parse_annotation()
            return None
        if text == "{":
            self._parse_array_initializer()
            return None
        if text == "<":  # <T>this(…) or <T>super(…): type arguments, as a call's
            mark = self.pos, len(self.events)
            if (self._parse_type_args() and self.toks[self.pos][1] in ("this", "super")
                    and self.toks[self.pos + 1][1] == "("):
                return self._parse_primary()
            self._rewind(mark)
        self.eat()
        self._emit("error")
        return None

    def _try_lambda(self) -> bool:
        toks = self.toks
        depth = 0
        i = self.pos
        budget = 512
        while budget:
            budget -= 1
            kind, text = toks[i]
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif text in (";", "{", "}") or kind == "eof":
                return False
            i += 1
        if depth != 0 or toks[i + 1][1] != "->":
            return False
        self._emit("expression", _KW["lambda"])
        # Inferred parameters are names between commas: (), (a), (a, b).
        inner = toks[self.pos + 1:i]
        if (not inner or len(inner) % 2 == 1) and all(
                t[0] == "identifier" if k % 2 == 0 else t[1] == ","
                for k, t in enumerate(inner)):
            self.pos = i + 1
        else:
            self._parse_params()
        self.accept("->")
        self._parse_lambda_body()
        return True

    def _parse_lambda_body(self) -> None:
        if self.at("{"):
            self._parse_block()
        else:
            self.parse_expression()

    def _parse_creation(self) -> None:
        """What follows ``new``. Explicit type arguments (``new
        <T>A()``) are type uses, as a call's are."""
        if self.toks[self.pos][1] == "<":
            self._parse_type_args()
        ctype = self._parse_type()
        if ctype is None:
            self._recover()
            return
        kind, name, qualified, dims = ctype
        if dims or self.at("["):  # new int[] {…}, new int[n][]
            if dims:
                self.events.pop()  # the array type is the creation's, no type use
            while self.accept("["):
                if not self.at("]"):
                    self.parse_expression()
                self.accept("]")
                dims += 1
            self._emit("expression", _KW[
                "multidim_array_creation" if dims >= 2 else "array_creation"])
            if self.at("{"):
                self._parse_array_initializer()
            return
        events = self.events
        node_id = len(events)
        events.append(("invocation", node_id, _KW["new"], name, qualified))
        if self.at("("):
            self._parse_args()
        if self.at("{"):
            events.append(("declaration", node_id, _KW["anonymous_class"], name, None))
            self._parse_class_body(name)

    def _parse_args(self) -> None:
        if self.accept("("):
            self._parse_list(self.parse_expression, ",", ")")

    def _parse_list(self, item, sep: str | None, close: str | None) -> list:
        """``item()`` results, separated by ``sep`` unless it is None, up to
        and including ``close``, or up to eof when it is None."""
        items: list = []
        toks = self.toks
        while True:
            kind, text = toks[self.pos]
            if text == close:
                self.pos += 1
                return items
            if kind == "eof":
                return items
            start = self.pos
            items.append(item())
            if toks[self.pos][1] == sep:
                self.pos += 1
            if self.pos == start:
                self.eat()
