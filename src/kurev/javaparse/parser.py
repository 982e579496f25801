"""Best-effort recursive-descent parser for Java compilation units.

The grammar coverage is pragmatic rather than compiler-grade: the tree it
builds exposes declarations, statements, expressions, type usages,
annotations and invocations with enough fidelity for pattern-based
counting. Localized syntax errors become ``error`` nodes and parsing
continues at the next synchronization point.
"""

from __future__ import annotations

from ..errors import ParseError
from .lexer import Token, tokenize
from .nodes import Node

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

# Nesting bound, so that a tree depends on the text alone: each open
# statement, member and annotation is one level, each expression three.
MAX_DEPTH = 100


def parse_java(source: str) -> Node:
    """Parse Java source text into a syntax tree.

    Raises :class:`ParseError` only for catastrophically unusable input
    (NUL bytes, i.e. binary data mislabeled as source). Anything else
    yields a tree, possibly containing ``error`` nodes.
    """
    nul = source.find("\x00")
    if nul >= 0:
        raise ParseError(f"binary content (NUL byte at offset {nul})", offset=nul)
    return _Parser(tokenize(source)).parse_compilation_unit()


def _bounded(method):
    """``method`` one level deeper. Past MAX_DEPTH its construct is an error
    node spanning the tokens up to an unmatched closing bracket, or up to a
    ``,``, ``:`` or ``;`` outside brackets."""
    def bounded(self, *args):
        if self.depth < MAX_DEPTH:
            self.depth += 1
            node = method(self, *args)
            self.depth -= 1
            return node
        depth = 0
        while not self.eof() and (depth or self.tok().text not in ",:;)]}"):
            text = self.eat().text
            depth += (text in "([{") - (text in ")]}")
        return Node("error")
    return bounded


class _Parser:
    def __init__(self, tokens: list[Token]):
        # Two more copies of the final eof token: no lookahead goes past
        # tok(2), and the position never moves past the first eof, so every
        # index below is in range without a bounds test.
        self.toks = tokens + tokens[-1:] * 2
        self.pos = 0
        self.depth = 0

    # --- token helpers -------------------------------------------------

    def tok(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def at(self, text: str) -> bool:
        t = self.toks[self.pos]
        return t.text == text and t.kind != "eof"

    def at_kw(self, word: str) -> bool:
        t = self.toks[self.pos]
        return t.text == word and t.kind == "keyword"

    def eat(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        t = self.toks[self.pos]
        if t.text == text and t.kind != "eof":
            self.pos += 1
            return True
        return False

    def eof(self) -> bool:
        return self.toks[self.pos].kind == "eof"

    # --- error recovery -------------------------------------------------

    def _recover(self, stop_at_brace: bool = True) -> Node:
        """Consume tokens into an error node until a sync point."""
        err = Node("error")
        depth = 0
        while not self.eof():
            t = self.tok()
            if depth == 0:
                if t.text == ";":
                    self.eat()
                    break
                if t.text == "}" and stop_at_brace:
                    break
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                if depth == 0 and t.text in ")]":
                    self.eat()
                    continue
                depth -= 1
            self.eat()
        return err

    # --- compilation unit -------------------------------------------------

    def parse_compilation_unit(self) -> Node:
        unit = Node("compilation_unit")
        while not self.eof():
            start = self.pos
            if self.accept(";"):
                continue
            annotations = self._parse_annotations()
            if self.at_kw("package"):
                self.eat()
                self._qualified_name()
                self.accept(";")
                node = Node("package_declaration")
                node.children.extend(annotations)
                unit.children.append(node)
                continue
            if self.at_kw("import"):
                unit.children.append(self._parse_import())
                continue
            decl = self._parse_type_declaration(annotations)
            if decl is not None:
                unit.children.append(decl)
            if self.pos == start:
                unit.children.append(self._recover(stop_at_brace=False))
                if self.pos == start:
                    self.eat()
        return unit

    def _parse_import(self) -> Node:
        self.eat()  # import
        is_static = self.at_kw("static") and bool(self.eat())
        parts = []
        wildcard = False
        while self.tok().kind in ("identifier", "keyword"):
            parts.append(self.eat().text)
            if not self.accept("."):
                break
            if self.accept("*"):
                wildcard = True
                break
        self.accept(";")
        return Node(
            "import_declaration",
            {"name": ".".join(parts), "static": is_static, "wildcard": wildcard},
        )

    # --- annotations & modifiers -------------------------------------------

    def _parse_annotations(self) -> list[Node]:
        out = []
        while self.at("@") and not self.tok(1).is_kw("interface"):
            out.append(self._parse_annotation())
        return out

    @_bounded
    def _parse_annotation(self) -> Node:
        self.eat()  # @
        node = _named("annotation", self._qualified_name())
        if self.at("("):
            depth = 0
            while not self.eof():
                if self.at("@") and depth > 0:
                    node.children.append(self._parse_annotation())
                    continue
                t = self.eat()
                if t.text == "(":
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
        return node

    def _parse_modifiers(self, annotations: list[Node]) -> tuple[list[str], list[Node]]:
        mods: list[str] = []
        while True:
            if self.tok().kind == "keyword" and self.tok().text in MODIFIER_WORDS:
                mods.append(self.eat().text)
            elif self.at("@") and not self.tok(1).is_kw("interface"):
                annotations.append(self._parse_annotation())
            elif (self.tok().kind == "identifier" and self.tok().text == "sealed"
                  and self.tok(1).kind == "keyword"):
                self.eat()  # contextual 'sealed' before class/interface
            elif (self.tok().kind == "identifier" and self.tok().text == "non"
                  and self.tok(1).text == "-" and self.tok(2).text == "sealed"):
                self.eat()
                self.eat()
                self.eat()
            else:
                return mods, annotations

    def _qualified_name(self) -> str:
        parts = []
        while self.tok().kind == "identifier":
            parts.append(self.eat().text)
            if not (self.at(".") and self.tok(1).kind == "identifier"):
                break
            self.eat()
        return ".".join(parts)

    # --- type declarations ---------------------------------------------------

    def _type_decl_keyword(self) -> str | None:
        """The word that starts a type declaration here, or None."""
        t = self.tok()
        if t.kind == "keyword" and t.text in ("class", "interface", "enum"):
            return t.text
        if t.text == "@" and self.tok(1).is_kw("interface"):
            return "@interface"
        if (t.kind == "identifier" and t.text == "record"
                and self.tok(1).kind == "identifier" and self.tok(2).text == "("):
            return "record"
        return None

    def _parse_type_declaration(
        self, annotations: list[Node], premods: tuple[str, ...] | list[str] = ()
    ) -> Node | None:
        mods, annotations = self._parse_modifiers(annotations)
        mods = list(premods) + mods
        kw = self._type_decl_keyword()
        if kw is None:
            if mods or annotations:
                node = self._recover()
                node.children.extend(annotations)
                return node
            return None

        self.accept("@")  # of @interface
        self.eat()  # class/interface/enum/record keyword
        name = self.eat().text if self.tok().kind == "identifier" else ""
        node = Node(
            {"class": "class_declaration", "interface": "interface_declaration",
             "enum": "enum_declaration", "record": "record_declaration",
             "@interface": "annotation_declaration"}[kw],
            {"name": name, "modifiers": tuple(mods), "generic": False},
        )
        node.children.extend(annotations)

        if self.at("<"):
            node.fields["generic"] = True
            self._skip_angles()
        if kw == "record" and self.at("("):
            params, _ = self._parse_params()
            node.fields["params"] = len(params)
            node.children.extend(params)
        if self.at_kw("extends"):
            self.eat()
            names = self._parse_type_list(node, ",")
            if names and kw == "class":
                node.fields["superclass_name"] = names[0]
        while self.at_kw("implements") or self.at("permits"):  # 'permits' is contextual
            self.eat()
            self._parse_type_list(node, ",")

        if self.accept(";"):
            return node
        if kw == "enum":
            self._parse_enum_body(node, name)
        else:
            self._parse_class_body(node, name)
        return node

    def _parse_type_list(self, owner: Node, sep: str) -> list[str]:
        """Parse ``sep``-separated types into ``owner``; returns their
        simple names."""
        names = []
        while True:
            t = self._parse_type()
            if t is None:
                break
            names.append(_type_simple_name(t))
            owner.children.append(t)
            if not self.accept(sep):
                break
        return names

    def _parse_class_body(self, owner: Node, type_name: str) -> None:
        if not self.accept("{"):
            owner.children.append(self._recover())
            return
        self._parse_members(owner, type_name)

    def _parse_members(self, owner: Node, type_name: str) -> None:
        """Members up to and including the closing ``}``."""
        while not self.eof() and not self.at("}"):
            start = self.pos
            member = self._parse_member(type_name)
            if member is not None:
                owner.children.append(member)
            if self.pos == start:
                owner.children.append(self._recover())
                if self.pos == start:
                    self.eat()
        self.accept("}")

    def _parse_enum_body(self, owner: Node, type_name: str) -> None:
        if not self.accept("{"):
            owner.children.append(self._recover())
            return
        # constants until ';' or '}'
        while not self.eof() and not self.at("}") and not self.at(";"):
            annos = self._parse_annotations()
            if self.tok().kind != "identifier":
                owner.children.append(self._recover())
                break
            const = Node("enum_constant", {"name": self.eat().text})
            const.children.extend(annos)
            if self.at("("):
                const.children.extend(self._parse_args())
            if self.at("{"):
                self._parse_class_body(const, type_name)
            owner.children.append(const)
            if not self.accept(","):
                break
        if self.accept(";"):
            self._parse_members(owner, type_name)
        else:
            self.accept("}")

    @_bounded
    def _parse_member(self, type_name: str) -> Node | None:
        if self.accept(";"):
            return None
        mods, annotations = self._parse_modifiers([])

        # initializer block
        if self.at("{"):
            node = Node("initializer_block", {"static": "static" in mods})
            node.children.append(self._parse_block())
            return node

        if self._type_decl_keyword() is not None:  # nested type
            return self._parse_type_declaration(annotations, mods)

        # generic method type parameters
        generic_method = False
        if self.at("<"):
            generic_method = True
            self._skip_angles()

        # constructor
        if (self.tok().kind == "identifier" and self.tok().text == type_name
                and self.tok(1).text == "("):
            node = Node("constructor_declaration",
                        {"name": self.eat().text, "modifiers": tuple(mods)})
            node.children.extend(annotations)
            return self._parse_callable(node)

        rtype = self._parse_type()
        if rtype is None:
            node = self._recover()
            node.children.extend(annotations)
            return node

        if self.tok().kind != "identifier":
            node = self._recover()
            node.fields["modifiers"] = tuple(mods)
            node.children.extend(annotations)
            node.children.append(rtype)
            return node

        name = self.eat().text
        if self.at("("):
            node = Node(
                "method_declaration",
                {"name": name, "modifiers": tuple(mods), "generic": generic_method,
                 "return_type_name": _type_simple_name(rtype)},
            )
            node.children.extend(annotations)
            node.children.append(rtype)
            return self._parse_callable(node)

        # field declaration
        node = Node("field_declaration", {"modifiers": tuple(mods)})
        node.children.extend(annotations)
        node.children.append(rtype)
        self._parse_declarators(node)
        return node

    def _parse_callable(self, node: Node) -> Node:
        """The parameters, ``throws`` types, ``default`` value and body of
        the method or constructor ``node``."""
        params, varargs = self._parse_params()
        node.children.extend(params)
        self._skip_dims()
        throws: list[str] = []
        if self.at_kw("throws"):
            self.eat()
            throws = self._parse_type_list(node, ",")
        node.fields.update(params=len(params), varargs=varargs, throws=tuple(throws))
        if self.at_kw("default"):  # annotation-type member default value
            self.eat()
            node.children.append(self.parse_expression())
        if self.at("{"):
            node.children.append(self._parse_block())
        else:
            self.accept(";")
        return node

    def _parse_declarators(self, owner: Node) -> None:
        while True:
            decl = Node("variable_declarator")
            self._skip_dims()
            if self.accept("="):
                decl.children.append(self.parse_expression())
            owner.children.append(decl)
            if self.accept(",") and self.tok().kind == "identifier":
                self.eat()  # the next variable's name
                continue
            break
        self.accept(";")

    def _parse_array_initializer(self) -> Node:
        node = Node("array_initializer")
        self.eat()  # {
        node.children.extend(self._parse_list(self.parse_expression, ",", "}"))
        return node

    def _parse_params(self) -> tuple[list[Node], bool]:
        params: list[Node] = []
        varargs = False
        if not self.accept("("):
            return params, varargs
        while not self.eof() and not self.at(")"):
            start = self.pos
            _, annos = self._parse_modifiers([])
            ptype = self._parse_type()
            if ptype is None:
                while not self.eof() and not self.at(",") and not self.at(")"):
                    if self.at("("):
                        self._skip_parens()
                    else:
                        self.eat()
                self.accept(",")
                continue
            if self.accept("..."):
                varargs = True
            if self.tok().kind == "identifier":
                self.eat()  # the parameter's name
            self._skip_dims()
            p = Node("formal_parameter")
            p.children.extend(annos)
            p.children.append(ptype)
            params.append(p)
            self.accept(",")
            if self.pos == start:
                self.eat()
        self.accept(")")
        return params, varargs

    # --- types -------------------------------------------------------------

    def _parse_type(self) -> Node | None:
        mark = self.pos
        t = self.tok()
        node: Node | None = None
        if t.kind == "keyword" and t.text in PRIMITIVES:
            self.eat()
            node = Node("primitive_type", {"name": t.text})
        elif t.kind == "identifier":
            qualified = self._qualified_name()
            if self.at("<"):
                args = self._parse_type_args()
                if args is None:
                    self.pos = mark
                    return None
                node = _named("generic_type", qualified)
                node.children.extend(args)
            else:
                node = _named("named_type", qualified)
        else:
            return None
        dims = self._skip_dims()
        if dims:
            arr = Node("array_type", {"dims": dims})
            arr.children.append(node)
            return arr
        return node

    def _parse_type_args(self) -> list[Node] | None:
        """Consume balanced angle brackets, extracting type names used inside."""
        mark = self.pos
        self.eat()  # <
        depth = 1
        names: list[Node] = []
        budget = 512
        while not self.eof() and budget:
            budget -= 1
            t = self.tok()
            if t.text == "<":
                depth += 1
            elif t.text in (">", ">>", ">>>"):
                depth -= len(t.text)
                if depth <= 0:
                    self.eat()
                    return names if depth == 0 else None
            elif t.text == ">=":
                self.pos = mark
                return None
            elif t.kind == "identifier":
                names.append(_named("named_type", self._qualified_name()))
                continue
            elif t.text in (";", "{", "}", "(", ")", "=") or t.kind in ("string", "char"):
                self.pos = mark
                return None
            self.eat()
        self.pos = mark
        return None

    def _skip_dims(self) -> int:
        """Consume ``[]`` pairs; returns how many."""
        dims = 0
        while self.at("[") and self.tok(1).text == "]":
            self.eat()
            self.eat()
            dims += 1
        return dims

    def _skip_angles(self) -> None:
        if self._parse_type_args() is None:
            # unbalanced; consume the single '<' and move on
            if self.at("<"):
                self.eat()

    def _skip_parens(self) -> None:
        depth = 0
        while not self.eof():
            t = self.eat()
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth <= 0:
                    return

    # --- statements ----------------------------------------------------------

    def _parse_block(self) -> Node:
        node = Node("block")
        if not self.accept("{"):
            node.children.append(self._recover())
            return node
        node.children.extend(self._parse_list(self.parse_statement, None, "}"))
        return node

    @_bounded
    def parse_statement(self) -> Node:
        t = self.tok()
        if t.text == "{":
            return self._parse_block()
        if self.accept(";"):
            return Node("empty_statement")
        if t.kind == "keyword":
            handler = getattr(self, f"_stmt_{t.text}", None)
            if handler is not None:
                return handler()
        if t.text in MODIFIER_WORDS or t.text == "@" or self._type_decl_keyword() is not None:
            return self._modified_statement()
        if (t.kind == "identifier" and self.tok(1).text == ":"
                and self.tok(1).kind == "op" and self.tok(2).text != ":"):
            self.eat()
            self.eat()
            node = Node("labeled_statement")
            node.children.append(self.parse_statement())
            return node
        if t.kind == "identifier" and t.text == "yield" and self.tok(1).text not in ("=", ".", "(", ";", "["):
            self.eat()
            return self._expression_statement("yield_statement")
        local = self._try_local_var_decl([], [])
        if local is not None:
            return local
        return self._expression_statement("expression_statement")

    def _modified_statement(self) -> Node:
        mods, annotations = self._parse_modifiers([])
        if self._type_decl_keyword() is not None:
            return self._parse_type_declaration(annotations, mods)
        local = self._try_local_var_decl(mods, annotations)
        if local is not None:
            return local
        node = self._recover()
        node.children.extend(annotations)
        return node

    def _try_local_var_decl(self, mods: list[str], annotations: list[Node]) -> Node | None:
        mark = self.pos
        vtype = self._parse_type()
        nxt = self.tok(1).text
        if (vtype is None or self.tok().kind != "identifier"
                or not (nxt in ("=", ",", ";") or (nxt == "[" and self.tok(2).text == "]"))):
            self.pos = mark
            return None
        self.eat()  # the first variable's name
        node = Node("local_variable_declaration", {"modifiers": tuple(mods)})
        node.children.extend(annotations)
        node.children.append(vtype)
        self._parse_declarators(node)
        return node

    def _stmt_if(self) -> Node:
        self.eat()
        node = Node("if_statement")
        self._parse_condition(node)
        node.children.append(self.parse_statement())
        if self.at_kw("else"):
            self.eat()
            node.children.append(self.parse_statement())
        return node

    def _stmt_while(self) -> Node:
        self.eat()
        node = Node("while_statement")
        self._parse_condition(node)
        node.children.append(self.parse_statement())
        return node

    def _stmt_do(self) -> Node:
        self.eat()
        node = Node("do_statement")
        node.children.append(self.parse_statement())
        if self.at_kw("while"):
            self.eat()
            self._parse_condition(node)
        self.accept(";")
        return node

    def _stmt_for(self) -> Node:
        self.eat()
        if not self.accept("("):
            node = Node("for_statement")
            node.children.append(self._recover())
            return node
        # enhanced for: [final] Type name : expr
        mark = self.pos
        self._parse_modifiers([])
        ftype = self._parse_type()
        if (ftype is not None and self.tok().kind == "identifier"
                and self.tok(1).text == ":" and self.tok(2).text != ":"):
            self.eat()  # the variable's name
            self.eat()  # :
            node = Node("enhanced_for_statement")
            node.children.append(ftype)
            node.children.append(self.parse_expression())
            self.accept(")")
            node.children.append(self.parse_statement())
            return node
        self.pos = mark
        node = Node("for_statement")
        if not self.accept(";"):
            init = self._try_local_var_decl([], [])
            if init is not None:
                node.children.append(init)  # consumes its ';'
            else:
                node.children.append(self.parse_expression())
                while self.accept(","):
                    node.children.append(self.parse_expression())
                self.accept(";")
        if not self.at(";"):
            node.children.append(self.parse_expression())
        self.accept(";")
        node.children.extend(self._parse_list(self.parse_expression, ",", ")"))
        node.children.append(self.parse_statement())
        return node

    def _stmt_switch(self) -> Node:
        self.eat()
        node = Node("switch_statement")
        self._parse_condition(node)
        if not self.accept("{"):
            node.children.append(self._recover())
            return node
        while not self.eof() and not self.at("}"):
            start = self.pos
            if self.at_kw("case") or self.at_kw("default"):
                label = Node("case_label")
                self.eat()
                depth = 0
                while not self.eof():
                    t = self.tok()
                    if depth == 0 and t.text in (":", "->"):
                        self.eat()
                        break
                    if depth == 0 and t.text in ("{", "}"):
                        break
                    if t.text in "([":
                        depth += 1
                    elif t.text in ")]":
                        depth -= 1
                    self.eat()
                node.children.append(label)
            else:
                node.children.append(self.parse_statement())
            if self.pos == start:
                self.eat()
        self.accept("}")
        return node

    def _stmt_try(self) -> Node:
        self.eat()
        node = Node("try_statement", {"resources": 0})
        if self.accept("("):
            resources = self._parse_list(self._parse_resource, ";", ")")
            node.children.extend(resources)
            node.fields["resources"] = len(resources)
        node.children.append(self._parse_block())
        while self.at_kw("catch"):
            self.eat()
            clause = Node("catch_clause", {"types": 0})
            if self.accept("("):
                clause.children.extend(self._parse_modifiers([])[1])
                clause.fields["types"] = len(self._parse_type_list(clause, "|"))
                if self.tok().kind == "identifier":
                    self.eat()  # the exception variable
                self.accept(")")
            clause.children.append(self._parse_block())
            node.children.append(clause)
        if self.at_kw("finally"):
            self.eat()
            fin = Node("finally_clause")
            fin.children.append(self._parse_block())
            node.children.append(fin)
        return node

    def _parse_resource(self) -> Node:
        mark = self.pos
        self._parse_modifiers([])
        rtype = self._parse_type()
        if rtype is not None and self.tok().kind == "identifier" and self.tok(1).text == "=":
            self.eat()  # the variable's name
            self.eat()  # =
            node = Node("resource")
            node.children.append(rtype)
            node.children.append(self.parse_expression())
            return node
        self.pos = mark
        # existing-variable resource (Java 9+): plain expression
        node = Node("resource")
        node.children.append(self.parse_expression())
        return node

    def _stmt_return(self) -> Node:
        self.eat()
        node = Node("return_statement")
        if not self.at(";") and not self.at("}"):
            node.children.append(self.parse_expression())
        self.accept(";")
        return node

    def _stmt_throw(self) -> Node:
        self.eat()
        return self._expression_statement("throw_statement")

    def _stmt_break(self) -> Node:
        t = self.eat()  # 'break' or 'continue'
        node = Node(f"{t.text}_statement")
        if self.tok().kind == "identifier":
            self.eat()  # the label
        self.accept(";")
        return node

    _stmt_continue = _stmt_break

    def _stmt_assert(self) -> Node:
        self.eat()
        node = Node("assert_statement")
        node.children.append(self.parse_expression())
        if self.accept(":"):
            node.children.append(self.parse_expression())
        self.accept(";")
        return node

    def _stmt_synchronized(self) -> Node:
        self.eat()
        node = Node("synchronized_statement")
        self._parse_condition(node)
        node.children.append(self._parse_block())
        return node

    def _parse_condition(self, owner: Node) -> None:
        """Append a parenthesized expression to ``owner``, if one follows."""
        if self.accept("("):
            owner.children.append(self.parse_expression())
            self.accept(")")

    def _expression_statement(self, kind: str) -> Node:
        """A ``kind`` node holding one expression, then its ``;``.

        When the ``;`` is missing, the tokens up to the next statement
        boundary become an ``error`` child, unless the block ends here.
        """
        node = Node(kind)
        node.children.append(self.parse_expression())
        if not self.accept(";") and not (self.at("}") or self.eof()):
            node.children.append(self._recover())
        return node

    # --- expressions -----------------------------------------------------------

    @_bounded
    def parse_expression(self) -> Node:
        """An expression, assignments included (right-associative)."""
        lhs = self._parse_ternary()
        t = self.toks[self.pos]
        if t.kind == "op" and t.text in ASSIGN_OPS:
            self.pos += 1
            node = Node("assignment_expression")
            node.children.append(lhs)
            node.children.append(self.parse_expression())
            return node
        return lhs

    @_bounded
    def _parse_ternary(self) -> Node:
        cond = self._parse_binary()
        if self.at("?") and self.tok().kind == "op":
            self.eat()
            node = Node("ternary_expression")
            node.children.append(cond)
            node.children.append(self.parse_expression())
            self.accept(":")
            node.children.append(self._parse_ternary())
            return node
        return cond

    def _parse_binary(self, min_level: int = 0) -> Node:
        """Binary and instanceof expressions with operators of level
        ``min_level`` or tighter, by precedence climbing.

        Every operator's right operand holds only tighter operators, so
        each level associates to the left. After an ``instanceof``, which
        has a type and no right operand, no tighter operator may follow.
        """
        left = self._parse_unary()
        max_level = len(BINARY_LEVELS) - 1
        while True:
            t = self.toks[self.pos]
            level = _BINARY_LEVEL.get(t.text)
            if level is None or level < min_level or level > max_level:
                return left
            self.pos += 1
            if t.text == "instanceof":
                node = Node("instanceof_expression")
                node.children.append(left)
                itype = self._parse_type()
                if itype is not None:
                    node.children.append(itype)
                    if self.toks[self.pos].kind == "identifier":  # pattern binding
                        self.pos += 1
            else:
                node = Node("binary_expression", {"op": t.text})
                node.children.append(left)
                node.children.append(self._parse_binary(level + 1))
            left = node
            max_level = level

    @_bounded
    def _parse_unary(self) -> Node:
        t = self.tok()
        if t.kind == "op" and t.text in ("!", "~", "+", "-", "++", "--"):
            self.eat()
            node = Node("unary_expression")
            node.children.append(self._parse_unary())
            return node
        if t.text == "(":
            cast = self._try_cast()
            if cast is not None:
                return cast
        return self._parse_postfix()

    def _try_cast(self) -> Node | None:
        mark = self.pos
        self.eat()  # (
        ctype = self._parse_type()
        while ctype is not None and self.at("&"):  # intersection cast
            self.eat()
            extra = self._parse_type()
            if extra is None:
                ctype = None
        if ctype is None or not self.accept(")"):
            self.pos = mark
            return None
        nxt = self.tok()
        plausible = (
            ctype.kind in ("primitive_type", "array_type", "generic_type")
            or nxt.kind in ("identifier", "number", "string", "char")
            or nxt.text in ("(", "!", "~")
            or nxt.is_kw("new") or nxt.is_kw("this") or nxt.is_kw("super")
        )
        if not plausible:
            self.pos = mark
            return None
        node = Node("cast_expression")
        node.children.append(ctype)
        node.children.append(self._parse_unary())
        return node

    def _parse_postfix(self) -> Node:
        expr = self._parse_primary()
        while True:
            t = self.tok()
            if t.text == "." and self.tok(1).kind in ("identifier", "keyword"):
                nxt = self.tok(1)
                if nxt.is_kw("new"):  # outer.new Inner(): the qualifier is evidence too
                    self.eat()
                    self.eat()
                    creation = self._parse_creation()
                    # last, so that children[0] stays the created type
                    creation.children.append(expr)
                    expr = creation
                    continue
                if nxt.is_kw("class") or nxt.is_kw("this") or nxt.is_kw("super"):
                    self.eat()
                    self.eat()
                    continue
                if nxt.kind != "identifier":
                    return expr
                self.eat()
                seg = self.eat().text
                if self.at("("):
                    qualifier = expr.get("name") if expr.kind == "name" else None
                    node = Node("method_invocation",
                                {"name": seg, "qualifier": qualifier})
                    node.children.append(expr)
                    node.children.extend(self._parse_args())
                    expr = node
                    continue
                if expr.kind == "name":
                    expr = Node("name", {"name": expr.get("name") + "." + seg})
                else:
                    node = Node("field_access")
                    node.children.append(expr)
                    expr = node
                continue
            if t.text == "(" and expr.kind == "name":
                dotted = expr.get("name")
                simple = dotted.rsplit(".", 1)
                name = simple[-1]
                qualifier = simple[0] if len(simple) > 1 else None
                node = Node("method_invocation", {"name": name, "qualifier": qualifier})
                node.children.extend(self._parse_args())
                expr = node
                continue
            if t.text == "(" and expr.kind in ("this_expression", "super_expression"):
                node = Node("explicit_constructor_invocation",
                            {"target": "this" if expr.kind == "this_expression" else "super"})
                node.children.extend(self._parse_args())
                expr = node
                continue
            if t.text == "::":
                self.eat()
                ref = "new" if self.at_kw("new") else (
                    self.tok().text if self.tok().kind == "identifier" else "")
                self.eat()
                qualifier = expr.get("name") if expr.kind == "name" else None
                node = Node("method_reference", {"name": ref, "qualifier": qualifier})
                node.children.append(expr)
                expr = node
                continue
            if t.text == "[":
                self.eat()
                node = Node("array_access")
                node.children.append(expr)
                if not self.at("]"):
                    node.children.append(self.parse_expression())
                self.accept("]")
                expr = node
                continue
            if t.kind == "op" and t.text in ("++", "--"):
                self.eat()
                node = Node("unary_expression")
                node.children.append(expr)
                expr = node
                continue
            return expr

    def _parse_primary(self) -> Node:
        t = self.tok()
        if t.kind in ("number", "string", "char"):
            self.eat()
            return Node("literal")
        if t.kind == "keyword":
            if t.text == "new":
                self.eat()
                return self._parse_creation()
            if t.text == "this":
                self.eat()
                return Node("this_expression")
            if t.text == "super":
                self.eat()
                return Node("super_expression")
            if t.text == "switch":
                return self._stmt_switch()
            if t.text in PRIMITIVES:
                self.eat()
                self._skip_dims()
                return Node("name", {"name": t.text})
            # keyword in expression position: give up gracefully
            self.eat()
            return Node("error")
        if t.text == "(":
            lam = self._try_lambda()
            if lam is not None:
                return lam
            self.eat()
            inner = self.parse_expression()
            self.accept(")")
            return inner
        if t.kind == "identifier":
            if self.tok(1).text == "->":
                self.eat()
                self.eat()
                node = Node("lambda_expression")
                node.children.append(self._parse_lambda_body())
                return node
            self.eat()
            return Node("name", {"name": t.text})
        if t.text == "@":
            return self._parse_annotation()
        if t.text == "{":
            return self._parse_array_initializer()
        self.eat()
        return Node("error")

    def _try_lambda(self) -> Node | None:
        depth = 0
        i = self.pos
        budget = 512
        while budget:
            budget -= 1
            text = self.toks[i].text
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif text in (";", "{", "}") or self.toks[i].kind == "eof":
                return None
            i += 1
        if depth != 0 or self.toks[i + 1].text != "->":
            return None
        node = Node("lambda_expression")
        # Inferred parameters are names between commas: (), (a), (a, b).
        inner = self.toks[self.pos + 1:i]
        if (not inner or len(inner) % 2 == 1) and all(
                t.kind == "identifier" if k % 2 == 0 else t.text == ","
                for k, t in enumerate(inner)):
            self.pos = i + 1
        else:
            node.children.extend(self._parse_params()[0])
        self.accept("->")
        node.children.append(self._parse_lambda_body())
        return node

    def _parse_lambda_body(self) -> Node:
        if self.at("{"):
            return self._parse_block()
        return self.parse_expression()

    def _parse_creation(self) -> Node:
        ctype = self._parse_type()
        if ctype is None:
            return self._recover()
        if ctype.kind == "array_type":  # new int[] {...}
            node = Node("array_creation", {"dims": ctype.get("dims", 1)})
            node.children.append(ctype.children[0])
            if self.at("{"):
                node.children.append(self._parse_array_initializer())
            return node
        if self.at("["):
            dims = 0
            sizes: list[Node] = []
            while self.accept("["):
                if not self.at("]"):
                    sizes.append(self.parse_expression())
                self.accept("]")
                dims += 1
            creation = Node("array_creation", {"dims": dims})
            creation.children.append(ctype)
            creation.children.extend(sizes)
            if self.at("{"):
                creation.children.append(self._parse_array_initializer())
            return creation
        node = Node("object_creation", {"anonymous": False,
                                        "type_name": _type_simple_name(ctype)})
        node.children.append(ctype)
        if self.at("("):
            node.children.extend(self._parse_args())
        if self.at("{"):
            node.fields["anonymous"] = True
            self._parse_class_body(node, _type_simple_name(ctype))
        return node

    def _parse_args(self) -> list[Node]:
        if not self.accept("("):
            return []
        return self._parse_list(self.parse_expression, ",", ")")

    def _parse_list(self, item, sep: str | None, close: str) -> list[Node]:
        """``item()`` results, separated by ``sep`` unless it is None, up to
        and including ``close``."""
        items: list[Node] = []
        while not self.eof() and not self.at(close):
            start = self.pos
            items.append(item())
            if sep is not None:
                self.accept(sep)
            if self.pos == start:
                self.eat()
        self.accept(close)
        return items


def _named(kind: str, qualified: str) -> Node:
    """A node naming ``qualified`` by its simple and its qualified name."""
    return Node(kind, {"name": qualified.rsplit(".", 1)[-1], "qualified": qualified})


def _type_simple_name(t: Node) -> str:
    if t.kind == "array_type" and t.children:
        return _type_simple_name(t.children[0])
    return t.get("name", "")
