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
# parse_statement, _parse_member, _parse_annotation, parse_expression,
# _parse_ternary and _parse_unary each take one level while they run.
MAX_DEPTH = 100

# Tokens that end an expression whatever came before: a name or literal
# followed by one is a whole expression.
_LEAF_ENDS = frozenset([";", ",", ")", "]", "}", ":"])
_LEAF_KINDS = frozenset(["identifier", "number", "string", "char"])


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


class _Parser:
    def __init__(self, tokens: list[Token]):
        # Two more copies of the final eof token: no lookahead goes past
        # tok(2), and the position never moves past the first eof, so every
        # index below is in range without a bounds test.
        self.toks = tokens + tokens[-1:] * 2
        self.pos = 0
        self.depth = 0

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

    # --- error recovery -------------------------------------------------

    def _too_deep(self) -> Node:
        """Past MAX_DEPTH, a construct is an error node spanning the tokens
        up to an unmatched closing bracket, or up to a ``,``, ``:`` or ``;``
        outside brackets."""
        depth = 0
        while not self.eof() and (depth or self.tok()[1] not in ",:;)]}"):
            text = self.eat()[1]
            depth += (text in "([{") - (text in ")]}")
        return Node("error")

    def _recover(self, stop_at_brace: bool = True) -> Node:
        """Consume tokens into an error node until a sync point."""
        err = Node("error")
        depth = 0
        while not self.eof():
            text = self.tok()[1]
            if depth == 0:
                if text == ";":
                    self.eat()
                    break
                if text == "}" and stop_at_brace:
                    break
            if text in "([{":
                depth += 1
            elif text in ")]}":
                if depth == 0 and text in ")]":
                    self.eat()
                    continue
                depth -= 1
            self.eat()
        return err

    # --- compilation unit -------------------------------------------------

    def parse_compilation_unit(self) -> Node:
        unit = Node("compilation_unit")
        toks = self.toks
        while toks[self.pos][0] != "eof":
            start = self.pos
            if toks[start][1] == ";":
                self.pos += 1
                continue
            mods, annotations = self._parse_modifiers([])
            if toks[self.pos] == ("keyword", "package"):
                self.pos += 1
                self._qualified_name()
                self.accept(";")
                unit.children.append(Node("package_declaration", {}, annotations))
                continue
            if toks[self.pos] == ("keyword", "import"):
                unit.children.append(self._parse_import())
                continue
            decl = self._parse_type_declaration(annotations, mods)
            if decl is not None:
                unit.children.append(decl)
            if self.pos == start:
                unit.children.append(self._recover(stop_at_brace=False))
                if self.pos == start:
                    self.eat()
        return unit

    def _parse_import(self) -> Node:
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
        return Node(
            "import_declaration",
            {"name": ".".join(parts), "static": is_static, "wildcard": wildcard},
        )

    # --- annotations & modifiers -------------------------------------------

    def _parse_annotation(self) -> Node:
        if self.depth >= MAX_DEPTH:
            return self._too_deep()
        self.depth += 1
        self.eat()  # @
        node = _named("annotation", self._qualified_name())
        if self.at("("):
            depth = 0
            while not self.eof():
                if self.at("@") and depth > 0:
                    node.children.append(self._parse_annotation())
                    continue
                text = self.eat()[1]
                if text == "(":
                    depth += 1
                elif text == ")":
                    depth -= 1
                    if depth == 0:
                        break
        self.depth -= 1
        return node

    def _parse_modifiers(self, annotations: list[Node]) -> tuple[list[str], list[Node]]:
        mods: list[str] = []
        toks = self.toks
        while True:
            kind, text = toks[self.pos]
            if kind == "keyword" and text in MODIFIER_WORDS:
                mods.append(text)
                self.pos += 1
            elif text == "@" and toks[self.pos + 1] != ("keyword", "interface"):
                annotations.append(self._parse_annotation())
            elif kind == "identifier" and text == "sealed" and toks[self.pos + 1][0] == "keyword":
                self.pos += 1  # contextual 'sealed' before class/interface
            elif (kind == "identifier" and text == "non" and toks[self.pos + 1][1] == "-"
                  and toks[self.pos + 2][1] == "sealed"):
                self.pos += 3
            else:
                return mods, annotations

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
        name = self.eat()[1] if self.tok()[0] == "identifier" else ""
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
        toks = self.toks
        while toks[self.pos][1] != "}" and not self.eof():
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
            _, annos = self._parse_modifiers([])
            if self.tok()[0] != "identifier":
                owner.children.append(self._recover())
                break
            const = Node("enum_constant", {"name": self.eat()[1]})
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

    def _parse_member(self, type_name: str) -> Node | None:
        if self.depth >= MAX_DEPTH:
            return self._too_deep()
        self.depth += 1
        try:
            toks = self.toks
            if toks[self.pos][1] == ";":
                self.pos += 1
                return None
            mods, annotations = self._parse_modifiers([])
            text = toks[self.pos][1]

            # initializer block
            if text == "{":
                return Node("initializer_block", {"static": "static" in mods},
                            [self._parse_block()])

            if self._type_decl_keyword() is not None:  # nested type
                return self._parse_type_declaration(annotations, mods)

            # generic method type parameters
            generic_method = text == "<"
            if generic_method:
                self._skip_angles()

            # constructor; a record's compact one has no parameter list
            if toks[self.pos] == ("identifier", type_name) and toks[self.pos + 1][1] in ("(", "{"):
                self.pos += 1
                return self._parse_callable(Node(
                    "constructor_declaration",
                    {"name": type_name, "modifiers": tuple(mods)}, annotations))

            rtype = self._parse_type()
            if rtype is None:
                node = self._recover()
                node.children.extend(annotations)
                return node

            kind, name = toks[self.pos]
            if kind != "identifier":
                node = self._recover()
                node.fields["modifiers"] = tuple(mods)
                node.children.extend(annotations)
                node.children.append(rtype)
                return node

            self.pos += 1
            annotations.append(rtype)
            if toks[self.pos][1] == "(":
                return self._parse_callable(Node(
                    "method_declaration",
                    {"name": name, "modifiers": tuple(mods), "generic": generic_method,
                     "return_type_name": _type_simple_name(rtype)},
                    annotations))

            # field declaration
            node = Node("field_declaration", {"modifiers": tuple(mods)}, annotations)
            self._parse_declarators(node)
            return node
        finally:
            self.depth -= 1

    def _parse_callable(self, node: Node) -> Node:
        """The parameters, ``throws`` types, ``default`` value and body of
        the method or constructor ``node``."""
        params, varargs = self._parse_params()
        node.children.extend(params)
        if self.toks[self.pos][1] == "[":
            self._skip_dims()
        throws: list[str] = []
        if self.toks[self.pos] == ("keyword", "throws"):
            self.pos += 1
            throws = self._parse_type_list(node, ",")
        node.fields.update(params=len(params), varargs=varargs, throws=tuple(throws))
        if self.toks[self.pos] == ("keyword", "default"):  # annotation-type member default
            self.pos += 1
            node.children.append(self.parse_expression())
        if self.toks[self.pos][1] == "{":
            node.children.append(self._parse_block())
        else:
            self.accept(";")
        return node

    def _parse_declarators(self, owner: Node) -> None:
        toks = self.toks
        while True:
            if toks[self.pos][1] == "[":
                self._skip_dims()
            if toks[self.pos][1] == "=":
                self.pos += 1
                owner.children.append(Node("variable_declarator", {}, [self.parse_expression()]))
            else:
                owner.children.append(Node("variable_declarator"))
            if toks[self.pos][1] != ",":
                break
            self.pos += 1
            if toks[self.pos][0] != "identifier":
                break
            self.pos += 1  # the next variable's name
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
        toks = self.toks
        while toks[self.pos][1] != ")" and not self.eof():
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
            if toks[self.pos][1] == "...":
                self.pos += 1
                varargs = True
            if toks[self.pos][0] == "identifier":
                self.pos += 1  # the parameter's name
            if toks[self.pos][1] == "[":
                self._skip_dims()
            annos.append(ptype)
            params.append(Node("formal_parameter", {}, annos))
            if toks[self.pos][1] == ",":
                self.pos += 1
        self.accept(")")
        return params, varargs

    # --- types -------------------------------------------------------------

    def _parse_type(self) -> Node | None:
        mark = self.pos
        kind, text = self.toks[mark]
        node: Node | None = None
        if kind == "keyword" and text in PRIMITIVES:
            self.pos += 1
            node = Node("primitive_type", {"name": text})
        elif kind == "identifier":
            qualified = self._qualified_name()
            if self.toks[self.pos][1] == "<":
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
        dims = self._skip_dims() if self.toks[self.pos][1] == "[" else 0
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
            kind, text = self.tok()
            if text == "<":
                depth += 1
            elif text in (">", ">>", ">>>"):
                depth -= len(text)
                if depth <= 0:
                    self.eat()
                    return names if depth == 0 else None
            elif text == ">=":
                self.pos = mark
                return None
            elif kind == "identifier":
                names.append(_named("named_type", self._qualified_name()))
                continue
            elif text in (";", "{", "}", "(", ")", "=") or kind in ("string", "char"):
                self.pos = mark
                return None
            self.eat()
        self.pos = mark
        return None

    def _skip_dims(self) -> int:
        """Consume ``[]`` pairs; returns how many."""
        toks, dims = self.toks, 0
        while toks[self.pos][1] == "[" and toks[self.pos + 1][1] == "]":
            self.pos += 2
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
            text = self.eat()[1]
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth <= 0:
                    return

    # --- statements ----------------------------------------------------------

    def _parse_block(self) -> Node:
        if not self.accept("{"):
            return Node("block", {}, [self._recover()])
        return Node("block", {}, self._parse_list(self.parse_statement, None, "}"))

    def parse_statement(self) -> Node:
        if self.depth >= MAX_DEPTH:
            return self._too_deep()
        self.depth += 1
        try:
            kind, text = self.toks[self.pos]
            if text == "{":
                return self._parse_block()
            if text == ";":
                self.pos += 1
                return Node("empty_statement")
            if kind == "keyword":
                handler = getattr(self, f"_stmt_{text}", None)
                if handler is not None:
                    return handler()
            if (kind == "identifier" and self.tok(1) == ("op", ":")
                    and self.tok(2)[1] != ":"):
                self.eat()
                self.eat()
                node = Node("labeled_statement")
                node.children.append(self.parse_statement())
                return node
            if (kind == "identifier" and text == "yield"
                    and self.tok(1)[1] not in ("=", ".", "(", ";", "[")):
                self.eat()
                return self._expression_statement("yield_statement")
            local = self._try_local_var_decl()
            if local is not None:
                return local
            if text in MODIFIER_WORDS or text == "@" or self._type_decl_keyword() is not None:
                # a local type, or modifiers that start no declaration
                return self._parse_type_declaration([])
            return self._expression_statement("expression_statement")
        finally:
            self.depth -= 1

    def _variable_head(self) -> tuple[list[str], list[Node]] | None:
        """``[modifiers] Type name``: its modifiers, and its annotations
        followed by its type, with the position after the name. None, with
        the position unchanged, when no such head starts here."""
        mark = self.pos
        mods, children = self._parse_modifiers([])
        vtype = self._parse_type()
        if vtype is None or self.toks[self.pos][0] != "identifier":
            self.pos = mark
            return None
        self.pos += 1
        children.append(vtype)
        return mods, children

    def _try_local_var_decl(self) -> Node | None:
        mark = self.pos
        head = self._variable_head()
        toks, pos = self.toks, self.pos
        nxt = toks[pos][1]
        if head is None or not (
                nxt in ("=", ",", ";") or (nxt == "[" and toks[pos + 1][1] == "]")):
            self.pos = mark
            return None
        node = Node("local_variable_declaration", {"modifiers": tuple(head[0])}, head[1])
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
        # enhanced for: [modifiers] Type name : expr
        mark = self.pos
        head = self._variable_head()
        if head is not None and self.at(":") and self.tok(1)[1] != ":":
            self.eat()  # :
            node = Node("enhanced_for_statement", {}, head[1])
            node.children.append(self.parse_expression())
            self.accept(")")
            node.children.append(self.parse_statement())
            return node
        self.pos = mark
        node = Node("for_statement")
        if not self.accept(";"):
            init = self._try_local_var_decl()
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
                    text = self.tok()[1]
                    if depth == 0 and text in (":", "->"):
                        self.eat()
                        break
                    if depth == 0 and text in ("{", "}"):
                        break
                    if text in "([":
                        depth += 1
                    elif text in ")]":
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
                if self.tok()[0] == "identifier":
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
        head = self._variable_head()
        if head is not None and self.accept("="):
            return Node("resource", {}, [*head[1], self.parse_expression()])
        self.pos = mark  # an existing variable (Java 9+): a plain expression
        return Node("resource", {}, [self.parse_expression()])

    def _stmt_return(self) -> Node:
        self.pos += 1
        node = Node("return_statement")
        if self.toks[self.pos][1] not in (";", "}"):
            node.children.append(self.parse_expression())
        self.accept(";")
        return node

    def _stmt_throw(self) -> Node:
        self.eat()
        return self._expression_statement("throw_statement")

    def _stmt_break(self) -> Node:
        node = Node(f"{self.eat()[1]}_statement")  # 'break' or 'continue'
        if self.tok()[0] == "identifier":
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
        node = Node(kind, {}, [self.parse_expression()])
        if not self.accept(";") and not (self.at("}") or self.eof()):
            node.children.append(self._recover())
        return node

    # --- expressions -----------------------------------------------------------

    def parse_expression(self) -> Node:
        """An expression, assignments included (right-associative)."""
        depth = self.depth
        if depth >= MAX_DEPTH:
            return self._too_deep()
        kind, text = self.toks[self.pos]
        # A name or literal on its own passes the levels below unchanged:
        # build it here when they would all be in bounds.
        if (self.toks[self.pos + 1][1] in _LEAF_ENDS and kind in _LEAF_KINDS
                and depth < MAX_DEPTH - 2):
            self.pos += 1
            return Node("name", {"name": text}) if kind == "identifier" else Node("literal")
        self.depth = depth + 1
        node = self._parse_ternary()
        kind, text = self.toks[self.pos]
        if kind == "op" and text in ASSIGN_OPS:
            self.pos += 1
            node = Node("assignment_expression", {}, [node, self.parse_expression()])
        self.depth = depth
        return node

    def _parse_ternary(self) -> Node:
        if self.depth >= MAX_DEPTH:
            return self._too_deep()
        self.depth += 1
        node = self._parse_binary()
        if self.toks[self.pos] == ("op", "?"):
            self.pos += 1
            node = Node("ternary_expression", {}, [node, self.parse_expression()])
            self.accept(":")
            node.children.append(self._parse_ternary())
        self.depth -= 1
        return node

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
            text = self.toks[self.pos][1]
            level = _BINARY_LEVEL.get(text)
            if level is None or level < min_level or level > max_level:
                return left
            self.pos += 1
            if text == "instanceof":
                node = Node("instanceof_expression", {}, [left])
                head = self._variable_head()  # a pattern binding
                if head is not None:
                    node.children.extend(head[1])
                elif (itype := self._parse_type()) is not None:
                    node.children.append(itype)
            else:
                node = Node("binary_expression", {"op": text},
                            [left, self._parse_binary(level + 1)])
            left = node
            max_level = level

    def _parse_unary(self) -> Node:
        if self.depth >= MAX_DEPTH:
            return self._too_deep()
        self.depth += 1
        kind, text = self.toks[self.pos]
        if kind == "op" and text in ("!", "~", "+", "-", "++", "--"):
            self.pos += 1
            node = Node("unary_expression", {}, [self._parse_unary()])
        else:
            node = self._try_cast() if text == "(" else None
            if node is None:
                node = self._parse_postfix()
        self.depth -= 1
        return node

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
        kind, text = self.tok()
        plausible = (
            ctype.kind in ("primitive_type", "array_type", "generic_type")
            or kind in ("identifier", "number", "string", "char")
            or text in ("(", "!", "~")
            or (kind == "keyword" and text in ("new", "this", "super"))
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
        toks = self.toks
        while True:
            kind, text = toks[self.pos]
            if text == "." and toks[self.pos + 1][0] in ("identifier", "keyword"):
                kind, seg = toks[self.pos + 1]
                if kind == "keyword" and seg not in ("new", "class", "this", "super"):
                    return expr
                self.pos += 2
                if seg == "new":  # outer.new Inner(): the qualifier is evidence too
                    creation = self._parse_creation()
                    # last, so that children[0] stays the created type
                    creation.children.append(expr)
                    expr = creation
                elif kind == "keyword":  # .class, .this, .super
                    continue
                elif toks[self.pos][1] == "(":
                    qualifier, receiver = _receiver(expr)
                    expr = Node("method_invocation", {"name": seg, "qualifier": qualifier},
                                [*receiver, *self._parse_args()])
                elif expr.kind == "name":
                    expr = Node("name", {"name": expr.fields["name"] + "." + seg})
                else:
                    expr = Node("field_access", {}, [expr])
            elif text == "." and toks[self.pos + 1][1] == "<":  # a.<T>m(): type arguments
                mark = self.pos
                self.pos += 1
                type_args = self._parse_type_args()
                if (type_args is None or toks[self.pos][0] != "identifier"
                        or toks[self.pos + 1][1] != "("):
                    self.pos = mark
                    return expr
                qualifier, receiver = _receiver(expr)
                expr = Node("method_invocation", {"name": self.eat()[1], "qualifier": qualifier},
                            [*receiver, *type_args, *self._parse_args()])
            elif text == "(" and expr.kind == "name":
                qualifier, _, name = expr.fields["name"].rpartition(".")
                expr = Node("method_invocation", {"name": name, "qualifier": qualifier or None},
                            self._parse_args())
            elif text == "(" and expr.kind in ("this_expression", "super_expression"):
                expr = Node("explicit_constructor_invocation",
                            {"target": "this" if expr.kind == "this_expression" else "super"},
                            self._parse_args())
            elif text == "::":
                self.pos += 1
                kind, text = toks[self.pos]
                ref = "new" if kind == "keyword" and text == "new" else (
                    text if kind == "identifier" else "")
                self.eat()
                qualifier, receiver = _receiver(expr)
                expr = Node("method_reference", {"name": ref, "qualifier": qualifier}, receiver)
            elif text == "[":
                self.pos += 1
                node = Node("array_access", {}, [expr])
                if not self.at("]"):
                    node.children.append(self.parse_expression())
                self.accept("]")
                expr = node
            elif kind == "op" and text in ("++", "--"):
                self.pos += 1
                expr = Node("unary_expression", {}, [expr])
            else:
                return expr

    def _parse_primary(self) -> Node:
        kind, text = self.toks[self.pos]
        if kind in ("number", "string", "char"):
            self.pos += 1
            return Node("literal")
        if kind == "keyword":
            if text == "switch":
                return self._stmt_switch()
            self.pos += 1
            if text == "new":
                return self._parse_creation()
            if text == "this":
                return Node("this_expression")
            if text == "super":
                return Node("super_expression")
            if text in PRIMITIVES:
                self._skip_dims()
                return Node("name", {"name": text})
            # keyword in expression position: give up gracefully
            return Node("error")
        if text == "(":
            lam = self._try_lambda()
            if lam is not None:
                return lam
            self.pos += 1
            inner = self.parse_expression()
            self.accept(")")
            return inner
        if kind == "identifier":
            self.pos += 1
            if self.toks[self.pos][1] == "->":
                self.pos += 1
                return Node("lambda_expression", {}, [self._parse_lambda_body()])
            return Node("name", {"name": text})
        if text == "@":
            return self._parse_annotation()
        if text == "{":
            return self._parse_array_initializer()
        self.eat()
        return Node("error")

    def _try_lambda(self) -> Node | None:
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
                return None
            i += 1
        if depth != 0 or toks[i + 1][1] != "->":
            return None
        node = Node("lambda_expression")
        # Inferred parameters are names between commas: (), (a), (a, b).
        inner = toks[self.pos + 1:i]
        if (not inner or len(inner) % 2 == 1) and all(
                t[0] == "identifier" if k % 2 == 0 else t[1] == ","
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


def _named(kind: str, qualified: str) -> Node:
    """A node naming ``qualified`` by its simple and its qualified name."""
    return Node(kind, {"name": qualified.rsplit(".", 1)[-1], "qualified": qualified})


def _receiver(expr: Node) -> tuple[str | None, list[Node]]:
    """The qualifier and children of a call or method reference on ``expr``:
    a name is the qualifier alone, anything else the first child."""
    if expr.kind == "name":
        return expr.fields["name"], []
    return None, [expr]


def _type_simple_name(t: Node) -> str:
    if t.kind == "array_type" and t.children:
        return _type_simple_name(t.children[0])
    return t.get("name", "")
