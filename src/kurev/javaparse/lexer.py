"""Tokenizer for Java source text.

Produces a flat token stream; comments and whitespace are dropped. The
tokenizer never fails on valid UTF-8 input: unknown characters become
``error`` tokens so the parser can recover around them.
"""

import re
from typing import NamedTuple

KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    """.split()
)

# Longest-first so that e.g. ">>>=" wins over ">".
OPERATORS = sorted(
    [
        ">>>=", "<<=", ">>=", ">>>", "...", "->", "::", "++", "--", "&&",
        "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "&=",
        "|=", "^=", "<<", ">>", "+", "-", "*", "/", "%", "=", "<", ">",
        "!", "~", "&", "|", "^", "?", ":", "@",
    ],
    key=len,
    reverse=True,
)

# One alternative per token kind, tried in order. Unclosed comments and
# text blocks run to the end of input, unterminated string and char
# literals to the end of the line; in a literal a backslash takes the next
# character with it. `\w` is str.isalnum() plus "_" and `\d` a decimal
# digit (category Nd), so a word starts with any `\w` but a decimal digit.
# A sign belongs to a number only after its exponent letter: `p`/`P` in a
# hex literal (where `e`/`E` is a digit), `e`/`E` in any other.
_TOKEN = re.compile(
    r"""
      (?P<skip>    \s+ | //[^\n]* | /\*.*?(?:\*/|\Z) )
    | (?P<string>  \"\"\".*?(?:\"\"\"|\Z) | "(?:[^"\\\n]|\\.?)*"? )
    | (?P<char>    '(?:[^'\\\n]|\\.?)*'? )
    | (?P<number>  0[xX] (?:[\w.]|(?<=[pP])[+-])* | \.?\d (?:[\w.]|(?<=[eE])[+-])* )
    | (?P<word>    (?:[^\W\d]|\$)[\w$]* )
    | (?P<op>      """
    + "|".join(map(re.escape, OPERATORS))
    + r""" )
    | (?P<punct>   [(){}\[\];,.] )
    | (?P<error>   . )
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # identifier | keyword | number | string | char | op | punct | error | eof
    text: str

    def is_kw(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word


# Builds a Token from a (kind, text) tuple without the Python-level
# frame of Token.__new__; the lexer makes one per token.
_new_token = tuple.__new__


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "skip":
            continue
        text = match.group()
        if kind == "word":
            kind = "keyword" if text in KEYWORDS else "identifier"
        elif kind == "number" and text[-1] == ".":
            # A trailing '.' starts member access, not part of the literal.
            append(_new_token(Token, (kind, text[:-1])))
            append(_new_token(Token, ("punct", ".")))
            continue
        append(_new_token(Token, (kind, text)))
    append(Token("eof", ""))
    return tokens
