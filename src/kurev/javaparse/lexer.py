"""Tokenizer for Java source text.

Produces a flat token stream; comments and whitespace are dropped. The
tokenizer never fails on valid UTF-8 input: unknown characters become
``error`` tokens so the parser can recover around them.
"""

import re
from dataclasses import dataclass

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
_TOKEN = re.compile(
    r"""
      (?P<skip>    \s+ | //[^\n]* | /\*.*?(?:\*/|\Z) )
    | (?P<string>  \"\"\".*?(?:\"\"\"|\Z) | "(?:[^"\\\n]|\\.?)*"? )
    | (?P<char>    '(?:[^'\\\n]|\\.?)*'? )
    | (?P<number>  \.?\d (?:[\w.]|(?<=[eEpP])[+-])* )
    | (?P<word>    (?:[^\W\d]|\$)[\w$]* )
    | (?P<op>      """
    + "|".join(map(re.escape, OPERATORS))
    + r""" )
    | (?P<punct>   [(){}\[\];,.] )
    | (?P<error>   . )
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str  # identifier | keyword | number | string | char | op | punct | error | eof
    text: str
    offset: int

    def is_kw(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN.finditer(source):
        kind, text, offset = match.lastgroup, match.group(), match.start()
        if kind == "skip":
            continue
        if kind == "word":
            kind = "keyword" if text in KEYWORDS else "identifier"
        elif kind == "number" and text.endswith("."):
            # A trailing '.' starts member access, not part of the literal.
            tokens.append(Token(kind, text[:-1], offset))
            kind, text, offset = "punct", ".", match.end() - 1
        tokens.append(Token(kind, text, offset))
    tokens.append(Token("eof", "", len(source)))
    return tokens
