"""Tokenizer for Java source text.

Produces a flat token stream; comments and whitespace are dropped. The
tokenizer never fails on valid UTF-8 input: unknown characters become
``error`` tokens so the parser can recover around them.
"""

import re

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

# Each match is the layout before a token (whitespace and comments, which
# give no token), then one alternative per token kind, tried in order, the
# commonest first; `end` matches at the end of input. A `.` is punct unless
# it starts `...` or a number. Unclosed comments and text blocks run to the
# end of input, unterminated string and char literals to the end of the
# line; in a literal a backslash takes the next character with it. `\w` is
# str.isalnum() plus "_" and `\d` a decimal digit (category Nd), so a word
# starts with any `\w` but a decimal digit. A sign belongs to a number only
# after its exponent letter: `p`/`P` in a hex literal (where `e`/`E` is a
# digit), `e`/`E` in any other.
_TOKEN = re.compile(
    r"""
    (?: \s+ | //[^\n]* | /\*.*?(?:\*/|\Z) )*
    (?: (?P<punct>   [(){}\[\];,] | \.(?!\.\.|\d) )
      | (?P<word>    (?:[^\W\d]|\$)[\w$]* )
      | (?P<number>  0[xX] (?:[\w.]|(?<=[pP])[+-])* | \.?\d (?:[\w.]|(?<=[eE])[+-])* )
      | (?P<op>      """
    + "|".join(map(re.escape, OPERATORS))
    + r""" )
      | (?P<string>  \"\"\".*?(?:\"\"\"|\Z) | "(?:[^"\\\n]|\\.?)*"? )
      | (?P<char>    '(?:[^'\\\n]|\\.?)*'? )
      | (?P<error>   \S )
      | (?P<end>     \Z ) )
    """,
    re.VERBOSE | re.DOTALL,
)
# Token kind by group number; each match closes one group, its last.
_KINDS = (None, *_TOKEN.groupindex)
_WORD, _NUMBER, _END = (_TOKEN.groupindex[g] for g in ("word", "number", "end"))

# A token is a (kind, text) pair. Its kind is one of identifier, keyword,
# number, string, char, op, punct, error and eof; only eof has empty text.
Token = tuple[str, str]
EOF = ("eof", "")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        text = match[group]
        if group == _WORD:
            append(("keyword" if text in KEYWORDS else "identifier", text))
        elif group == _NUMBER and text[-1] == ".":
            # A trailing '.' starts member access, not part of the literal.
            append(("number", text[:-1]))
            append(("punct", "."))
        elif group == _END:
            break
        else:
            append((_KINDS[group], text))
    append(EOF)
    return tokens
