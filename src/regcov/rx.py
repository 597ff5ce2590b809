"""Regular-expression ASTs, parser and printer.

Grammar::

    expr   := term ('|' term)*
    term   := factor+
    factor := atom ('*' | '+')?
    atom   := symbol | '(' expr ')' | '%eps' | '%empty'

Whitespace is ignored.  Symbols are single characters belonging to the
declared alphabet; ``%eps`` denotes the singleton of the empty word and
``%empty`` denotes the empty language.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Regex:
    pass


@dataclass(frozen=True)
class Empty(Regex):
    pass


@dataclass(frozen=True)
class Epsilon(Regex):
    pass


@dataclass(frozen=True)
class Letter(Regex):
    symbol: str


@dataclass(frozen=True)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


@dataclass(frozen=True)
class Plus(Regex):
    inner: Regex


EMPTY = Empty()
EPSILON = Epsilon()


def chain(node: Regex) -> list:
    """The operands, left to right, of the chain of `node`'s operator (Union
    or Concat) below it: a Concat of Concats lists its factors that are no
    Concat.  Found with a stack, so that a long chain costs no recursion."""
    kind = type(node)
    parts, stack = [], [node]
    while stack:
        n = stack.pop()
        while type(n) is kind:
            stack.append(n.right)
            n = n.left
        parts.append(n)
    return parts


# -- parsing ------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, symbols: str):
        self.text = text
        self.symbols = set(symbols)
        self.pos = 0

    def error(self, msg: str):
        raise InputError(f"regex syntax error at position {self.pos}: {msg} (in {self.text!r})")

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def parse(self) -> Regex:
        node = self.expr()
        if self.peek() is not None:
            self.error(f"unexpected character {self.peek()!r}")
        return node

    def expr(self) -> Regex:
        node = self.term()
        while self.peek() == "|":
            self.pos += 1
            node = Union(node, self.term())
        return node

    def term(self) -> Regex:
        node = self.factor()
        while True:
            c = self.peek()
            if c is None or c in "|)":
                return node
            node = Concat(node, self.factor())

    def factor(self) -> Regex:
        node = self.atom()
        c = self.peek()
        if c == "*":
            self.pos += 1
            return Star(node)
        if c == "+":
            self.pos += 1
            return Plus(node)
        return node

    def atom(self) -> Regex:
        c = self.peek()
        if c is None:
            self.error("unexpected end of input")
        if c == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return node
        if c == "%":
            for kw, node in (("%eps", EPSILON), ("%empty", EMPTY)):
                if self.text.startswith(kw, self.pos):
                    self.pos += len(kw)
                    return node
            self.error("expected '%eps' or '%empty'")
        if c in "|)*+":
            self.error(f"unexpected operator {c!r}")
        if c not in self.symbols:
            self.error(f"symbol {c!r} is not in the alphabet")
        self.pos += 1
        return Letter(c)


def regex_parse(text: str, symbols: str) -> Regex:
    """Parse `text` over the given alphabet symbols."""
    return _Parser(text, symbols).parse()


# -- printing -----------------------------------------------------------------

def precedence(node: Regex) -> int:
    # atoms 3, postfix 2, concatenation 1, union 0
    if isinstance(node, Union):
        return 0
    if isinstance(node, Concat):
        return 1
    if isinstance(node, (Star, Plus)):
        return 2
    return 3


def regex_to_text(node: Regex) -> str:
    """Render a regex in the surface grammar (reparsing yields the same
    language; association of chained operators is not preserved).

    State elimination shares sub-expressions, so the regex is a DAG whose
    tree can be exponentially larger.  Each (node, context) pair is
    rendered once, keyed by the node's identity, and its text reused: a
    node is rendered at most three times, once per context (union operand,
    concatenation factor, starred atom), so the cost is linear in the size
    of the DAG plus the text built, not in the size of the tree.  A leaf is
    an atom, never parenthesized, and is not kept.  The texts are kept
    until the call returns, so on a regex that shares nothing the memory is
    the output times the nesting depth, where a tree printer holds about
    the output once."""
    done: dict = {0: {}, 1: {}, 3: {}}     # context -> id of a node -> its text

    def render(n: Regex, ctx: int) -> str:
        if isinstance(n, Letter):
            return n.symbol
        if isinstance(n, Epsilon):
            return "%eps"
        if isinstance(n, Empty):
            return "%empty"
        texts = done[ctx]
        s = texts.get(id(n))
        if s is None:
            if isinstance(n, Union):
                s = "|".join([render(m, 0) for m in chain(n)])
            elif isinstance(n, Concat):
                s = "".join([render(m, 1) for m in chain(n)])
            elif isinstance(n, Star):
                s = render(n.inner, 3) + "*"
            elif isinstance(n, Plus):
                s = render(n.inner, 3) + "+"
            else:  # pragma: no cover
                raise TypeError(n)
            if precedence(n) < ctx:
                s = "(" + s + ")"
            texts[id(n)] = s
        return s

    return render(node, 0)
