"""The earlier regex printer: the reference for `regcov.rx.regex_to_text`,
which must print the same text.  It renders the regex as a tree, so a
sub-expression shared by the DAG that state elimination builds is rendered
once per occurrence."""

from regcov import rx


def regex_to_text(node: rx.Regex) -> str:
    def render(n: rx.Regex, ctx: int) -> str:
        if isinstance(n, rx.Empty):
            s = "%empty"
        elif isinstance(n, rx.Epsilon):
            s = "%eps"
        elif isinstance(n, rx.Letter):
            s = n.symbol
        elif isinstance(n, rx.Union):
            s = "|".join([render(m, 0) for m in rx.chain(n)])
        elif isinstance(n, rx.Concat):
            s = "".join([render(m, 1) for m in rx.chain(n)])
        elif isinstance(n, rx.Star):
            s = render(n.inner, 3) + "*"
        elif isinstance(n, rx.Plus):
            s = render(n.inner, 3) + "+"
        else:  # pragma: no cover
            raise TypeError(n)
        if rx.precedence(n) < ctx:
            s = "(" + s + ")"
        return s

    return render(node, 0)
