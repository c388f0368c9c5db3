"""Text, lines, number tokens and names of the ABA, (p)BAF and DIMACS
formats: every input is decoded and split into directives here."""
from .errors import ParseError


def decode(data, source):
    """The bytes of an input as strict UTF-8 text; `source` names it."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"not UTF-8 text: {source}") from None


# the 'p' header of each format: 'p <kind>', then a number per name
HEADERS = {"aba": ("n",), "baf": ("n",), "pbaf": ("n", "premise bound"),
           "cnf": ("vars", "clauses")}


def directives(text, kinds, skip=()):
    """(kind, numbers, later) of a text whose first directive is the 'p'
    header of one of `kinds`: its kind, its non-negative numbers, and an
    iterator of (line number, tokens, line) over the later directives.
    Blank lines, '#' comments and the directives in `skip` are left out;
    a second header is refused."""
    lines = _lines(text, skip)
    lineno, parts, _ = next(lines, (None, [None], None))
    if parts[0] != "p":
        raise ParseError(f"missing {_shapes(kinds)} header", lineno)
    kind = parts[1] if len(parts) > 1 and parts[1] in kinds else None
    if kind is None or len(parts) != 2 + len(HEADERS[kind]):
        raise ParseError(f"expected {_shapes([kind] if kind else kinds)}", lineno)
    return kind, [nonneg(t, lineno) for t in parts[2:]], lines


def _lines(text, skip):
    header = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header:
                raise ParseError("duplicate header", lineno)
            header = True
        elif parts[0] in skip:
            continue
        yield lineno, parts, line


def _shapes(kinds):
    """The headers of `kinds` as the messages name them."""
    return " or ".join(f"'p {k} " + " ".join(f"<{x}>" for x in HEADERS[k]) + "'"
                       for k in kinds)


def decimal(token):
    """Is the token an optional sign and ASCII digits? `int` reads more:
    '_' between digits and the digits of other scripts."""
    return token.isascii() and (token.isdigit()
                                or token[1:].isdigit() and token[0] in "+-")


def integer(token, lineno):
    if not decimal(token):
        raise ParseError(f"expected an integer, got {token!r}", lineno)
    return int(token)


def nonneg(token, lineno):
    v = integer(token, lineno)
    if v < 0:
        raise ParseError(f"expected a non-negative integer, got {v}", lineno)
    return v


def index(v, first, last, what, lineno):
    if not first <= v <= last:
        raise ParseError(f"{what} id {v} out of range {first}..{last}", lineno)
    return v


def put_once(table, key, value, lineno, what):
    """table[key] = value once; `what` is like "atom {} already has a name"."""
    if key in table:
        raise ParseError(what.format(key), lineno)
    table[key] = value


def check_names(names):
    """Refuse a name that a 'name' line cannot carry back unchanged: an empty
    one, one with leading or trailing whitespace, or one spanning lines."""
    for nm in names:
        if nm.strip() != nm or nm.splitlines() != [nm]:
            raise ValueError(f"name {nm!r} does not fit on a 'name' line")
