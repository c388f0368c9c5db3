"""Text, lines, number tokens and names of the ABA, (p)BAF and DIMACS
formats: every input is decoded and split into directives here."""
from .errors import ParseError


def decode(data, source):
    """The bytes of an input as strict UTF-8 text; `source` names it."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"not UTF-8 text: {source}") from None


def directives(text, kind, skip=()):
    """(line number, tokens, line) of every directive, the 'p' header
    included, less blank lines, '#' comments and the directives in `skip`.
    The header must come first and only once."""
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
        elif not header:
            raise ParseError(f"missing 'p {kind} <n>' header", lineno)
        yield lineno, parts, line
    if not header:
        raise ParseError(f"missing 'p {kind} <n>' header")


def integer(token, lineno):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", lineno) from None


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
