"""Lines and number tokens of the ABA and (p)BAF text formats."""
from .errors import ParseError


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
