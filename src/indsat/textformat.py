"""The line format shared by the trigraph, DNF and pattern files.

``#`` starts a comment to the end of its line, blank lines are skipped,
and every error names its line.  Lines end at ``\n`` alone, as an
editor numbers them; a ``\r`` before it (CRLF) is whitespace, and so are
``\x0c``, ``\x85`` and the other breaks ``str.splitlines`` would honour.
A number is a run of ASCII digits.
"""

from pathlib import Path

MAX_TOKEN_LENGTH = 4300  # Python's int() digit limit; no token of a valid document nears it


def is_number(token: str) -> bool:
    """Whether token is a run of ASCII digits (``str.isdecimal`` takes any script's)."""
    return token.isascii() and token.isdecimal()


def read_document(text: str, keyword: str, counts: int):
    """Return (header line number, header counts, [(line number, tokens)] per body line).

    The header is ``<keyword>`` and `counts` numbers.  Every
    ValueError raised here starts ``line N:``.
    """
    lines = [(no, raw.split("#", 1)[0].split()) for no, raw in enumerate(text.split("\n"), 1)]
    lines = [(no, tokens) for no, tokens in lines if tokens]
    for no, tokens in lines:
        if max(map(len, tokens)) > MAX_TOKEN_LENGTH:
            raise ValueError(f"line {no}: token longer than {MAX_TOKEN_LENGTH} characters")
    if not lines:
        raise ValueError(f"line 1: empty {keyword} document (no header line)")
    (head_no, head), body = lines[0], lines[1:]
    if len(head) != counts + 1 or head[0] != keyword or not all(map(is_number, head[1:])):
        raise ValueError(f"line {head_no}: bad header line {' '.join(head)!r}")
    return head_no, [int(t) for t in head[1:]], body


def load_file(path, loads):
    """loads(text of the UTF-8 file at path); a ValueError, UnicodeDecodeError included, names path."""
    try:
        return loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
