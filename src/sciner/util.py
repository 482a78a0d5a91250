"""Small shared helpers."""

from __future__ import annotations

import contextlib
import os
import re
import tempfile


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", encoding: str | None = "utf-8"):
    """Write to a temp file in the target directory, rename into place on success."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, mode, encoding=encoding, newline="" if "b" not in mode else None) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def count_with_pct(part: int, total: int) -> str:
    """Render `part` of `total` the way download tallies are reported: "988 (98.8%)"."""
    pct = 100.0 * part / total if total else 0.0
    return f"{part:,} ({pct:.1f}%)"


# a word (a token, an annotated word, a paper id) is non-empty and holds no
# character that str.isspace calls whitespace; in a str pattern, `\s` is
# exactly those characters
WORD_RE = re.compile(r"\S+")
_SPACE_RE = re.compile(r"\s")


def is_word(text: str) -> bool:
    return WORD_RE.fullmatch(text) is not None


def first_non_word(words) -> int:
    """The position of the first item of `words` that is not a word, or -1."""
    if all(words) and not _SPACE_RE.search("".join(words)):
        return -1
    return next(i for i, word in enumerate(words) if not is_word(word))
