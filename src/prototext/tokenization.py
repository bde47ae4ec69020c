"""Shared tokenizer and the reserved layout tokens.

Tokenization is deliberately simple: lowercase, split on whitespace,
strip punctuation off both ends of each piece, keep internal punctuation
(hyphens, apostrophes). The same tokenizer is used for retrieval,
selector/generator inputs, and evaluation, so n-gram statistics line up
everywhere.

Punctuation is a character whose Unicode category starts with ``P``
(:func:`_strip_punct`, the one rule). Symbols such as ``$``, ``+``,
``<``, ``|`` and ``~`` (category ``S``) are not punctuation and stay.
Most pieces are ASCII, so each is first stripped with one
``str.strip`` of the ASCII punctuation characters; only a piece that
then starts or ends with a non-ASCII character goes through the
per-character :func:`_strip_punct`, which gives the same token.

Tokens are interned (``sys.intern``): every occurrence of a token type
is the same string object, so a corpus holds one string per token type,
and the interned table grows with the number of token types, not of
tokens.

A handful of tokens are reserved for layout (sequence markers and the
table linearization delimiters). Any literal occurrence of a reserved
token in input text is escaped, so reserved tokens can only ever be
introduced by the pipeline itself.
"""

from __future__ import annotations

import sys
import unicodedata

UNK = "<unk>"
SEP = "<sep>"
BOS = "<bos>"
EOS = "<eos>"
ATTR_DELIM = ":"
PAIR_DELIM = "|"

_ESCAPES = {
    UNK: "_unk_",
    SEP: "_sep_",
    BOS: "_bos_",
    EOS: "_eos_",
    ATTR_DELIM: "_colon_",
    PAIR_DELIM: "_bar_",
}

RESERVED_TOKENS: tuple[str, ...] = tuple(_ESCAPES)


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_punct(piece: str) -> str:
    start = 0
    end = len(piece)
    while start < end and _is_punct(piece[start]):
        start += 1
    while end > start and _is_punct(piece[end - 1]):
        end -= 1
    return piece[start:end]


# The ASCII characters _is_punct accepts: one str.strip removes them all.
_ASCII_PUNCT = "".join(ch for ch in map(chr, range(128)) if _is_punct(ch))


def tokenize(text: str) -> list[str]:
    """Split raw text into lowercase tokens.

    Pieces that are pure punctuation vanish; tokens never contain
    whitespace and are never empty. Reserved layout tokens appearing
    literally in the text come back escaped (``"|"`` -> ``"_bar_"``).
    Each token is interned.
    """
    tokens = []
    for piece in text.lower().split():
        piece = piece.strip(_ASCII_PUNCT)
        # an ASCII end is not punctuation once stripped; a non-ASCII one may be
        if piece and not (piece[0].isascii() and piece[-1].isascii()):
            piece = _strip_punct(piece)
        if piece:
            tokens.append(sys.intern(_ESCAPES.get(piece, piece)))
    return tokens
