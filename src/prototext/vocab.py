"""Token-to-index vocabulary shared by the trainable models.

The reserved layout tokens always occupy the first six ids, in a fixed
order; content tokens follow in sorted order, so vocabulary layout is a
pure function of the token set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .tokenization import BOS, EOS, RESERVED_TOKENS, SEP, UNK


@dataclass(frozen=True)
class Vocabulary:
    """Distinct string tokens; it builds and checks its ``{token: id}`` ``index`` itself."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        toks = tuple(self.tokens)
        index = {t: i for i, t in enumerate(toks)}
        if len(index) < len(toks) or not all(type(t) is str for t in toks):
            bad = next(t for i, t in enumerate(toks) if type(t) is not str or index[t] != i)
            raise ValueError(f"vocabulary token {bad!r} repeats or is not a string")
        object.__setattr__(self, "tokens", toks)
        object.__setattr__(self, "index", index)

    @classmethod
    def build(cls, token_streams: Iterable[Iterable[str]]) -> "Vocabulary":
        content: set[str] = set()
        for stream in token_streams:
            content.update(stream)
        content -= set(RESERVED_TOKENS)
        return cls(tuple(RESERVED_TOKENS) + tuple(sorted(content)))

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        return cls(tuple(tokens))

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def id(self, token: str) -> int:
        """Index of a token, falling back to ``<unk>`` when absent."""
        idx = self.index.get(token)
        if idx is not None:
            return idx
        return self.index[UNK]

    def ids(self, tokens: Iterable[str]) -> list[int]:
        """Indices of tokens, each falling back to ``<unk>`` when absent."""
        unk = self.index.get(UNK)
        if unk is None:  # no fallback: id raises KeyError at the first unknown token
            return [self.id(t) for t in tokens]
        get = self.index.get
        return [get(t, unk) for t in tokens]

    @property
    def unk_id(self) -> int:
        return self.index[UNK]

    @property
    def sep_id(self) -> int:
        return self.index[SEP]

    @property
    def bos_id(self) -> int:
        return self.index[BOS]

    @property
    def eos_id(self) -> int:
        return self.index[EOS]
