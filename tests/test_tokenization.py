import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prototext.tokenization import _ESCAPES, RESERVED_TOKENS, _strip_punct, tokenize


def reference_tokenize(text):
    """The per-character rule alone: ``_strip_punct`` on every lowercased piece."""
    tokens = []
    for piece in text.lower().split():
        piece = _strip_punct(piece)
        if piece:
            tokens.append(_ESCAPES.get(piece, piece))
    return tokens


class TestTokenizeRules:
    def test_lowercase_and_split(self):
        assert tokenize("The Absence") == ["the", "absence"]

    def test_strips_edge_punctuation(self):
        assert tokenize("Tampa, Florida.") == ["tampa", "florida"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_keeps_internal_punctuation(self):
        assert tokenize("heavy-metal isn't") == ["heavy-metal", "isn't"]

    def test_pure_punctuation_pieces_vanish(self):
        assert tokenize("... -- !!") == []

    def test_unicode_whitespace(self):
        assert tokenize("a b\tc\nd") == ["a", "b", "c", "d"]


class TestReservedEscaping:
    def test_bar_is_escaped(self):
        assert tokenize("a | b") == ["a", "_bar_", "b"]

    def test_marker_tokens_are_escaped(self):
        assert tokenize("<sep> <bos> <eos> <unk>") == ["_sep_", "_bos_", "_eos_", "_unk_"]

    def test_no_reserved_token_survives(self):
        text = " ".join(RESERVED_TOKENS) + " normal words"
        assert not set(tokenize(text)) & set(RESERVED_TOKENS)


@given(st.text())
def test_tokens_are_wellformed(text):
    for tok in tokenize(text):
        assert tok
        assert not any(ch.isspace() for ch in tok)
        assert tok == tok.lower()
        assert tok not in RESERVED_TOKENS


@given(st.text(alphabet=string.ascii_letters + string.punctuation + " ", max_size=80))
def test_tokenize_is_deterministic(text):
    assert tokenize(text) == tokenize(text)


class TestFastPathMatchesPerCharacterRule:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("«word»", ["word"]),
            ("—dash—", ["dash"]),
            ("word…", ["word"]),
            ("¿qué?", ["qué"]),
            ("（ｘ）", ["ｘ"]),
            ("a.»", ["a"]),
            ("«<sep>»", ["_sep_"]),
            ("...", []),
            ("$5 +x <y> a=b ^c~ `d`", ["$5", "+x", "<y>", "a=b", "^c~", "`d`"]),
        ],
    )
    def test_named_case(self, text, expected):
        assert tokenize(text) == reference_tokenize(text) == expected

    # ASCII punctuation mixed with non-ASCII punctuation, symbols and letters
    EDGES = string.punctuation + "«»—…¿¡（）、。·‘’“”ｘéа a"

    @settings(max_examples=500)
    @given(st.one_of(st.text(), st.text(alphabet=EDGES)))
    def test_equals_per_character_rule(self, text):
        assert tokenize(text) == reference_tokenize(text)
