"""Seeded synthetic benchmark with planted relevance labels.

The generator builds a small world of entities (bands, roughly). Each
entity has a unique two-word name, a unique origin and genre, and an era
drawn from a small shared pool. Every entity gets one reference
sentence plus a few related corpus sentences that reuse its values in
the same factual register as the references (most of them without the
name). The other half of the corpus is distractors: short noise-register
sentences that copy the exact origin/genre of some entity, so they
overlap that entity's table heavily while being about nothing.

That layout plants a specific failure mode for plain lexical retrieval:
the value-copying distractors are short and dense in matching tokens, so
they crack the BM25 top ranks, while the related sentences are separable
from them by register. A reranker trained to prefer reference-like text
can therefore beat the raw BM25 ordering, and the labels make the gap
measurable as precision@k.

Everything is a pure function of the spec: two runs with the same seed
produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, check_fields
from .tabledata import (
    Corpus,
    Example,
    Sentence,
    Table,
    read_jsonl,
    unique_id,
    write_corpus,
    write_jsonl,
    write_tables_file,
)
from .tokenization import tokenize

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

_N_ERAS = 6
_MIN_NOISE_WORDS = 12
# The share of the corpus that is distractors, rounded half to even.
_DISTRACTOR_SHARE = 0.5

# Each entity adopts one closing phrase, reused by its reference and its
# related corpus sentences. The phrases are built from shared register
# words, so a generator can learn to reproduce whichever one its
# prototypes exhibit, for entities it never trained on.
_TAILS = (
    "with a widely known sound",
    "while touring all around",
    "for a loyal local crowd",
    "with steady critical acclaim",
    "as listeners often note",
    "under a bright stage glow",
)


@dataclass(frozen=True)
class SyntheticSpec:
    num_entities: int = 50
    corpus_size: int = 500
    vocab_size: int = 500
    seed: int = 13

    def __post_init__(self):
        check_fields(self, num_entities=1, corpus_size=1, vocab_size=1, seed=0)
        total = self.num_entities + self.num_test_entities
        required = 6 * total + 2 * _N_ERAS + _MIN_NOISE_WORDS
        if self.vocab_size < required:
            raise InvalidConfig(
                f"vocab_size {self.vocab_size} too small for {total} entities; "
                f"need at least {required}"
            )
        if self.vocab_size > len(_SYLLABLES) ** 2:
            raise InvalidConfig(f"vocab_size must be <= {len(_SYLLABLES) ** 2}")

    @property
    def num_test_entities(self) -> int:
        return max(5, 2 * self.num_entities // 5)


@dataclass(frozen=True)
class _Entity:
    name: str
    origin: str
    genre: str
    era: str
    tail: str


@dataclass(frozen=True)
class SyntheticBenchmark:
    corpus: Corpus
    train_examples: tuple[Example, ...]
    test_examples: tuple[Example, ...]
    relevance: dict[int, tuple[int, ...]]


def _word(i: int) -> str:
    return _SYLLABLES[i // len(_SYLLABLES)] + _SYLLABLES[i % len(_SYLLABLES)]


def _build_entities(
    spec: SyntheticSpec, rng: np.random.Generator
) -> tuple[list[_Entity], list[str], list[str]]:
    """Entities with disjoint name/origin/genre words; eras are shared."""
    total = spec.num_entities + spec.num_test_entities
    words = [_word(i) for i in range(spec.vocab_size)]
    cursor = 0

    def take(n):
        nonlocal cursor
        chunk = words[cursor : cursor + n]
        cursor += n
        return chunk

    name_words = take(2 * total)
    origin_words = take(2 * total)
    genre_words = take(2 * total)
    era_words = take(2 * _N_ERAS)
    noise_words = words[cursor:]
    eras = [f"{era_words[2 * i]} {era_words[2 * i + 1]}" for i in range(_N_ERAS)]
    entities = []
    for i in range(total):
        entities.append(
            _Entity(
                name=f"{name_words[2 * i]} {name_words[2 * i + 1]}",
                origin=f"{origin_words[2 * i]} {origin_words[2 * i + 1]}",
                genre=f"{genre_words[2 * i]} {genre_words[2 * i + 1]}",
                era=eras[int(rng.integers(0, _N_ERAS))],
                tail=_TAILS[int(rng.integers(0, len(_TAILS)))],
            )
        )
    return entities, eras, noise_words


def _table_for(entity: _Entity) -> Table:
    return Table.from_pairs(
        [("name", entity.name), ("origin", entity.origin),
         ("genre", entity.genre), ("era", entity.era)]
    )


_REFERENCE_TEMPLATES = (
    "{name} is a {genre} act from {origin} {tail}",
    "the {genre} act {name} comes from {origin} {tail}",
    "{name} comes from {origin} and performs {genre} music {tail}",
)

# index 0 is the only named variant. The register vocabulary is a
# subset of the reference templates' (so relatedness is learnable)
# and eras never appear here: with names, origins, and genres unique
# per entity, a related sentence shares no token with any foreign
# table and can only be retrieved for its own entity.
_RELATED_TEMPLATES = (
    "{name} comes from {origin} and performs {genre} music {tail}",
    "the {genre} act from {origin} performs music {tail}",
    "the act from {origin} performs {genre} music {tail}",
    "a {genre} act comes from {origin} {tail}",
)

_DISTRACTOR_TEMPLATES = (
    "{noise} rumors about {genre} {origin} markets",
    "press chatter on {origin} {genre} {noise}",
    "{origin} {genre} gossip amid {era} {noise} reports",
    "reportedly {noise} {noise} covers {genre} {origin}",
)


def _fill(template: str, entity: _Entity, noise: str = "") -> str:
    return template.format(
        name=entity.name,
        origin=entity.origin,
        genre=entity.genre,
        era=entity.era,
        tail=entity.tail,
        noise=noise,
    )


def _related_sentence(
    sid: int, entity: _Entity, reference: list[str], rng: np.random.Generator
) -> Sentence:
    """A related sentence of ``entity`` whose tokens differ from its ``reference``'s."""
    idx = int(rng.integers(0, len(_RELATED_TEMPLATES)))
    text = _fill(_RELATED_TEMPLATES[idx], entity)
    tokens = tokenize(text)
    if tokens == reference:
        # never plant the exact reference in the corpus
        text = _fill(_RELATED_TEMPLATES[(idx + 1) % len(_RELATED_TEMPLATES)], entity)
        tokens = tokenize(text)
    return Sentence(sid, text, tuple(tokens))


def _distractor_sentence(
    entities: list[_Entity],
    eras: list[str],
    noise_words: list[str],
    rng: np.random.Generator,
) -> str:
    """Noise-register sentence built from real attribute values.

    Most distractors copy one entity's origin and genre jointly (those
    are the ones that crack the BM25 top ranks for that entity's table);
    the rest mix values of two entities, which keeps every table's
    candidate pool comfortably larger than the negative-sample count.
    """
    template = _DISTRACTOR_TEMPLATES[int(rng.integers(0, len(_DISTRACTOR_TEMPLATES)))]
    if rng.random() < 0.7:
        target = entities[int(rng.integers(0, len(entities)))]
        origin, genre, era = target.origin, target.genre, target.era
    else:
        origin = entities[int(rng.integers(0, len(entities)))].origin
        genre = entities[int(rng.integers(0, len(entities)))].genre
        era = eras[int(rng.integers(0, len(eras)))]
    noise = " ".join(
        noise_words[int(i)] for i in rng.integers(0, len(noise_words), size=2)
    )
    return template.format(origin=origin, genre=genre, era=era, noise=noise)


def generate_benchmark(spec: SyntheticSpec) -> SyntheticBenchmark:
    rng = np.random.default_rng(spec.seed)
    entities, eras, noise_words = _build_entities(spec, rng)
    examples = []
    for i, entity in enumerate(entities):
        template = _REFERENCE_TEMPLATES[int(rng.integers(0, len(_REFERENCE_TEMPLATES)))]
        examples.append(Example(i, _table_for(entity), _fill(template, entity)))

    n_distractors = round(spec.corpus_size * _DISTRACTOR_SHARE)
    n_relevant = spec.corpus_size - n_distractors
    assignments = [("relevant", i % len(entities)) for i in range(n_relevant)]
    assignments += [("distractor", -1)] * n_distractors
    order = rng.permutation(len(assignments))

    references = [tokenize(ex.reference) for ex in examples]
    sentences: list[Sentence] = []
    relevance: dict[int, list[int]] = {ex.id: [] for ex in examples}
    for sid, slot in enumerate(order):
        kind, owner = assignments[int(slot)]
        if kind == "relevant":
            sentences.append(_related_sentence(sid, entities[owner], references[owner], rng))
            relevance[owner].append(sid)
        else:
            text = _distractor_sentence(entities, eras, noise_words, rng)
            sentences.append(Sentence.from_text(sid, text))

    n_train = spec.num_entities
    return SyntheticBenchmark(
        corpus=Corpus(sentences),
        train_examples=tuple(examples[:n_train]),
        test_examples=tuple(examples[n_train:]),
        relevance={tid: tuple(ids) for tid, ids in relevance.items()},
    )


def write_benchmark(bench: SyntheticBenchmark, out_dir: str | Path) -> dict[str, str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": str(out / "corpus.jsonl"),
        "train_tables": str(out / "tables_train.jsonl"),
        "test_tables": str(out / "tables_test.jsonl"),
        "labels": str(out / "labels.jsonl"),
    }
    write_corpus(paths["corpus"], bench.corpus)
    write_tables_file(paths["train_tables"], bench.train_examples)
    write_tables_file(paths["test_tables"], bench.test_examples)
    relevance = sorted(bench.relevance.items())
    labels = ({"table_id": t, "relevant_ids": sorted(ids)} for t, ids in relevance)
    write_jsonl(paths["labels"], labels)
    return paths


def synth_benchmark(spec: SyntheticSpec, out_dir: str | Path) -> dict[str, str]:
    """Generate and write the benchmark files; returns their paths."""
    return write_benchmark(generate_benchmark(spec), out_dir)


def read_labels(path: str | Path) -> dict[int, set[int]]:
    """Read a labels file; a repeated ``table_id``, or an id repeated within one
    ``relevant_ids``, is a ParseError."""
    seen: set[int] = set()

    def parse(record: dict) -> tuple[int, set[int]]:
        relevant: set[int] = set()
        for sid in record["relevant_ids"]:
            unique_id(sid, "relevant id", relevant)
        return unique_id(record.get("table_id"), "table_id", seen), relevant

    return dict(read_jsonl(path, parse))
