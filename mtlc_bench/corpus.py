"""Deterministic code-mixed corpus generator for the benchmark workloads.

A comment is a run of pseudo-words: most are romanized (Latin letters), the
rest come in short runs of Kannada-script words, as in the code-mixed
comments the paper classifies. Sentiment labels follow the published
Kannada class shares (3291/1481/678/820/1003); offense labels are drawn
from fixed illustrative shares, with "Other language" sentiment always
paired with "Other language" offense. A few cue words per sentiment class
make the labels weakly learnable, so F1 is informative but never gated.

Everything is drawn from `random.Random(seed)`, so one seed always gives
byte-identical TSV files. The generator also writes `corpus.json`: the
length histogram it drew and the pad share the program will see at the
workload's `max_len`, so each workload's input property is on file.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import os
import random
import unicodedata
from dataclasses import asdict, dataclass

SENTIMENT = ("Positive", "Negative", "Mixed feelings", "Neutral", "Other language")
SENTIMENT_COUNTS = (3291, 1481, 678, 820, 1003)
OFFENSE = (
    "Not offensive",
    "Offensive untargeted",
    "Offensive targeted individual",
    "Offensive targeted group",
    "Offensive targeted others",
)
OFFENSE_WEIGHTS = (72, 6, 10, 8, 4)
OTHER_LANGUAGE = "Other language"

LATIN_ONSETS = "b bh ch d dh g h j k kh l m n p r s sh t th v y".split()
LATIN_VOWELS = "a aa e i ii o u".split()
KANNADA_CONSONANTS = [chr(c) for c in range(0x0C95, 0x0CBA) if unicodedata.category(chr(c)) == "Lo"]
# single dependent vowel signs only: two adjacent signs could compose under NFC
KANNADA_SIGNS = [chr(c) for c in (0x0CBE, 0x0CBF, 0x0CC1, 0x0CC2, 0x0CC6, 0x0CC7, 0x0CCA, 0x0CCB)]

ROMAN_LEXICON = 600
KANNADA_LEXICON = 300
CUES_PER_CLASS = 4
CUE_RATE = 0.25
KANNADA_RUN_RATE = 0.15


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes and length law of one workload's corpus, for the program's char
    tokenizer: lengths in characters are log-normal with median `median_len`
    and shape `sigma`."""

    n_train: int
    n_val: int
    n_test: int
    max_len: int
    median_len: float = 24.0
    sigma: float = 0.6


def _lexicon(rng: random.Random, size: int, make_word) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = make_word(rng)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _roman_word(rng: random.Random) -> str:
    return "".join(rng.choice(LATIN_ONSETS) + rng.choice(LATIN_VOWELS) for _ in range(rng.randint(1, 3)))


def _kannada_word(rng: random.Random) -> str:
    syllables = []
    for _ in range(rng.randint(1, 3)):
        syllable = rng.choice(KANNADA_CONSONANTS)
        if rng.random() < 0.7:
            syllable += rng.choice(KANNADA_SIGNS)
        syllables.append(syllable)
    return "".join(syllables)


def _zipf_cumulative(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) for rank in range(n)))


class _Generator:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.roman = _lexicon(self.rng, ROMAN_LEXICON, _roman_word)
        self.kannada = _lexicon(self.rng, KANNADA_LEXICON, _kannada_word)
        # Zipf-like word frequencies, as in real comment vocabularies
        self.roman_cum = _zipf_cumulative(len(self.roman))
        self.kannada_cum = _zipf_cumulative(len(self.kannada))
        cue_pool = self.rng.sample(self.roman, CUES_PER_CLASS * len(SENTIMENT))
        self.cues = [cue_pool[i::len(SENTIMENT)] for i in range(len(SENTIMENT))]

    def labels(self) -> tuple[int, str, str]:
        sent = self.rng.choices(range(len(SENTIMENT)), weights=SENTIMENT_COUNTS)[0]
        if SENTIMENT[sent] == OTHER_LANGUAGE:
            return sent, SENTIMENT[sent], OTHER_LANGUAGE
        return sent, SENTIMENT[sent], self.rng.choices(OFFENSE, weights=OFFENSE_WEIGHTS)[0]

    def words(self, sent: int):
        """Endless stream of words for a comment of sentiment class `sent`."""
        while True:
            u = self.rng.random()
            if u < CUE_RATE:
                yield self.rng.choice(self.cues[sent])
            elif u < CUE_RATE + KANNADA_RUN_RATE:
                for _ in range(self.rng.randint(1, 3)):
                    yield self.rng.choices(self.kannada, cum_weights=self.kannada_cum)[0]
            else:
                yield self.rng.choices(self.roman, cum_weights=self.roman_cum)[0]

    def text(self, spec: CorpusSpec, sent: int) -> str:
        stream = self.words(sent)
        target = max(1, round(self.rng.lognormvariate(math.log(spec.median_len), spec.sigma)))
        text = ""
        while len(text) < target:
            text = f"{text} {next(stream)}" if text else next(stream)
        return text[:target].strip()


def pad_share(lengths: list[int], max_len: int) -> float:
    """Share of encoded positions that are padding: each comment keeps at
    most max_len - 2 tokens plus [CLS] and [SEP]."""
    used = sum(min(n, max_len - 2) + 2 for n in lengths)
    return 1.0 - used / (max_len * len(lengths))


def _histogram(lengths: list[int], width: int) -> list[list[int]]:
    """[low, high, count] rows over fixed-width length bins, in order."""
    counts = collections.Counter(n // width for n in lengths)
    return [[b * width, b * width + width - 1, counts[b]] for b in sorted(counts)]


def generate(seed: int, spec: CorpusSpec, out_dir: str) -> dict:
    """Write train.tsv, val.tsv, test.tsv and corpus.json into `out_dir`.

    Texts are distinct across all three files, since the loader drops
    duplicate texts. Returns the manifest written to corpus.json.
    """
    gen = _Generator(seed)
    seen: set[str] = set()
    os.makedirs(out_dir, exist_ok=True)
    manifest: dict = {"seed": seed, "spec": asdict(spec), "splits": {}}
    for split, size in (("train", spec.n_train), ("val", spec.n_val), ("test", spec.n_test)):
        rows = []
        while len(rows) < size:
            sent, sent_label, off_label = gen.labels()
            text = unicodedata.normalize("NFC", gen.text(spec, sent))
            if text and text not in seen:
                seen.add(text)
                rows.append((text, sent_label, off_label))
        with open(os.path.join(out_dir, f"{split}.tsv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join("\t".join(row) + "\n" for row in rows))
        lengths = [len(row[0]) for row in rows]
        manifest["splits"][split] = {
            "size": size,
            "length_unit": "char",
            "length_histogram": _histogram(lengths, 8),
            "mean_length": sum(lengths) / size,
            "pad_share": pad_share(lengths, spec.max_len),
            "sentiment_counts": {c: sum(r[1] == c for r in rows) for c in SENTIMENT},
        }
    with open(os.path.join(out_dir, "corpus.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    return manifest

