"""Trainable token-level probability source.

A hashed-feature multinomial logistic regression stands in for the usual
pre-trained encoder: words are segmented into fixed-width subword chunks, each
subword gets sparse hashed features of itself and its context, and a single
softmax layer turns the feature scores into the 15 class probabilities.
Probabilities computed elsewhere can be fed in through the probability-file
reader instead, so the rest of the pipeline is agnostic to the source.
"""

from __future__ import annotations

import functools
import json
import lzma
import math
import os
import zipfile
import zlib
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import kernels, tag_schema
from .errors import AlignmentError, FormatError
from .util import atomic_write, is_word

DEFAULT_HASH_DIM = 1 << 20
SUBWORD_WIDTH = 4
CONTINUATION_MARK = "##"

MODEL_FORMAT = "sciner-tagger-v2"  # nonzero weight rows only


@dataclass(frozen=True)
class SubwordToken:
    text: str  # continuation chunks are prefixed with ##
    word_index: int

    @property
    def is_continuation(self) -> bool:
        return self.text.startswith(CONTINUATION_MARK)


def segment_word(word: str, word_index: int = 0) -> list[SubwordToken]:
    """Fixed-width chunking: at most 4 characters per subword, left to right."""
    if not is_word(word):
        raise ValueError(f"cannot segment {word!r}")
    out = []
    for start in range(0, len(word), SUBWORD_WIDTH):
        chunk = word[start : start + SUBWORD_WIDTH]
        text = chunk if start == 0 else CONTINUATION_MARK + chunk
        out.append(SubwordToken(text, word_index))
    return out


@dataclass(eq=False)
class TokenProbs:
    """Class distribution for one subword, aligned to its parent word.

    The constructor checks `distribution`: 15 float64 entries, none negative,
    summing to 1 within 1e-9.  `predict_probs` checks a paragraph's whole
    matrix once with the same tests and builds its rows through `_checked`.
    """

    word_index: int
    distribution: np.ndarray

    def __post_init__(self):
        dist = np.asarray(self.distribution, dtype=np.float64)
        if dist.shape != (tag_schema.NUM_CLASSES,):
            raise ValueError(
                f"distribution must have {tag_schema.NUM_CLASSES} entries, got {dist.shape}"
            )
        if (dist < 0).any():
            raise ValueError("negative probability")
        total = float(dist.sum())
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"distribution sums to {total!r}, not 1")
        self.distribution = dist

    @classmethod
    def _checked(cls, word_index: int, distribution: np.ndarray) -> TokenProbs:
        """A TokenProbs whose float64 `distribution` already passed the
        constructor's tests; `__post_init__` does not run again."""
        self = object.__new__(cls)
        self.word_index = word_index
        self.distribution = distribution
        return self


def _valid_distributions(probs, n_rows: int) -> bool:
    """Whether every row of `probs` would pass `TokenProbs`'s checks as it
    stands: `n_rows` float64 rows of 15 entries, none negative, each summing
    to 1 within 1e-9 (a row's `sum(axis=1)` entry is bit-equal to its own
    `sum()`)."""
    return (
        probs.dtype == np.float64
        and probs.shape == (n_rows, tag_schema.NUM_CLASSES)
        and not (probs < 0).any()
        and bool((np.abs(probs.sum(axis=1) - 1.0) <= 1e-9).all())  # NaN fails too
    )


def word_shape(word: str) -> str:
    return "".join(
        "d" if c.isdigit() else "X" if c.isupper() else "x" if c.islower() else "_"
        for c in word
    )


def _hash(text: str, dim: int) -> int:
    return zlib.crc32(text.encode("utf-8")) % dim


N_CONTEXT = 5  # the ids of words -2..+2 end every subword's ids


@functools.cache
def _word_ids(word: str, dim: int) -> np.ndarray:
    """`word`'s ids as one read-only uint32 block: first its ids as the
    neighbour at offsets -2..+2, then per subword its own ids (the word's
    features, then the subword's) followed by 5 zeros, where a paragraph
    puts the subword's context.

    Memoized once per process per `(word, dim)`.  The memo keeps one entry
    per distinct word the process featurizes; a single `annotate_corpus`
    call already held its corpus's whole vocabulary.
    """
    h = functools.partial(_hash, dim=dim)
    block = [h(f"n{offset}=" + word) for offset in range(-2, 3)]
    word_feats = [h("bias"), h("w=" + word), h("shape=" + word_shape(word))]
    for k in range(1, min(3, len(word)) + 1):
        word_feats.append(h(f"pre{k}=" + word[:k]))
        word_feats.append(h(f"suf{k}=" + word[-k:]))
    for sub in segment_word(word):
        block += word_feats
        block += [h("sub=" + sub.text), h("pos=" + ("cont" if sub.is_continuation else "first"))]
        block += [0] * N_CONTEXT
    block = np.array(block, np.uint32)
    block.flags.writeable = False
    return block


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """The hashed feature ids of every subword of a list of paragraphs.

    Each feature is an int32 `code`, the position of its id in `vocab`, the
    table's uint32 hashed ids (CRC32 values mod `dim`); `feat` is the ids
    themselves, `vocab[code]`.  Subword s owns features
    `offsets[s]:offsets[s + 1]` and belongs to word `word_idx[s]` of its
    paragraph; paragraph p owns subwords `sub_at[p]:sub_at[p + 1]` and words
    `word_at[p]:word_at[p + 1]`.  The other arrays are int64.  `featurize`
    leaves ids repeated in `vocab`; `compact` sorts and dedupes it.  All
    arrays are read-only, so one table can serve a whole run.
    """

    dim: int
    vocab: np.ndarray
    code: np.ndarray
    offsets: np.ndarray
    word_idx: np.ndarray
    sub_at: np.ndarray
    word_at: np.ndarray

    def __post_init__(self):
        for name in ("vocab", "code", "offsets", "word_idx", "sub_at", "word_at"):
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.sub_at) - 1

    @property
    def feat(self) -> np.ndarray:
        """`vocab[code]`: the hashed id of every feature, as a new read-only array."""
        return _hashed_ids(self.vocab, self.code)

    def word_counts(self) -> list[int]:
        return np.diff(self.word_at).tolist()

    def check_matches(self, dim: int, paragraphs) -> None:
        """ValueError unless the table has hash dimension `dim` and one
        paragraph per word list in `paragraphs`, of the same length."""
        if self.dim != dim:
            raise ValueError(f"feature table has hash dimension {self.dim}, not {dim}")
        if self.word_counts() != [len(words) for words in paragraphs]:
            raise ValueError("feature table does not match the paragraphs' words")

    def paragraphs(self, start: int = 0, stop: int | None = None, lookup=None):
        """Yield the (ids, offsets, word_idx, n_words) of each paragraph from
        `start` up to `stop`.  `ids` is `lookup[code]` over the paragraph's
        features, where `lookup` holds one value per vocabulary entry; by
        default it is `vocab`, so they are hashed ids.  `ids` are views of
        one gather over all the paragraphs, `offsets` start at 0, and
        `word_idx` is a view of the table."""
        lookup = self.vocab if lookup is None else lookup
        stop = len(self) if stop is None else stop
        sub_at = self.sub_at[start : stop + 1].tolist()
        begin, end = self.offsets[[sub_at[0], sub_at[-1]]].tolist()
        ids = lookup[self.code[begin:end]]  # one gather for all the paragraphs
        for p, n_words in enumerate(np.diff(self.word_at[start : stop + 1]).tolist()):
            a, b = sub_at[p], sub_at[p + 1]
            offsets = self.offsets[a : b + 1]
            first = offsets[0]
            own = ids[first - begin : offsets[-1] - begin]
            yield own, offsets - first, self.word_idx[a:b], n_words

    def select(self, rows) -> "FeatureTable":
        """The table of paragraphs `rows`, in that order, sharing this
        table's vocabulary: its `feat` and the arrays other than `vocab` and
        `code` equal `featurize` on their words.  All rows in order is the
        table itself."""
        rows = np.fromiter(rows, np.int64)
        if np.array_equal(rows, np.arange(len(self))):
            return self
        n_sub = np.diff(self.sub_at)[rows]
        subs = _ranges(self.sub_at[:-1][rows], n_sub)
        sub_len = np.diff(self.offsets)[subs]
        return FeatureTable(self.dim, self.vocab, self.code[_ranges(self.offsets[subs], sub_len)],
                            _bounds(sub_len), self.word_idx[subs], _bounds(n_sub),
                            _bounds(np.diff(self.word_at)[rows]))

    def compact(self) -> "FeatureTable":
        """The same table over its sorted, unique vocabulary."""
        vocab, inverse = np.unique(self.vocab, return_inverse=True)
        return FeatureTable(self.dim, vocab, inverse.astype(np.int32)[self.code],
                            self.offsets, self.word_idx, self.sub_at, self.word_at)


def _hashed_ids(vocab, code) -> np.ndarray:
    """`vocab[code]` as a new read-only array."""
    ids = vocab[code]
    ids.flags.writeable = False
    return ids


def _bounds(counts) -> np.ndarray:
    """[0, counts[0], counts[0] + counts[1], ...]: where each run starts, then the total."""
    out = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _ranges(starts, counts) -> np.ndarray:
    """arange(starts[i], starts[i] + counts[i]) for each i, concatenated."""
    at = _bounds(counts)
    out = np.repeat(np.asarray(starts, np.int64) - at[:-1], counts)
    out += np.arange(at[-1])
    return out


def check_hash_dim(dim: int) -> None:
    """Reject a hash dimension outside [2, 2**32]: hashed ids are CRC32
    values mod `dim`, so a larger one would only waste memory."""
    if not 2 <= dim <= 1 << 32:
        raise ValueError("hash dimension must lie in [2, 2**32]")


def featurize(paragraphs, dim: int) -> FeatureTable:
    """Compile the word lists `paragraphs` into one FeatureTable.

    A subword's ids are its own (word, then subword) followed by the context
    of words -2..+2 of its paragraph, `<s>`/`</s>` past the ends.  The order
    is part of the result: the kernels add a subword's weight rows in it.

    The work is one dict pass mapping each word to a slice-local entry
    number, one `_word_ids` block per entry, which together are the table's
    vocabulary, and numpy index arithmetic from there: each word's own
    features point into its entry's block, and its context features into
    its neighbours' blocks.
    """
    check_hash_dim(dim)
    # 1. entry numbers of every paragraph's words, padded with two <s> and two </s>
    entries = {"<s>": 0, "</s>": 1}
    padded = []
    for words in paragraphs:
        padded += (0, 0)
        padded += [entries.setdefault(w, len(entries)) for w in words]
        padded += (1, 1)
    padded = np.array(padded, np.int64)
    n_words = np.array([len(words) for words in paragraphs], np.int64)
    word_at = _bounds(n_words)
    # the position of each word in `padded`, and its entry number
    position = np.arange(word_at[-1]) + np.repeat(4 * np.arange(len(n_words)) + 2, n_words)
    entry = padded[position]

    # 2. one block of ids per entry (see `_word_ids`): the vocabulary
    vocab = np.concatenate([_word_ids(word, dim) for word in entries])
    lengths = np.array([len(word) for word in entries])
    n_sub = (lengths + SUBWORD_WIDTH - 1) // SUBWORD_WIDTH
    sub_len = 2 * np.minimum(lengths, 3) + 5 + N_CONTEXT  # ids per subword
    entry_at = _bounds(N_CONTEXT + n_sub * sub_len)

    # 3. each word's subwords point into its entry's block, then their
    # context slots are pointed at the ids of words -2..+2
    code = _ranges(entry_at[entry] + N_CONTEXT, (n_sub * sub_len)[entry])
    neighbours = padded[position[:, None] + np.arange(-2, 3)]
    context = entry_at[neighbours] + np.arange(N_CONTEXT)

    sub_word = np.repeat(np.arange(len(entry)), n_sub[entry])
    offsets = _bounds(sub_len[entry[sub_word]])
    code[offsets[1:, None] - np.arange(N_CONTEXT, 0, -1)] = context[sub_word]

    sub_at = _bounds(n_sub[entry])[word_at]
    word_idx = sub_word - np.repeat(word_at[:-1], np.diff(sub_at))
    return FeatureTable(dim, vocab, code.astype(np.int32), offsets, word_idx, sub_at, word_at)


class Featurizer:
    """Deterministic hashed features for subwords in context.

    Feature strings are CRC32-hashed into `dim` buckets; collisions are
    accepted noise.  A word's ids depend only on the word and `dim`, so all
    featurizers share one memo of them.
    """

    def __init__(self, dim: int = DEFAULT_HASH_DIM):
        check_hash_dim(dim)
        self.dim = dim

    def paragraph_arrays(self, words):
        """(feat, offsets, word_idx) int64 arrays for all subwords of a
        paragraph: `featurize` on the one paragraph."""
        table = featurize([list(words)], self.dim)
        return table.feat.astype(np.int64), table.offsets.copy(), table.word_idx.copy()


@dataclass
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 1e-4
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class TaggerModel:
    """Hashed-feature weights, holding only the rows that training touched.

    `rows` are sorted, unique hashed feature ids and `values` their
    `(len(rows), 15)` float64 weights; every other row of the
    `(hash_dim, 15)` weight matrix is zero.  Training touches a few thousand
    of the 2^20 default rows, so training, scoring, saving and loading never
    hold the dense matrix.

    `epoch_loss` is the mean training loss of each epoch of the `train` call
    that made the model; it lives in memory only and is not saved.
    """

    def __init__(self, weights, hash_dim: int, epochs_run: int = 0,
                 learning_rate: float = 0.0, seed: int = 0, *, rows,
                 epoch_loss=()):
        n_classes = tag_schema.NUM_CLASSES
        check_hash_dim(hash_dim)
        rows = _checked_rows(rows, hash_dim)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(rows), n_classes):
            raise ValueError(
                f"weights shape {weights.shape} does not match ({len(rows)}, {n_classes})"
            )
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        rows.flags.writeable = False  # vocab_rows searches them: they stay sorted
        # one all-zero row after the values stands for every id not in `rows`
        self._table = np.zeros((len(rows) + 1, n_classes))
        self._table[:-1] = weights
        self.rows = rows
        self.values = self._table[:-1]
        self.hash_dim = hash_dim
        self.epochs_run = epochs_run
        self.learning_rate = learning_rate
        self.seed = seed
        self.epoch_loss = list(epoch_loss)

    @classmethod
    def fresh(cls, hash_dim: int = DEFAULT_HASH_DIM) -> "TaggerModel":
        """The untrained model: no rows, so every weight is zero."""
        return cls(np.zeros((0, tag_schema.NUM_CLASSES)), hash_dim, rows=np.zeros(0, np.int64))

    def subword_probs(self, feat, offsets) -> np.ndarray:
        """Class distributions of the subwords whose hashed feature ids are
        `feat[offsets[s]:offsets[s + 1]]`, bit-identical to scoring with the
        dense matrix."""
        return self.row_probs(self.vocab_rows(feat), offsets)

    def vocab_rows(self, vocab) -> np.ndarray:
        """The row of the weight table that scores each hashed id of `vocab`:
        its position in `rows`, or the zero row after them for an id that is
        not in `rows`.  No array of `hash_dim` entries is built."""
        at = np.searchsorted(self.rows, vocab)
        return np.where(np.append(self.rows, -1)[at] == vocab, at, len(self.rows))

    def row_probs(self, rows, offsets) -> np.ndarray:
        """Class distributions of the subwords whose features score with the
        weight-table rows `rows[offsets[s]:offsets[s + 1]]` (see `vocab_rows`)."""
        return kernels.score_subwords(self._table, rows, offsets)

    def save(self, path) -> None:
        """Write the model to `path` (".npz" appended if missing), atomically.

        Only rows with a nonzero bit pattern are stored: comparing bits rather
        than values keeps rows of -0.0.
        """
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path += ".npz"
        keep = _nonzero_bits(self.values)
        with atomic_write(path, "wb", encoding=None) as handle:
            np.savez_compressed(
                handle,
                format=MODEL_FORMAT,
                rows=self.rows[keep],
                values=self.values[keep],
                hash_dim=self.hash_dim,
                epochs_run=self.epochs_run,
                learning_rate=self.learning_rate,
                seed=self.seed,
            )

    @classmethod
    def load(cls, path) -> "TaggerModel":
        """Read a model written by :meth:`save`.

        A file that cannot be read as a model (not an archive, truncated, a
        missing or malformed field) is a FormatError naming `path`.
        """
        try:
            data = np.load(path, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with data:
                fmt = str(data["format"])
                if fmt != MODEL_FORMAT:
                    raise ValueError(f"unknown model format {fmt!r}")
                hash_dim = _scalar(data, "hash_dim", "iu")
                meta = dict(
                    epochs_run=_scalar(data, "epochs_run", "iu"),
                    learning_rate=float(_scalar(data, "learning_rate", "iuf")),
                    seed=_scalar(data, "seed", "iu"),
                )
                rows, values = data["rows"], data["values"]
                if values.dtype != np.float64:
                    raise ValueError(f"values are {values.dtype}, expected float64")
            return cls(values, hash_dim, rows=rows, **meta)
        except KeyError as exc:
            raise FormatError(f"{path}: model file lacks {exc.args[0]!r}") from None
        # zipfile raises RuntimeError for an encrypted member and its subclass
        # NotImplementedError for an unknown compression method or version
        except (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile,
                zlib.error, lzma.LZMAError) as exc:
            raise FormatError(f"{path}: not a readable model file: {exc}") from None


def _scalar(data, name: str, kinds: str):
    """Field `name` of a model file as a Python number, once it is a 0-d
    array whose dtype kind is one of `kinds`."""
    value = data[name]
    if value.shape != () or value.dtype.kind not in kinds:
        raise ValueError(f"{name} is not a scalar of dtype kind {kinds!r}")
    return value.item()


def _checked_rows(rows, hash_dim: int) -> np.ndarray:
    """`rows` as a new int64 array, once they are sorted, unique ids in [0, hash_dim)."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError("rows must be a 1-D integer array")
    if (rows[1:] <= rows[:-1]).any():
        raise ValueError("rows must be strictly increasing")
    if len(rows) and (rows[0] < 0 or rows[-1] >= hash_dim):
        raise ValueError(f"rows must lie in [0, {hash_dim})")
    return rows.astype(np.int64)


def _nonzero_bits(values) -> np.ndarray:
    """Which rows of a float64 matrix hold a bit other than zero (-0.0 does)."""
    return values.view(np.int64).any(axis=1)


@dataclass
class _Prepared:
    """Featurized training set in kernel array form: features are `code`s
    into the hashed ids `vocab`, as in a FeatureTable."""

    vocab: np.ndarray
    code: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray
    mask: np.ndarray
    par_offsets: np.ndarray
    n_paragraphs: int
    n_effective: int

    @property
    def feat(self) -> np.ndarray:
        """`vocab[code]`: the hashed id of every feature, as a new read-only array."""
        return _hashed_ids(self.vocab, self.code)


def prepare_examples(examples, featurizer: Featurizer,
                     features: FeatureTable | None = None) -> _Prepared:
    """The kernel arrays of `examples`.  `features` is the table of their
    words (paragraph i is examples[i]); without it, it is compiled here.

    Each example needs exactly one label and one mask entry per word.
    Labels and the loss mask are looked up once per word and gathered per
    subword by its word.
    """
    examples = list(examples)
    if features is None:
        features = featurize([e.words for e in examples], featurizer.dim)
    else:
        features.check_matches(featurizer.dim, [e.words for e in examples])
    labels, unmasked = [], []
    for e in examples:
        if not len(e.labels) == len(e.mask) == len(e.words):
            raise ValueError("every example needs a label and a mask entry per word")
        labels += e.labels
        unmasked += e.mask
    index = np.array([tag_schema.LABEL_INDEX.get(label, -1) for label in labels], np.int64)
    live = np.array(unmasked, dtype=bool) & (index != tag_schema.AMB_INDEX)
    unknown = live & (index < 0)
    if unknown.any():
        label = labels[int(np.argmax(unknown))]
        raise ValueError(f"unmasked label {label!r} is not a model class")
    word = features.word_idx + np.repeat(features.word_at[:-1], np.diff(features.sub_at))
    mask = live.astype(np.uint8)[word]
    return _Prepared(
        vocab=features.vocab,
        code=features.code,
        offsets=features.offsets,
        labels=np.where(live, index, 0)[word],
        mask=mask,
        par_offsets=features.sub_at,
        n_paragraphs=len(features),
        n_effective=int(mask.sum()),
    )


def train(data, config: TrainConfig, init: TaggerModel | None = None,
          hash_dim: int = DEFAULT_HASH_DIM, features: FeatureTable | None = None) -> TaggerModel:
    """Mini-batch gradient descent on masked cross-entropy.

    Batches are `batch_size` paragraphs; paragraph order is reshuffled every
    epoch from `config.seed`, so a rerun is bit-identical.  `init` continues
    training an existing model (its hash_dim wins); otherwise training starts
    from the fresh, all-zero model.  `features`, when given, is the
    compiled table of `data`'s words (see `prepare_examples`).

    Only the rows the features touch, and `init`'s rows, are held: the
    vocabulary entries that the features use are mapped once to positions
    among those sorted rows, each feature takes its entry's position, and
    one `epoch_sgd` call runs every epoch on that compact matrix, updating
    it in the order it would update the dense one, so the weights are
    bit-identical to dense training.
    """
    if init is None:
        init = TaggerModel.fresh(hash_dim)
    prepared = prepare_examples(data, Featurizer(init.hash_dim), features)
    if prepared.n_effective == 0:
        raise ValueError("no unmasked training tokens")
    used = np.zeros(len(prepared.vocab), bool)
    used[prepared.code] = True
    # sorted and distinct, as np.union1d gives, which imports numpy.ma
    rows = np.sort(np.concatenate((init.rows, prepared.vocab[used])))
    distinct = np.ones(len(rows), bool)
    distinct[1:] = rows[1:] != rows[:-1]
    rows = rows[distinct]
    # one more row, zero, for the kernel's padding
    weights = np.zeros((len(rows) + 1, tag_schema.NUM_CLASSES))
    weights[np.searchsorted(rows, init.rows)] = init.values
    # int32 positions among `rows` replace the hashed ids
    feat = np.searchsorted(rows, prepared.vocab).astype(np.int32)[prepared.code]

    rng = np.random.default_rng(config.seed)
    orders = [rng.permutation(prepared.n_paragraphs).astype(np.int64)
              for _ in range(config.epochs)]
    results = kernels.epoch_sgd(
        weights,
        feat,
        prepared.offsets,
        prepared.labels,
        prepared.mask,
        prepared.par_offsets,
        orders,
        config.batch_size,
        config.learning_rate,
    )
    return TaggerModel(
        weights[:-1],
        init.hash_dim,
        epochs_run=init.epochs_run + config.epochs,
        learning_rate=config.learning_rate,
        seed=config.seed,
        rows=rows,
        epoch_loss=[loss / tokens for loss, tokens in results],
    )


def predict_probs(model: TaggerModel, words) -> list[TokenProbs]:
    """Per-subword class distributions for one paragraph, in word order and,
    within a word, subword order; each `distribution` is a view of a row of
    one float64 matrix.

    The paragraph is featurized once and its whole matrix is checked once.
    If any row fails, every row goes through the public `TokenProbs`
    constructor, so the first bad row raises that row's ValueError.
    """
    words = list(words)
    if not words:
        return []
    table = featurize([words], model.hash_dim)
    probs = model.subword_probs(table.feat, table.offsets)
    word_idx = table.word_idx.tolist()
    if _valid_distributions(probs, len(word_idx)):
        return [TokenProbs._checked(w, row) for w, row in zip(word_idx, probs)]
    return [TokenProbs(w, row) for w, row in zip(word_idx, probs)]


# ---------------------------------------------------------------------------
# Externally computed probabilities
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("paper_id", "paragraph", "word_index", "subword_index", "probs")
_INDEX_KEYS = ("paragraph", "word_index", "subword_index")
_INDEX_LIMIT = 1 << 63  # word and subword indices are stored as int64
# orjson 3.8 has no nesting limit and overflows the C stack on deep enough
# nesting, so it only gets lines with at most this many `[` and `{`
_FAST_MAX_OPENERS = 1000

# Records per numpy pass over their probabilities: large enough that numpy's
# per-call cost vanishes, small enough that a block's Python lists stay small.
_BLOCK_RECORDS = 1024


@dataclass(frozen=True, eq=False)
class ExternalProbsTable:
    """A probability file's records as columns, in file order.

    `keys[key_id[i]]` is record i's (paper_id, paragraph); key ids number the
    keys in order of first appearance, so every key has a record.
    """

    keys: list[tuple[str, int]]
    key_id: np.ndarray  # int64 (n,)
    word_index: np.ndarray  # int64 (n,)
    subword_index: np.ndarray  # int64 (n,)
    probs: np.ndarray  # float64 (n, 15); each row sums to 1


def _record_fields(recno: int, line: str):
    """(paper_id, paragraph, word_index, subword_index, probs) of one JSON line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"probability record {recno}: bad JSON ({exc})") from None
    except RecursionError:
        raise FormatError(f"probability record {recno}: JSON nested too deeply") from None
    if type(obj) is not dict:
        raise FormatError(
            f"probability record {recno}: expected a JSON object, got {type(obj).__name__}"
        )
    try:
        paper_id, paragraph, word_index, subword_index, probs = (
            obj["paper_id"], obj["paragraph"], obj["word_index"], obj["subword_index"],
            obj["probs"],
        )
    except KeyError:
        key = next(k for k in _REQUIRED_KEYS if k not in obj)
        raise FormatError(f"probability record {recno}: missing key {key!r}") from None
    if not (type(paragraph) is type(word_index) is type(subword_index) is int
            and paragraph >= 0 and word_index >= 0 and subword_index >= 0):
        key = next(k for k in _INDEX_KEYS if type(obj[k]) is not int or obj[k] < 0)
        raise FormatError(
            f"probability record {recno}: {key} must be a non-negative integer, "
            f"got {obj[key]!r}"
        )
    if word_index >= _INDEX_LIMIT or subword_index >= _INDEX_LIMIT:
        key = "word_index" if word_index >= _INDEX_LIMIT else "subword_index"
        raise FormatError(
            f"probability record {recno}: {key} must be below 2**63, got {obj[key]!r}"
        )
    return str(paper_id), paragraph, word_index, subword_index, probs


def _record_probs(recno: int, probs) -> np.ndarray:
    """Record `recno`'s `probs` as a float64 row divided by its sum.

    A wrong class count, a negative, non-numeric or out-of-float64-range
    entry, or a sum off by more than 1e-6 from 1 is a FormatError naming the
    record.  Only JSON numbers count: numpy would also take `true` as 1.0 and
    `"0.5"` as 0.5.
    """
    n_classes = tag_schema.NUM_CLASSES
    try:
        row = np.asarray(probs, dtype=np.float64)
    except (TypeError, ValueError):
        raise FormatError(f"probability record {recno}: probs are not numbers") from None
    except OverflowError:  # an integer entry too large for a float64
        raise FormatError(
            f"probability record {recno}: a probability is out of float64 range"
        ) from None
    if row.shape != (n_classes,):
        raise FormatError(
            f"probability record {recno}: expected {n_classes} "
            f"probabilities, got {row.shape[0] if row.ndim == 1 else row.shape}"
        )
    if not all(type(p) is float or type(p) is int for p in probs):
        raise FormatError(f"probability record {recno}: probs are not numbers")
    if (row < 0).any():
        raise FormatError(f"probability record {recno}: negative probability")
    total = row.sum()
    if not abs(total - 1.0) <= 1e-6:
        raise FormatError(
            f"probability record {recno}: probabilities sum to {float(total)!r}"
        )
    return row / total


def _fast_probs(rows) -> np.ndarray | None:
    """`_record_probs` of every row as one `(len(rows), 15)` matrix, or None
    when any row would raise there."""
    try:
        if not set(map(type, chain.from_iterable(rows))) <= {float, int}:
            return None
        block = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if block.shape != (len(rows), tag_schema.NUM_CLASSES) or (block < 0).any():
        return None
    total = block.sum(axis=1)
    if not (np.abs(total - 1.0) <= 1e-6).all():
        return None
    return block / total[:, None]


def _fast_fields(loads, line: str):
    """`_record_fields` of a line that orjson's `loads` reads as json would,
    with `probs` as parsed, else None.

    orjson and json differ on NaN and Infinity literals, numbers that
    overflow to inf and lone-surrogate escapes (orjson raises), on integers
    outside [-2**63, 2**64) (orjson may return a float) and on nesting deeper
    than json's recursion limit (orjson parses it).  A line passes only as an
    object of exactly the five keys with a string id and in-range indices,
    so none of those can be in a passing line's fields apart from `probs`,
    where any of them fails `_fast_probs`.
    """
    try:
        if len(line) > _FAST_MAX_OPENERS and (
                line.count("[") + line.count("{") > _FAST_MAX_OPENERS):
            return None
        obj = loads(line)
        paper_id, paragraph, word_index, subword_index, probs = (
            obj["paper_id"], obj["paragraph"], obj["word_index"], obj["subword_index"],
            obj["probs"],
        )
    except (ValueError, TypeError, KeyError):  # not JSON, not an object, a missing key
        return None
    if (len(obj) == len(_REQUIRED_KEYS) and type(paper_id) is str
            and type(paragraph) is type(word_index) is type(subword_index) is int
            and paragraph >= 0 and 0 <= word_index < _INDEX_LIMIT
            and 0 <= subword_index < _INDEX_LIMIT):
        return paper_id, paragraph, word_index, subword_index, probs
    return None


def load_external_probs(source) -> ExternalProbsTable:
    """Read a JSON-lines probability file into an ExternalProbsTable.

    Distributions off by at most 1e-6 from summing to 1 are renormalized;
    anything worse (NaN included), a wrong class count, a negative,
    non-numeric or out-of-float64-range entry, a line that is not a JSON
    object or is nested too deeply, an index that is not a non-negative
    integer, or a word or subword index of 2**63 or more is a FormatError
    naming the record number; of several, the first in the file.  Records
    from different paragraphs may interleave.

    orjson parses each line as it is read, and json each line that fails
    `_fast_fields`.  A block of `_BLOCK_RECORDS` records stands as read when
    every line passes its field checks and `_fast_probs` takes the block's
    probabilities; any other block is read again by json, one record at a
    time, so the table and any error are exactly json's.

    Each checked block is appended to four growable typed columns, and the
    table's arrays are views of them, taken once reading ends, so every
    value is held once.
    """
    import orjson  # here, so that commands that read no probability file do not load it

    loads = orjson.loads
    key_ids: dict[tuple[str, int], int] = {}
    # an array that exports its buffer cannot grow: the views come last
    kids, words, subs, probs_col = array("q"), array("q"), array("q"), array("d")

    def add_block(recnos, lines, fields):
        try:  # json reads the lines that orjson may read differently
            fields = [f or _record_fields(recno, line)
                      for recno, line, f in zip(recnos, lines, fields)]
            probs = _fast_probs([f[4] for f in fields])
        except FormatError:
            probs = None
        if probs is None:  # json, one record at a time: the first bad record raises
            probs = np.array([_record_probs(recno, _record_fields(recno, line)[4])
                              for recno, line in zip(recnos, lines)])
        # a list at a time: an array grows more slowly an item at a time
        kids.fromlist([key_ids.setdefault((p, k), len(key_ids)) for p, k, _, _, _ in fields])
        words.fromlist([w for _, _, w, _, _ in fields])
        subs.fromlist([s for _, _, _, s, _ in fields])
        probs_col.frombytes(memoryview(probs).cast("B"))

    recnos, lines, fields = [], [], []
    for recno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        recnos.append(recno)
        lines.append(line)
        fields.append(_fast_fields(loads, line))
        if len(lines) == _BLOCK_RECORDS:
            add_block(recnos, lines, fields)
            recnos, lines, fields = [], [], []
    if lines:
        add_block(recnos, lines, fields)
    return ExternalProbsTable(
        keys=list(key_ids),
        key_id=np.frombuffer(kids, dtype=np.int64),
        word_index=np.frombuffer(words, dtype=np.int64),
        subword_index=np.frombuffer(subs, dtype=np.int64),
        probs=np.frombuffer(probs_col, dtype=np.float64).reshape(-1, tag_schema.NUM_CLASSES),
    )


def group_external_probs(table: ExternalProbsTable):
    """Group a table's records into {(paper_id, paragraph): (word_idx array, probs matrix)}.

    The values are views into the table's columns.  Within a paragraph,
    records must be in strictly increasing (word_index, subword_index) order,
    as the file format requires; a repeated or out-of-order pair is an
    AlignmentError naming the first such paragraph in order of appearance.
    """
    key_id, word_idx, sub_idx, probs = (
        table.key_id, table.word_index, table.subword_index, table.probs
    )
    if (np.diff(key_id) < 0).any():  # interleaved paragraphs
        order = np.argsort(key_id, kind="stable")
        key_id, word_idx, sub_idx, probs = (
            key_id[order], word_idx[order], sub_idx[order], probs[order]
        )
    bounds = np.searchsorted(key_id, np.arange(len(table.keys) + 1))
    d_word = np.diff(word_idx)
    d_sub = np.diff(sub_idx)
    bad = (d_word < 0) | ((d_word == 0) & (d_sub <= 0))
    bad[bounds[1:-1] - 1] = False  # pairs that straddle two paragraphs
    if bad.any():
        paper_id, paragraph = table.keys[key_id[int(np.argmax(bad))]]
        raise AlignmentError(
            f"probability records for {paper_id} paragraph {paragraph} are out of "
            "order or repeat a (word_index, subword_index) pair"
        )
    return {
        key: (word_idx[start:end], probs[start:end])
        for key, start, end in zip(table.keys, bounds[:-1].tolist(), bounds[1:].tolist())
    }
