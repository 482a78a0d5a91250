"""Slow, obviously-correct reference kernels that the fast paths are tested against.

`_epoch_sgd_np` walks the batch one token (subword) at a time; the vectorized
`sciner.kernels.epoch_sgd`, which runs every epoch in one call on weights with
an extra zero last row (`with_zero_row`), must reproduce its weights and loss
bit for bit, epoch by epoch.
`score_subwords_ref`, `aggregate_words_ref` and `decode_constrained_ref` work
one subword or one word at a time.  `gate_label_ref` is the argmax-then-gate
rule that `autoannotate.gate_label` must match.
`load_external_probs_ref` and `group_external_probs_ref` read and group a
probability file one `ProbRecord` tuple at a time; the columnar reader and
grouping must give the same groups, bit for bit, or raise the same error.
`predict_probs_ref` builds one checked `TokenProbs` per row of
`Featurizer.paragraph_arrays` scored by `subword_probs`; `predict_probs`, which
checks a paragraph's whole matrix once, must give the same word indices and
distribution bytes, or raise the same error.
`featurize_ref` hashes one subword's feature strings in the order that
`Featurizer.paragraph_arrays` must give them; `segment_paragraph` and `chunk`
give the subwords it takes and their text.  `training_loss` is the mean
cross-entropy that training descends, and `training_loss_gradient` its
analytic gradient, one subword at a time.  `train_dense_ref` trains on the
dense `(hash_dim, 15)` matrix with `_epoch_sgd_np`; `tagger.train`, which
holds only the rows its features touch and runs the vectorized kernel, must
give the same weights and epoch losses bit for bit.  `dense_weights` is a
model's `(hash_dim, 15)` weight matrix, zero outside its `rows`.
`gate_stats_ref` tallies decoded labels one at a time; `GateStats.from_indices`
must give the same tally.
`tokenize_ref` walks a paragraph one character at a time; the regular
expressions of `corpus_ingest.tokenize` must give the same tokens.
`parse_bibtex_ref` scans BibTeX one character at a time;
`corpus_ingest.parse_bibtex`, which matches each piece of an entry with an
anchored regular expression, must give the same records, skip count and
errors, and the same count of @comment, @preamble and @string bodies passed
over.  Both read a year with `corpus_ingest._year`, so they differ only in
scanning.
`read_annotations_ref` reads an annotation file one line at a time with a
state machine that flushes each paragraph at the next blank line or at the
end of the file; `dataset.read_annotations`, which cuts the file into blocks
and parses each block on its own, must give the same paragraphs, or raise
the same error naming the same line.
`validate_sequence_ref` checks a label sequence one transition at a time
with `tag_schema.is_legal_transition`; `tag_schema.validate_sequence` must
give the same violations, or raise the same unknown-label error.
`spans_from_labels_ref` walks a paragraph's labels one word at a time;
`tag_schema.spans_from_labels`, which finds the spans of label indices with
`tag_schema.span_bounds`, must give the same spans, or raise the same
unknown-label error.
`score_ref` scores predictions one word and one paragraph at a time, with
`spans_from_labels_ref`; `evaluation.count_rows` (each paragraph's row),
`evaluation.score`, which sums the rows, and each draw of
`evaluation.bootstrap_compare` must give the same MetricSet.
"""

import json
import zlib
from collections import namedtuple

import numpy as np

from sciner import kernels, tag_schema
from sciner.autoannotate import GateStats
from sciner.corpus_ingest import (
    _MONTHS,
    _RECORD_FIELDS,
    BibParseResult,
    PaperRecord,
    _clean,
    _year,
)
from sciner.dataset import _HEADER_RE, PROVENANCES, AnnotatedParagraph
from sciner.evaluation import NON_O_LABELS, MetricSet, _check_aligned, _prf
from sciner.errors import AlignmentError, FormatError
from sciner.tagger import (
    CONTINUATION_MARK,
    DEFAULT_HASH_DIM,
    Featurizer,
    TaggerModel,
    TokenProbs,
    prepare_examples,
    segment_word,
    word_shape,
)

_REQUIRED_KEYS = ("paper_id", "paragraph", "word_index", "subword_index", "probs")
_INDEX_KEYS = ("paragraph", "word_index", "subword_index")

# one probability-file record: a subword's distribution with its address
ProbRecord = namedtuple("ProbRecord", _REQUIRED_KEYS)


def _token_loss_grad_np(weights, feat, offsets, labels, tokens):
    """Probs, per-token loss, for the given token (subword) indices."""
    n = len(tokens)
    n_classes = weights.shape[1]
    probs = np.empty((n, n_classes))
    loss = 0.0
    for i, t in enumerate(tokens):
        z = weights[feat[offsets[t] : offsets[t + 1]]].sum(axis=0)
        m = z.max()
        e = np.exp(z - m)
        s = e.sum()
        probs[i] = e / s
        loss += np.log(s) - (z[labels[t]] - m)
    return probs, loss


def _epoch_sgd_np(weights, feat, offsets, labels, mask, par_offsets, order,
                  batch_pars, lr):
    total_loss = 0.0
    total_tokens = 0
    n_pars = len(order)
    for b_start in range(0, n_pars, batch_pars):
        batch = order[b_start : b_start + batch_pars]
        tokens = np.concatenate(
            [np.arange(par_offsets[p], par_offsets[p + 1]) for p in batch]
        )
        tokens = tokens[mask[tokens] != 0]
        n_tok = len(tokens)
        if n_tok == 0:
            continue
        # gradient of mean cross-entropy over the batch, computed against the
        # pre-update weights, then applied
        probs, loss = _token_loss_grad_np(weights, feat, offsets, labels, tokens)
        grad = probs
        grad[np.arange(n_tok), labels[tokens]] -= 1.0
        grad *= lr / n_tok
        rows = []
        reps = []
        for i, t in enumerate(tokens):
            k = offsets[t + 1] - offsets[t]
            rows.append(feat[offsets[t] : offsets[t + 1]])
            reps.append(np.full(k, i))
        rows = np.concatenate(rows)
        reps = np.concatenate(reps)
        np.subtract.at(weights, rows, grad[reps])
        total_loss += loss
        total_tokens += n_tok
    return total_loss, total_tokens


def score_subwords_ref(weights, feat, offsets):
    """Per subword: sum its feature rows, then softmax over the classes."""
    n_sub = len(offsets) - 1
    probs = np.zeros((n_sub, weights.shape[1]))
    for s in range(n_sub):
        z = weights[feat[offsets[s] : offsets[s + 1]]].sum(axis=0)
        e = np.exp(z - z.max())
        probs[s] = e / e.sum()
    return probs


def predict_probs_ref(model, words):
    """One paragraph's subword distributions, one checked `TokenProbs` per row."""
    words = list(words)
    if not words:
        return []
    feat, offsets, word_idx = Featurizer(model.hash_dim).paragraph_arrays(words)
    probs = model.subword_probs(feat, offsets)
    return [TokenProbs(w, row) for w, row in zip(word_idx.tolist(), probs)]


def aggregate_words_ref(probs, word_idx, n_words):
    """Per word: the product of its subword distributions, taken in log space;
    a word with a single subword keeps that distribution unchanged."""
    scores = np.zeros((n_words, probs.shape[1]))
    for w in range(n_words):
        rows = probs[word_idx == w]
        if len(rows) == 1:
            scores[w] = rows[0]
        else:
            with np.errstate(divide="ignore"):
                scores[w] = np.exp(np.log(rows).sum(axis=0))
    return scores


def decode_constrained_ref(scores, legal, gamma, start_row):
    """Per word: the best class legal after the previous label (the lowest index
    wins a tie), kept if its score is >= gamma, else amb (the last legal row)."""
    amb = legal.shape[0] - 1
    labels = np.zeros(len(scores), dtype=np.int64)
    conf = np.zeros(len(scores))
    prev = start_row
    for w, row in enumerate(scores):
        allowed = np.flatnonzero(legal[prev, : len(row)])
        best = allowed[np.argmax(row[allowed])]
        conf[w] = row[best]
        labels[w] = best if row[best] >= gamma else amb
        prev = labels[w]
    return labels, conf


def gate_label_ref(scores, gamma):
    """Class index of the argmax (lowest index on ties) if it reaches gamma, else 15 (amb)."""
    best = int(np.argmax(scores))
    return best if scores[best] >= gamma else len(scores)


def segment_paragraph(words):
    """Every subword of `words`, in order, each carrying its word's index."""
    out = []
    for i, word in enumerate(words):
        out.extend(segment_word(word, i))
    return out


def chunk(subword):
    """A subword's characters, without the continuation mark."""
    text = subword.text
    return text[len(CONTINUATION_MARK):] if subword.is_continuation else text


def featurize_ref(subword, words, dim=DEFAULT_HASH_DIM):
    """Feature ids of one subword of words[subword.word_index]: the word's,
    the subword's, then those of the words at offsets -2..+2."""
    if not 0 <= subword.word_index < len(words):
        raise ValueError(f"word_index {subword.word_index} out of range")
    word = words[subword.word_index]
    if subword not in segment_word(word, subword.word_index):
        raise ValueError(f"{subword!r} is not a subword of {word!r}")
    strings = ["bias", "w=" + word, "shape=" + word_shape(word)]
    for k in range(1, min(3, len(word)) + 1):
        strings += [f"pre{k}=" + word[:k], f"suf{k}=" + word[-k:]]
    strings += ["sub=" + subword.text, "pos=" + ("cont" if subword.is_continuation else "first")]
    for offset in range(-2, 3):
        j = subword.word_index + offset
        neighbor = "<s>" if j < 0 else "</s>" if j >= len(words) else words[j]
        strings.append(f"n{offset}=" + neighbor)
    return np.array([zlib.crc32(s.encode("utf-8")) % dim for s in strings], dtype=np.int64)


def training_loss(model, data):
    """Mean cross-entropy per unmasked subword (forward pass only)."""
    prepared = prepare_examples(list(data), Featurizer(model.hash_dim))
    if prepared.n_effective == 0:
        raise ValueError("no unmasked training tokens")
    probs = kernels.score_subwords(dense_weights(model), prepared.feat, prepared.offsets)
    live = prepared.mask != 0
    p_true = probs[live, prepared.labels[live]]
    return float(-np.log(np.maximum(p_true, 1e-300)).mean())


def training_loss_gradient(model, data):
    """Analytic gradient of `training_loss` w.r.t. the weights."""
    prepared = prepare_examples(list(data), Featurizer(model.hash_dim))
    if prepared.n_effective == 0:
        raise ValueError("no unmasked training tokens")
    probs = kernels.score_subwords(dense_weights(model), prepared.feat, prepared.offsets)
    grad = np.zeros((model.hash_dim, tag_schema.NUM_CLASSES))
    n = prepared.n_effective
    for t in range(len(prepared.labels)):
        if not prepared.mask[t]:
            continue
        g = probs[t].copy()
        g[prepared.labels[t]] -= 1.0
        rows = prepared.feat[prepared.offsets[t] : prepared.offsets[t + 1]]
        np.add.at(grad, rows, g / n)
    return grad


def train_dense_ref(data, config, init=None, hash_dim=DEFAULT_HASH_DIM):
    """`tagger.train` on the dense matrix: zeros, or `dense_weights(init)`,
    updated by the token-by-token `_epoch_sgd_np`, one epoch at a time, on
    the hashed feature ids, with the same paragraph orders."""
    data = list(data)
    if init is not None:
        hash_dim = init.hash_dim
        weights = dense_weights(init)
    else:
        weights = np.zeros((hash_dim, tag_schema.NUM_CLASSES))
    prepared = prepare_examples(data, Featurizer(hash_dim))
    rng = np.random.default_rng(config.seed)
    epoch_loss = []
    for _ in range(config.epochs):
        order = rng.permutation(prepared.n_paragraphs).astype(np.int64)
        loss, tokens = _epoch_sgd_np(
            weights, prepared.feat, prepared.offsets, prepared.labels, prepared.mask,
            prepared.par_offsets, order, config.batch_size, config.learning_rate,
        )
        epoch_loss.append(loss / tokens)
    return TaggerModel(
        weights,
        hash_dim,
        epochs_run=(0 if init is None else init.epochs_run) + config.epochs,
        learning_rate=config.learning_rate,
        seed=config.seed,
        rows=np.arange(hash_dim),
        epoch_loss=epoch_loss,
    )


def dense_weights(model):
    """`model`'s dense `(hash_dim, 15)` weight matrix, as a new array: its
    `values` at its `rows`, zero everywhere else."""
    dense = np.zeros((model.hash_dim, tag_schema.NUM_CLASSES))
    dense[model.rows] = model.values
    return dense


def gate_stats_ref(labels):
    """The GateStats tally of decoded label strings, one label at a time."""
    stats = GateStats()
    for label in labels:
        stats.total_words += 1
        if label == tag_schema.AMB:
            stats.amb_words += 1
        else:
            stats.accepted[label] = stats.accepted.get(label, 0) + 1
    return stats


def with_zero_row(weights):
    """`weights` with the all-zero last row that `kernels.epoch_sgd` pads with."""
    return np.vstack([weights, np.zeros((1, weights.shape[1]))])


def load_external_probs_ref(source):
    """Yield a ProbRecord per record of a JSON-lines probability file.

    Distributions off by at most 1e-6 from summing to 1 are renormalized;
    anything worse (NaN included), a wrong class count, a negative,
    non-numeric or out-of-float64-range entry, a line that is not a JSON
    object or is nested too deeply, an index that is not a non-negative
    integer, or a word or subword index of 2**63 or more is a FormatError
    naming the record number.
    """
    for recno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
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
        for key in _REQUIRED_KEYS:
            if key not in obj:
                raise FormatError(f"probability record {recno}: missing key {key!r}")
        paragraph, word_index, subword_index = (
            obj["paragraph"], obj["word_index"], obj["subword_index"]
        )
        if not (type(paragraph) is type(word_index) is type(subword_index) is int
                and paragraph >= 0 and word_index >= 0 and subword_index >= 0):
            key = next(k for k in _INDEX_KEYS if type(obj[k]) is not int or obj[k] < 0)
            raise FormatError(
                f"probability record {recno}: {key} must be a non-negative integer, "
                f"got {obj[key]!r}"
            )
        for key in ("word_index", "subword_index"):
            if obj[key] >= 2**63:  # stored as int64
                raise FormatError(
                    f"probability record {recno}: {key} must be below 2**63, got {obj[key]!r}"
                )
        try:
            probs = np.asarray(obj["probs"], dtype=np.float64)
        except (TypeError, ValueError):
            raise FormatError(f"probability record {recno}: probs are not numbers") from None
        except OverflowError:  # an integer entry too large for a float64
            raise FormatError(
                f"probability record {recno}: a probability is out of float64 range"
            ) from None
        if probs.shape != (tag_schema.NUM_CLASSES,):
            raise FormatError(
                f"probability record {recno}: expected {tag_schema.NUM_CLASSES} "
                f"probabilities, got {probs.shape[0] if probs.ndim == 1 else probs.shape}"
            )
        if not all(type(p) is float or type(p) is int for p in obj["probs"]):
            # numpy converts JSON `true` and `"0.5"`; neither is a number
            raise FormatError(f"probability record {recno}: probs are not numbers")
        if (probs < 0).any():
            raise FormatError(f"probability record {recno}: negative probability")
        total = probs.sum()
        if not abs(total - 1.0) <= 1e-6:
            raise FormatError(
                f"probability record {recno}: probabilities sum to {float(total)!r}"
            )
        yield ProbRecord(
            paper_id=str(obj["paper_id"]),
            paragraph=paragraph,
            word_index=word_index,
            subword_index=subword_index,
            probs=probs / total,
        )


def group_external_probs_ref(records):
    """Group records into {(paper_id, paragraph): (word_idx array, probs matrix)}.

    Within a paragraph, records must be in strictly increasing
    (word_index, subword_index) order, as the file format requires; a repeated
    or out-of-order pair is an AlignmentError.
    """
    grouped: dict[tuple[str, int], tuple[list[int], list[int], list[np.ndarray]]] = {}
    for record in records:
        key = (record.paper_id, record.paragraph)
        word_idx, sub_idx, probs = grouped.setdefault(key, ([], [], []))
        word_idx.append(record.word_index)
        sub_idx.append(record.subword_index)
        probs.append(record.probs)
    out = {}
    for key, (word_idx, sub_idx, probs) in grouped.items():
        idx = np.asarray(word_idx, dtype=np.int64)
        d_word = np.diff(idx)
        d_sub = np.diff(np.asarray(sub_idx, dtype=np.int64))
        if ((d_word < 0) | ((d_word == 0) & (d_sub <= 0))).any():
            raise AlignmentError(
                f"probability records for {key[0]} paragraph {key[1]} are out of "
                "order or repeat a (word_index, subword_index) pair"
            )
        out[key] = (idx, np.vstack(probs))
    return out


# characters always detached as single-character tokens
_DETACH = set('()[]{}"“”:;!?')


def _split_hyphens(piece: str) -> list[str]:
    """Detach hyphens that have non-hyphen material on both sides.

    Edge hyphens stay attached ("picto-" survives as one token), matching how
    line-break hyphenation comes out of text extraction.
    """
    non_hyphen = [i for i, c in enumerate(piece) if c != "-"]
    if not non_hyphen:
        return [piece]
    lo, hi = non_hyphen[0], non_hyphen[-1]
    out = []
    current = piece[:lo]
    for i in range(lo, hi + 1):
        c = piece[i]
        if c == "-":
            if current:
                out.append(current)
                current = ""
            out.append("-")
        else:
            current += c
    current += piece[hi + 1 :]
    if current:
        out.append(current)
    return out


def _strip_trailing_punct(piece: str) -> list[str]:
    suffix = []
    while len(piece) > 1 and piece[-1] in ".,":
        suffix.append(piece[-1])
        piece = piece[:-1]
    suffix.reverse()
    return [piece] + suffix


def tokenize_ref(paragraph: str) -> list[str]:
    """Deterministic rule tokenization of one paragraph, a character at a time.

    Splits on whitespace; detaches brackets, quotes, and :;!? anywhere;
    detaches word-final '.' and ','; splits internal hyphens into standalone
    '-' tokens.  Commas between digits ("3,2") are kept intact.  Never emits
    an empty token, and re-tokenizing its own space-joined output is a no-op.
    """
    tokens: list[str] = []
    for chunk in paragraph.split():
        pieces = []
        current = ""
        for c in chunk:
            if c in _DETACH:
                if current:
                    pieces.append(current)
                    current = ""
                pieces.append(c)
            else:
                current += c
        if current:
            pieces.append(current)
        for piece in pieces:
            if piece in _DETACH:
                tokens.append(piece)
                continue
            for part in _split_hyphens(piece):
                if part == "-":
                    tokens.append(part)
                else:
                    tokens.extend(_strip_trailing_punct(part))
    return tokens


class _BibScanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def line(self, pos: int | None = None) -> int:
        return self.text.count("\n", 0, self.pos if pos is None else pos) + 1

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1


def _parse_bib_value(sc: _BibScanner) -> str:
    """One field value: {balanced braces}, "quoted", or a bare word/number."""
    sc.skip_ws()
    text, n = sc.text, len(sc.text)
    if sc.pos >= n:
        raise FormatError(f"line {sc.line()}: unexpected end of entry")
    ch = text[sc.pos]
    if ch == "{":
        depth = 0
        start = sc.pos
        while sc.pos < n:
            c = text[sc.pos]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    sc.pos += 1
                    return text[start + 1 : sc.pos - 1]
            sc.pos += 1
        raise FormatError(f"line {sc.line(start)}: unbalanced braces in value")
    if ch == '"':
        sc.pos += 1
        start = sc.pos
        depth = 0
        while sc.pos < n:
            c = text[sc.pos]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
            elif c == '"' and depth == 0:
                sc.pos += 1
                return text[start : sc.pos - 1]
            sc.pos += 1
        raise FormatError(f"line {sc.line(start)}: unterminated quoted value")
    # bare token (month macro, number); ends at comma or closing brace
    start = sc.pos
    while sc.pos < n and text[sc.pos] not in ",}\n":
        sc.pos += 1
    value = text[start : sc.pos].strip()
    if not value:
        raise FormatError(f"line {sc.line(start)}: empty field value")
    return value


def _parse_bib_entry(sc: _BibScanner) -> PaperRecord | None:
    """Parse one @type{key, ...} entry starting at sc.pos (at the '@'); for
    @comment, @preamble and @string, in any case, step past the balanced
    body and return None."""
    text, n = sc.text, len(sc.text)
    sc.pos += 1  # consume '@'
    start = sc.pos
    while sc.pos < n and (text[sc.pos].isalnum() or text[sc.pos] in "_-"):
        sc.pos += 1
    if sc.pos == start:
        raise FormatError(f"line {sc.line()}: missing entry type after '@'")
    entry_type = text[start : sc.pos]
    sc.skip_ws()
    if sc.eof() or text[sc.pos] != "{":
        raise FormatError(f"line {sc.line()}: expected '{{' after entry type")
    if entry_type.lower() in ("comment", "preamble", "string"):
        _parse_bib_value(sc)
        return None
    sc.pos += 1
    key_start = sc.pos
    while sc.pos < n and text[sc.pos] not in ",}":
        sc.pos += 1
    if sc.eof():
        raise FormatError(f"line {sc.line(key_start)}: unterminated entry")
    key = text[key_start : sc.pos].strip()
    if not key:
        raise FormatError(f"line {sc.line(key_start)}: missing entry key")
    if "=" in key or any(c.isspace() for c in key):
        raise FormatError(f"line {sc.line(key_start)}: missing or invalid entry key")
    values: dict[str, str] = {}
    while True:
        if sc.eof():
            raise FormatError(f"line {sc.line()}: unterminated entry {key!r}")
        if text[sc.pos] == "}":
            sc.pos += 1
            break
        assert text[sc.pos] == ","
        sc.pos += 1
        sc.skip_ws()
        if sc.eof():
            raise FormatError(f"line {sc.line()}: unterminated entry {key!r}")
        if text[sc.pos] == "}":
            sc.pos += 1
            break
        name_start = sc.pos
        while sc.pos < n and text[sc.pos] not in "=,}" and not text[sc.pos].isspace():
            sc.pos += 1
        name = text[name_start : sc.pos].strip().lower()
        sc.skip_ws()
        if sc.eof() or text[sc.pos] != "=":
            raise FormatError(f"line {sc.line(name_start)}: expected '=' after field name {name!r}")
        sc.pos += 1
        raw = _parse_bib_value(sc)
        values[name] = raw
        sc.skip_ws()
        if sc.eof():
            raise FormatError(f"line {sc.line()}: unterminated entry {key!r}")
        if text[sc.pos] not in ",}":
            raise FormatError(f"line {sc.line()}: expected ',' or '}}' after field {name!r}")

    record = PaperRecord()
    for name, raw in values.items():
        if name not in _RECORD_FIELDS or name == "year":
            continue
        value = _clean(raw)
        if name == "month":
            value = _MONTHS.get(value.lower(), value)
        if value:
            setattr(record, name, value)
    if "year" in values:
        record.year = _year(_clean(values["year"]))
    return record


def parse_bibtex_ref(source) -> BibParseResult:
    """Parse BibTeX entries a character at a time; skips malformed entries,
    counting and noting them.

    `source` is a text stream or string.  Record order follows entry order.
    """
    text = source if isinstance(source, str) else source.read()
    sc = _BibScanner(text)
    result = BibParseResult(records=[], skipped=0)
    while True:
        at = text.find("@", sc.pos)
        if at < 0:
            break
        sc.pos = at
        try:
            record = _parse_bib_entry(sc)
            if record is None:
                result.non_entries += 1
            else:
                result.records.append(record)
        except FormatError as exc:
            result.skipped += 1
            result.errors.append(str(exc))
            # resume at the next entry marker
            nxt = text.find("@", at + 1)
            sc.pos = len(text) if nxt < 0 else nxt
    return result


def read_annotations_ref(source, filename: str = "<annotations>") -> list[AnnotatedParagraph]:
    """Read an annotation file one line at a time, validating labels and BIO
    transitions.

    Only `auto` paragraphs carry the confidence column; a third column in
    any other paragraph is an error naming its line.
    """
    paragraphs = []
    header = None
    words: list[str] = []
    labels: list[str] = []
    confidence: list[float] = []
    header_line = 0

    def fail(lineno, message):
        raise FormatError(f"{filename}:{lineno}: {message}")

    def flush(lineno):
        nonlocal header, words, labels, confidence
        if header is None:
            return
        if not words:
            fail(header_line, "paragraph has no words")
        prov = header["provenance"]
        conf = confidence if prov == "auto" else None
        if prov == "auto" and len(confidence) != len(words):
            fail(header_line, "auto paragraph lacks a confidence column")
        try:
            paragraphs.append(
                AnnotatedParagraph(
                    paper_id=header["paper_id"],
                    paragraph_index=int(header["paragraph"]),
                    words=words,
                    labels=labels,
                    provenance=prov,
                    annotator=header["annotator"],
                    confidence=conf,
                )
            )
        except ValueError as exc:
            fail(header_line, str(exc))
        header = None
        words, labels, confidence = [], [], []

    lineno = 0
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line:
            flush(lineno)
            continue
        # inside a paragraph, a line with a tab is a word line even when the
        # word starts with "#" (the tokenizer emits words such as "#1")
        if line.startswith("#") and (header is None or "\t" not in line):
            if header is not None:
                fail(lineno, "header inside paragraph (missing blank line?)")
            m = _HEADER_RE.match(line)
            if not m:
                fail(lineno, f"malformed paragraph header: {line!r}")
            header = m.groupdict()
            if header["provenance"] not in PROVENANCES:
                fail(lineno, f"unknown provenance {header['provenance']!r}")
            header_line = lineno
            continue
        if header is None:
            fail(lineno, "word line before any paragraph header")
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            fail(lineno, f"expected word<TAB>label[<TAB>confidence], got {line!r}")
        word, label = parts[0], parts[1]
        if not word:
            fail(lineno, "empty word")
        if label not in tag_schema.LABEL_INDEX:
            fail(lineno, f"unknown label {label!r}")
        prev = labels[-1] if labels else None
        if not tag_schema.is_legal_transition(prev, label):
            fail(lineno, f"illegal transition {prev!r} -> {label!r}")
        words.append(word)
        labels.append(label)
        if len(parts) == 3:
            if header["provenance"] != "auto":
                fail(lineno, f"confidence column in a {header['provenance']} paragraph")
            try:
                confidence.append(float(parts[2]))
            except ValueError:
                fail(lineno, f"bad confidence value {parts[2]!r}")
    flush(lineno + 1)
    return paragraphs


def validate_sequence_ref(labels):
    """All BIO transition violations in `labels`, one word at a time."""
    violations = []
    prev = None
    for i, label in enumerate(labels):
        if not tag_schema.is_legal_transition(prev, label):
            violations.append(tag_schema.Violation(i, prev, label))
        prev = label
    return violations


def spans_from_labels_ref(labels):
    """Maximal B-then-I runs as spans, one word at a time.  O and amb close
    any open span; an I-X with no X span open starts one.  A label outside
    the label space is the unknown-label ValueError."""
    spans = []
    open_type = None
    open_start = 0
    for i, label in enumerate(labels):
        if label not in tag_schema.LABEL_INDEX:
            raise ValueError(f"unknown label {label!r}")
        if label.startswith("B-"):
            if open_type is not None:
                spans.append(tag_schema.Span(open_type, open_start, i))
            open_type = label[2:]
            open_start = i
        elif label.startswith("I-"):
            t = label[2:]
            if open_type != t:
                # no span of this type is open: legal right after amb (which
                # closed any span), else only on unvalidated input; start one
                if open_type is not None:
                    spans.append(tag_schema.Span(open_type, open_start, i))
                open_type = t
                open_start = i
        else:  # O or amb
            if open_type is not None:
                spans.append(tag_schema.Span(open_type, open_start, i))
                open_type = None
    if open_type is not None:
        spans.append(tag_schema.Span(open_type, open_start, len(labels)))
    return spans


def score_ref(gold, predicted):
    """Token accuracy plus token- and span-level precision/recall/F1, counted
    one word at a time."""
    gold = list(gold)
    predicted = list(predicted)
    _check_aligned(gold, predicted)

    n_tokens = 0
    n_correct = 0
    tp = {label: 0 for label in NON_O_LABELS}
    fp = {label: 0 for label in NON_O_LABELS}
    fn = {label: 0 for label in NON_O_LABELS}
    span_tp_by_type = {t: 0 for t in tag_schema.ENTITY_TYPES}
    n_gold_spans = 0
    n_pred_spans = 0

    for g, p in zip(gold, predicted):
        for gl, pl in zip(g.labels, p.labels):
            n_tokens += 1
            if gl == pl:
                n_correct += 1
            if gl in tp:
                if pl == gl:
                    tp[gl] += 1
                else:
                    fn[gl] += 1
            if pl in fp and pl != gl:
                fp[pl] += 1
        gold_spans = set(spans_from_labels_ref(g.labels))
        pred_spans = set(spans_from_labels_ref(p.labels))
        n_gold_spans += len(gold_spans)
        n_pred_spans += len(pred_spans)
        for span in gold_spans & pred_spans:
            span_tp_by_type[span.entity_type] += 1

    micro_tp = sum(tp.values())
    micro_fp = sum(fp.values())
    micro_fn = sum(fn.values())
    precision, recall, f1 = _prf(micro_tp, micro_fp, micro_fn)
    span_tp = sum(span_tp_by_type.values())
    span_p, span_r, span_f = _prf(
        span_tp, n_pred_spans - span_tp, n_gold_spans - span_tp
    )
    return MetricSet(
        token_accuracy=n_correct / n_tokens if n_tokens else 0.0,
        precision=precision,
        recall=recall,
        f1=f1,
        span_precision=span_p,
        span_recall=span_r,
        span_f1=span_f,
        per_class={label: _prf(tp[label], fp[label], fn[label]) for label in NON_O_LABELS},
        n_tokens=n_tokens,
        n_gold_spans=n_gold_spans,
        n_pred_spans=n_pred_spans,
        span_tp_by_type=span_tp_by_type,
    )
