"""LETOR/SVMlight learning-to-rank data: parsing, folds, synthetic sets.

Input lines look like ``<rel> qid:<id> <idx>:<val> ... # <docid>`` with
1-based, possibly sparse feature indices; missing indices are treated as 0.
Datasets are immutable after construction and group documents by query in
file order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np


# The largest feature index a file may use. Features are stored densely, one
# column per index up to the largest seen, so this bounds the columns a line
# can ask for: 2^16 is about 94 times the 700 features of Yahoo! LTR.
MAX_FEATURE_INDEX = 2**16


class ParseError(ValueError):
    """A malformed input line; the message carries the file and line number."""


class SchemaError(ValueError):
    """Fold files disagree (missing file, feature dim, or overlapping qids)."""


class DatasetError(ValueError):
    """The dataset cannot be used as requested (empty file or split)."""


@dataclass
class QueryGroup:
    """All documents of one query: ids, feature rows, relevance grades."""

    query_id: str
    doc_ids: list[str]
    features: np.ndarray
    relevance: np.ndarray

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __post_init__(self):
        n = len(self.doc_ids)
        if n < 1:
            raise DatasetError(f"query {self.query_id!r} has no documents")
        if self.features.shape[0] != n or self.relevance.shape != (n,):
            raise DatasetError(
                f"query {self.query_id!r}: {n} doc ids, features {self.features.shape}, "
                f"relevance {self.relevance.shape}"
            )


@dataclass
class Dataset:
    """Query groups plus named, non-overlapping query-id splits."""

    groups: dict[str, QueryGroup]
    feature_dim: int
    splits: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        seen: set[str] = set()
        for name, qids in self.splits.items():
            for qid in qids:
                if qid not in self.groups:
                    raise DatasetError(f"split {name!r} references unknown query {qid!r}")
                if qid in seen:
                    raise DatasetError(f"query {qid!r} appears in more than one split")
                seen.add(qid)

    def query_ids(self, split: str | None = None) -> list[str]:
        if split is None:
            return list(self.groups)
        if split not in self.splits:
            raise DatasetError(f"dataset has no split {split!r}; has {sorted(self.splits)}")
        return list(self.splits[split])

    def split_by_counts(self, train: int, validation: int, test: int = 0) -> "Dataset":
        """Assign the first queries (in order) to train/validation/test splits."""
        ids = list(self.groups)
        if train < 1 or validation < 0 or test < 0 or train + validation + test > len(ids):
            raise DatasetError(
                f"cannot split {len(ids)} queries into {train}/{validation}/{test}"
            )
        splits = {"train": ids[:train], "validation": ids[train : train + validation]}
        if test:
            splits["test"] = ids[train + validation : train + validation + test]
        return replace(self, splits=splits)

    def stats(self) -> dict:
        """Query/document counts, per split and total."""
        out: dict = {"feature_dim": self.feature_dim, "splits": {}}
        for name, qids in self.splits.items():
            out["splits"][name] = {
                "queries": len(qids),
                "docs": int(sum(len(self.groups[q]) for q in qids)),
            }
        out["total"] = {
            "queries": len(self.groups),
            "docs": int(sum(len(g) for g in self.groups.values())),
        }
        return out


def _parse_line(line: str, lineno: int, source: str):
    comment = None
    if "#" in line:
        line, _, tail = line.partition("#")
        comment = tail.strip() or None
    tokens = line.split()
    if len(tokens) < 2:
        raise ParseError(f"{source}:{lineno}: expected '<rel> qid:<id> ...', got {line.strip()!r}")
    try:
        rel = float(tokens[0])
    except ValueError:
        raise ParseError(f"{source}:{lineno}: non-numeric relevance {tokens[0]!r}") from None
    if not math.isfinite(rel):
        raise ParseError(f"{source}:{lineno}: non-finite relevance {tokens[0]!r}")
    if rel < 0:
        raise ParseError(f"{source}:{lineno}: negative relevance {tokens[0]!r}")
    if not tokens[1].startswith("qid:") or len(tokens[1]) <= 4:
        raise ParseError(f"{source}:{lineno}: second token must be 'qid:<id>', got {tokens[1]!r}")
    qid = tokens[1][4:]
    feats = {}
    for tok in tokens[2:]:
        idx, sep, val = tok.partition(":")
        if not sep:
            raise ParseError(f"{source}:{lineno}: feature token {tok!r} is not '<idx>:<val>'")
        try:
            i = int(idx)
            v = float(val)
        except ValueError:
            raise ParseError(f"{source}:{lineno}: bad feature token {tok!r}") from None
        if not math.isfinite(v):
            raise ParseError(f"{source}:{lineno}: non-finite feature value {tok!r}")
        if i < 1:
            raise ParseError(f"{source}:{lineno}: feature indices are 1-based, got {i}")
        if i > MAX_FEATURE_INDEX:
            raise ParseError(f"{source}:{lineno}: feature index {i} exceeds the limit {MAX_FEATURE_INDEX}")
        feats[i] = v
    return rel, qid, feats, comment


def _read_lines(path: Path, source: str) -> list[str]:
    """The file's lines, newline-translated as text-mode iteration would."""
    with path.open(encoding="utf-8") as fh:
        try:
            return fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source}: not UTF-8 text ({exc.reason})") from None


# deletes the ASCII characters that are neither whitespace nor ':', so what
# is left of a feature section shows how it splits into tokens and fields
_SEPARATORS_ONLY = str.maketrans(
    "", "", "".join(c for c in map(chr, range(128)) if not c.isspace() and c != ":"))


def _parse_dense(lines: list[str]):
    """Rows of a dense file as ``(qids, comments, relevance, features)``.

    A dense file has every non-blank line as ``<rel> qid:<id> 1:<v> ... d:<v>``
    with one d and single spaces between features. One cheap pass per line
    checks that shape; one ``np.loadtxt`` call then reads the numbers, whose
    float and integer syntax is a subset of ``float()`` and ``int()``.
    Returns None for any other file, on any ``loadtxt`` error or warning, for
    a negative grade and for any non-finite value, so that the per-line
    reader parses it and raises its errors.
    """
    qids, comments, numeric = [], [], []
    separators = None
    for line in lines:
        head, _, tail = line.partition("#")
        parts = head.split(None, 2)
        if len(parts) < 2:
            if parts or line.strip():
                return None
            continue
        features = parts[2].rstrip() if len(parts) == 3 else ""
        if separators is None:
            separators = (": " * features.count(":"))[:-1]
        # one ':' per feature token and one space between tokens: Python's
        # split and loadtxt's then see the same tokens, two fields each
        if (not parts[1].startswith("qid:") or len(parts[1]) <= 4
                or features.translate(_SEPARATORS_ONLY) != separators):
            return None
        qids.append(parts[1][4:])
        comments.append(tail.strip() or None)
        numeric.append(f"{parts[0]} {features.replace(':', ' ')}")
    if not qids:
        return None
    dim = (len(separators) + 1) // 2
    if dim > MAX_FEATURE_INDEX:
        return None
    columns = [("rel", np.float64)]
    for i in range(1, dim + 1):
        columns += [(f"i{i}", np.int64), (f"v{i}", np.float64)]
    try:
        # numpy < 2 reads "3.0" in an integer column with only a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(numeric, dtype=np.dtype(columns), comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    table = table.view(np.float64).reshape(len(qids), 2 * dim + 1)
    relevance = table[:, 0]
    indices = table.view(np.int64)[:, 1::2]
    # columns 0, 2, 4, ... hold the grade and the feature values
    if (not (relevance >= 0).all() or not np.isfinite(table[:, ::2]).all()
            or not (indices == np.arange(1, dim + 1)).all()):
        return None
    return qids, comments, relevance, table[:, 2::2]


def _parse_per_line(lines: list[str], source: str):
    """Rows of any file as ``(qids, comments, relevance, features)``, one
    ``_parse_line`` call per non-blank line; missing indices read 0."""
    qids, comments, relevance = [], [], []
    rows, cols, values = [], [], []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        rel, qid, feats, comment = _parse_line(raw, lineno, source)
        rows += [len(qids)] * len(feats)
        cols += feats
        values += feats.values()
        qids.append(qid)
        comments.append(comment)
        relevance.append(rel)
    features = np.zeros((len(qids), max(cols, default=0)))
    features[rows, np.array(cols, dtype=np.int64) - 1] = values
    return qids, comments, np.array(relevance), features


def parse_svmlight(path) -> Dataset:
    """Parse one SVMlight/LETOR file into a Dataset (no splits assigned).

    Feature dimension is the maximum index seen in the file; doc ids come
    from the trailing comment when present, else ``<qid>_<ordinal>``. The
    file is read as UTF-8; bytes that do not decode raise ParseError.

    A dense file, where every line lists the indices ``1..d`` in order with
    one d, is read with one ``np.loadtxt`` call. Any other file, and any
    dense-looking file that fails a check of that reader, is parsed line by
    line, which raises ParseError with the file and line of a malformed
    line. Both readers give the same Dataset, to the bit of every value.
    """
    path = Path(path)
    source = path.name
    lines = _read_lines(path, source)
    qids, comments, relevance, features = _parse_dense(lines) or _parse_per_line(lines, source)
    if not qids:
        raise DatasetError(f"{source}: empty dataset")
    rows: dict[str, list[int]] = {}
    for j, qid in enumerate(qids):
        rows.setdefault(qid, []).append(j)
    groups = {}
    for qid, idx in rows.items():
        doc_ids = [comments[j] or f"{qid}_{k}" for k, j in enumerate(idx)]
        groups[qid] = QueryGroup(qid, doc_ids, features[idx], relevance[idx])
    return Dataset(groups=groups, feature_dim=features.shape[1])


def _pad_features(dataset: Dataset, dim: int, source: str) -> Dataset:
    if dataset.feature_dim > dim:
        raise SchemaError(
            f"{source}: feature dim {dataset.feature_dim} exceeds the train split's {dim}"
        )
    if dataset.feature_dim == dim:
        return dataset
    groups = {}
    for qid, g in dataset.groups.items():
        padded = np.zeros((len(g), dim))
        padded[:, : dataset.feature_dim] = g.features
        groups[qid] = QueryGroup(qid, list(g.doc_ids), padded, g.relevance.copy())
    return Dataset(groups=groups, feature_dim=dim)


def assemble_folds(fold_paths: list[dict]) -> list[Dataset]:
    """Build one Dataset per fold from {train, vali, test} file paths.

    The train split fixes the feature dimension, which must be at least 1;
    the other splits are padded to it and must not exceed it. Query ids must
    not repeat across the three files of a fold.
    """
    datasets = []
    for fold_no, paths in enumerate(fold_paths):
        parsed = {}
        for name, key in (("train", "train"), ("validation", "vali"), ("test", "test")):
            if key not in paths:
                raise SchemaError(f"fold {fold_no}: missing {key!r} path")
            try:
                parsed[name] = parse_svmlight(paths[key])
            except OSError as exc:
                raise SchemaError(f"fold {fold_no}: cannot read {key!r} file: {exc}") from exc
        dim = parsed["train"].feature_dim
        if dim == 0:
            raise SchemaError(f"fold {fold_no}: the train file has no feature values")
        groups: dict[str, QueryGroup] = {}
        splits: dict[str, list[str]] = {}
        for name in ("train", "validation", "test"):
            part = _pad_features(parsed[name], dim, name)
            for qid, g in part.groups.items():
                if qid in groups:
                    raise SchemaError(f"fold {fold_no}: query {qid!r} appears in two splits")
                groups[qid] = g
            splits[name] = list(part.groups)
        datasets.append(Dataset(groups=groups, feature_dim=dim, splits=splits))
    return datasets


def synthesize(
    n_queries: int,
    docs_per_query: int,
    feature_dim: int,
    seed: int,
    graded: bool = False,
) -> Dataset:
    """Deterministic synthetic dataset with a planted linear ranking.

    Features are standard normal; one hidden weight vector scores every
    document, and within each query the top third (by hidden score) is
    relevant. The graded variant grades by quartile instead: top quarter 2,
    next quarter 1, rest 0. A linear scorer can rank this perfectly; the
    hidden vector is the seeded generator's first standard-normal draw of
    length ``feature_dim``, so an oracle scorer is reconstructible.
    """
    if n_queries < 1 or docs_per_query < 1 or feature_dim < 1:
        raise ValueError("n_queries, docs_per_query and feature_dim must all be >= 1")
    rng = np.random.default_rng(seed)
    hidden = rng.standard_normal(feature_dim)
    groups = {}
    width = max(4, len(str(n_queries)))
    for q in range(n_queries):
        qid = f"q{q + 1:0{width}d}"
        features = rng.standard_normal((docs_per_query, feature_dim))
        order = np.argsort(-(features @ hidden), kind="stable")
        relevance = np.zeros(docs_per_query)
        if graded:
            quarter = max(1, round(docs_per_query / 4))
            relevance[order[:quarter]] = 2.0
            relevance[order[quarter : 2 * quarter]] = 1.0
        else:
            relevance[order[: max(1, round(docs_per_query / 3))]] = 1.0
        doc_ids = [f"{qid}_d{j:03d}" for j in range(docs_per_query)]
        groups[qid] = QueryGroup(qid, doc_ids, features, relevance)
    return Dataset(groups=groups, feature_dim=feature_dim)


def _fmt_rel(rel: float) -> str:
    return str(int(rel)) if rel == int(rel) else repr(float(rel))


def write_svmlight(dataset: Dataset, path, split: str | None = None) -> None:
    """Write groups (optionally one split) back to SVMlight lines, densely."""
    path = Path(path)
    with path.open("w") as fh:
        for qid in dataset.query_ids(split):
            g = dataset.groups[qid]
            for j in range(len(g)):
                feats = " ".join(
                    f"{i + 1}:{float(g.features[j, i])!r}" for i in range(dataset.feature_dim)
                )
                fh.write(f"{_fmt_rel(g.relevance[j])} qid:{qid} {feats} # {g.doc_ids[j]}\n")


def write_qrels(dataset: Dataset, path, split: str | None = None) -> None:
    """TREC qrels export: one ``qid 0 docid rel`` line per document."""
    path = Path(path)
    with path.open("w") as fh:
        for qid in dataset.query_ids(split):
            g = dataset.groups[qid]
            for j in range(len(g)):
                fh.write(f"{qid} 0 {g.doc_ids[j]} {_fmt_rel(g.relevance[j])}\n")


def write_stats_json(dataset: Dataset, path) -> None:
    """Query/document counts per split as JSON."""
    import json

    Path(path).write_text(json.dumps(dataset.stats(), indent=2, sort_keys=True) + "\n")
