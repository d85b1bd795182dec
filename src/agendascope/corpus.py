"""Corpus ingestion: tokenize speech files, join covariates, build the
sparse document-term corpus that every downstream stage consumes."""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, field, replace
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

from . import porter
from .errors import (AllDocumentsEmpty, CorruptArtifact, DuplicateDocId,
                     EmptyDirectory, MetadataParseError)
from .jsonio import (load_sidecar, malformed_as_corrupt, read_json, save_sidecar,
                     sidecar_path, write_json)

logger = logging.getLogger(__name__)

REGIONS = ("EAS", "ECS", "LCN", "MEA", "NAC", "SAS", "SSA")
YEAR_RANGE = (1970, 2016)

_FILENAME_RE = re.compile(r"^([A-Z]{3})_(\d+)_(\d{4})$")

_METADATA_COLUMNS = ("doc_id", "gdp_pc", "population", "oda", "polity",
                     "conflict", "region")


@cache
def _builtin_stopwords() -> frozenset[str]:
    text = resources.files("agendascope").joinpath("data/stopwords_en.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


@dataclass(frozen=True)
class PreprocessConfig:
    """Tokenization and vocabulary-threshold settings."""

    min_doc_freq: int = 10
    min_term_len: int = 3
    stopwords: frozenset[str] | None = None  # None selects the built-in list

    def stopword_set(self) -> frozenset[str]:
        return self.stopwords if self.stopwords is not None else _builtin_stopwords()

    @staticmethod
    def load_stopword_file(path: str | Path) -> frozenset[str]:
        return frozenset(w.strip().lower() for w in Path(path).read_text("utf-8").split() if w.strip())


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    country: str
    year: int
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError(f"document {self.doc_id!r}: empty text")
        if not YEAR_RANGE[0] <= self.year <= YEAR_RANGE[1]:
            raise ValueError(
                f"document {self.doc_id!r}: year {self.year} outside "
                f"{YEAR_RANGE[0]}-{YEAR_RANGE[1]}")


@dataclass(frozen=True)
class CovariateRecord:
    doc_id: str
    gdp_pc: float | None
    population: float | None
    oda: float | None
    polity: int | None
    conflict: bool | None
    region: str

    def __post_init__(self):
        if self.polity is not None and not -10 <= self.polity <= 10:
            raise ValueError(f"polity {self.polity} outside [-10, 10]")
        if self.gdp_pc is not None and self.gdp_pc < 0:
            raise ValueError(f"gdp_pc {self.gdp_pc} negative")
        if self.population is not None and self.population <= 0:
            raise ValueError(f"population {self.population} not positive")
        if self.region not in REGIONS:
            raise ValueError(f"region {self.region!r} not one of {REGIONS}")


@dataclass
class BuildReport:
    """What build_corpus dropped and why."""

    emptied_docs: list[str] = field(default_factory=list)
    docs_without_covariates: list[str] = field(default_factory=list)
    unmatched_covariates: list[str] = field(default_factory=list)


def csr_take(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, take) for the rows ``rows`` of a CSR layout: each row's
    entry count, and the positions of those rows' entries in ``indices``
    and ``counts``, row after row in the order of ``rows``."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    offsets = np.cumsum(lengths) - lengths
    return lengths, np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


@dataclass
class Corpus:
    """Immutable preprocessed corpus.

    The term counts are one CSR triple: document ``d``'s term indices,
    ascending, are ``indices[indptr[d]:indptr[d + 1]]`` and ``counts`` holds
    their counts (all int64); ``covariates[d]`` corresponds to ``doc_ids[d]``.
    """

    vocabulary: list[str]
    doc_ids: list[str]
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    covariates: list[CovariateRecord]
    years: list[int]

    @classmethod
    def from_docs(cls, vocabulary: list[str], doc_ids: list[str], docs: list,
                  covariates: list[CovariateRecord], years: list[int]) -> "Corpus":
        """Corpus from per-document (term indices ascending, counts) pairs."""
        return cls(vocabulary=vocabulary, doc_ids=doc_ids,
                   indptr=np.cumsum([0] + [len(idx) for idx, _ in docs], dtype=np.int64),
                   indices=np.concatenate([idx for idx, _ in docs] or [[]]).astype(np.int64),
                   counts=np.concatenate([cts for _, cts in docs] or [[]]).astype(np.int64),
                   covariates=covariates, years=years)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def n_terms(self) -> int:
        return len(self.vocabulary)

    def term_totals(self) -> np.ndarray:
        """Corpus-wide count of each term."""
        return np.bincount(self.indices, self.counts, self.n_terms).astype(np.int64)

    def presence_matrix(self) -> np.ndarray:
        """Dense boolean D x V term-presence matrix."""
        out = np.zeros((self.n_docs, self.n_terms), dtype=bool)
        out[np.repeat(np.arange(self.n_docs), np.diff(self.indptr)), self.indices] = True
        return out

    def subset(self, indices: np.ndarray | list[int]) -> "Corpus":
        """Row subset sharing the vocabulary (used for per-analysis drops).
        Every row in order gives a corpus that shares the CSR arrays."""
        rows = np.asarray(indices, dtype=np.int64)
        if np.array_equal(rows, np.arange(self.n_docs)):
            return replace(self)
        lengths, take = csr_take(self.indptr, rows)
        indptr = np.cumsum(np.concatenate([[0], lengths]), dtype=np.int64)
        return Corpus(vocabulary=self.vocabulary,
                      doc_ids=[self.doc_ids[i] for i in rows],
                      indptr=indptr, indices=self.indices[take],
                      counts=self.counts[take],
                      covariates=[self.covariates[i] for i in rows],
                      years=[self.years[i] for i in rows])

    def covariate_table(self) -> dict[str, list]:
        """Column view of covariates plus doc year, for design building."""
        table: dict[str, list] = {k: [] for k in
                                  ("doc_id", "gdp_pc", "population", "oda",
                                   "polity", "conflict", "region", "year")}
        for rec, year in zip(self.covariates, self.years):
            d = {**vars(rec), "year": year,
                 "conflict": None if rec.conflict is None else int(rec.conflict)}
            for k in table:
                table[k].append(d[k])
        return table

    # -- serialization -----------------------------------------------------

    CSR_ARRAYS = ("indptr", "indices", "counts")

    @classmethod
    def sidecar_paths(cls, path: str | Path) -> dict[str, Path]:
        """The ``.npy`` sidecars that hold the CSR triple of the corpus at
        ``path``: ``corpus.json``'s ``indices`` are in ``corpus.indices.npy``."""
        return {name: sidecar_path(path, name) for name in cls.CSR_ARRAYS}

    def save(self, path: str | Path) -> Path:
        """Write the vocabulary, documents and covariates to ``path`` as
        JSON and the CSR triple to its :meth:`sidecar_paths`; returns
        ``path``."""
        path = write_json(path, {
            "vocabulary": self.vocabulary,
            "docs": [{"id": i, "year": y} for i, y in zip(self.doc_ids, self.years)],
            "covariates": self.covariates})
        for name in self.CSR_ARRAYS:
            save_sidecar(path, name, getattr(self, name))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Corpus":
        obj = read_json(path)
        csr = {name: load_sidecar(path, name, "ingest")
               for name in cls.CSR_ARRAYS}
        with malformed_as_corrupt(path):
            corpus = cls(vocabulary=list(obj["vocabulary"]),
                         doc_ids=[entry["id"] for entry in obj["docs"]], **csr,
                         covariates=[CovariateRecord(**c) for c in obj["covariates"]],
                         years=[int(entry["year"]) for entry in obj["docs"]])
        problem = corpus._csr_problem()
        if problem is not None:
            name, reason = problem
            raise CorruptArtifact(str(path if name is None else sidecar_path(path, name)),
                                  reason)
        return corpus

    def _csr_problem(self) -> tuple[str | None, str] | None:
        """Why the counts and covariates do not fit the documents, with the
        CSR array at fault (None for the covariates), or None."""
        indptr, indices, n = self.indptr, self.indices, self.n_docs
        if indptr.shape != (n + 1,):
            return "indptr", f"indptr has shape {indptr.shape} for {n} docs; expected ({n + 1},)"
        if indices.ndim != 1 or self.counts.shape != indices.shape:
            return "counts", "indices and counts must be flat lists of one length"
        if indptr[0] != 0 or indptr[-1] != indices.size or (np.diff(indptr) < 0).any():
            return "indptr", "indptr must start at 0, never decrease and end at len(indices)"
        if indices.size and not 0 <= indices.min() <= indices.max() < self.n_terms:
            return "indices", f"a term index lies outside [0, {self.n_terms})"
        row_start = np.zeros(indices.size + 1, dtype=bool)
        row_start[indptr] = True
        if ((indices[1:] <= indices[:-1]) & ~row_start[1:-1]).any():
            return "indices", "a document's term indices are not strictly ascending"
        if (self.counts <= 0).any():
            return "counts", "a count is not positive"
        if len(self.covariates) != n:
            return None, f"{len(self.covariates)} covariate records for {n} docs"
        return None


# The word rule is the regex [a-z]+ over the lowercased text. Encoding that
# text as ASCII turns every other character into one "?", and this table
# turns every byte but a-z into a space, so str.split() gives the same words.
_NON_LETTER_TO_SPACE = bytes(c if 0x61 <= c <= 0x7A else 0x20 for c in range(256))


def _words(text: str) -> list[str]:
    """The runs of a-z in the lowercased text, in order."""
    return (text.lower().encode("ascii", "replace")
            .translate(_NON_LETTER_TO_SPACE).decode("ascii").split())


class _TermMemo(dict):
    """token -> term id: the index in ``terms`` of the token's Porter stem,
    or 0, where ``terms`` holds None, for a stopword or a stem shorter than
    ``min_term_len``. Filled on a miss, so each distinct token is stemmed
    once per process and settings, and each distinct stem gets one id."""

    def __init__(self, stopwords: frozenset[str], min_term_len: int):
        super().__init__()
        self.stopwords = stopwords
        self.min_term_len = min_term_len
        self.terms: list[str | None] = [None]
        self.term_ids: dict[str, int] = {}  # the inverse of terms

    def __missing__(self, token: str) -> int:
        term_id = 0
        if token not in self.stopwords:
            term = porter.stem(token)
            if len(term) >= self.min_term_len:
                term_id = self.term_ids.get(term)
                if term_id is None:
                    term_id = self.term_ids[term] = len(self.terms)
                    self.terms.append(term)
        self[token] = term_id
        return term_id


@cache
def _term_memo(stopwords: frozenset[str], min_term_len: int) -> _TermMemo:
    return _TermMemo(stopwords, min_term_len)


def tokenize(text: str, config: PreprocessConfig, *, ids: bool = False):
    """Lowercase, strip punctuation/digits, drop stopwords, Porter-stem.

    Stems shorter than ``min_term_len`` are removed; order is preserved.
    Returns the terms as strings, or with ``ids`` as an int32 array of
    their ids, which index the ``terms`` of the process's memo for
    ``config``.
    """
    memo = _term_memo(config.stopword_set(), config.min_term_len)
    words = _words(text)
    if ids:
        term_ids = np.fromiter(map(memo.__getitem__, words), np.int32, len(words))
        return term_ids[term_ids > 0]
    # terms[0] is None, so filter(None) drops exactly the dropped tokens
    return list(filter(None, map(memo.terms.__getitem__, map(memo.__getitem__, words))))


def _count_terms(docs: list[RawDocument], config: PreprocessConfig,
                 ) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(each document's distinct term count, term ids, counts): one
    (document, term) pair per entry, document after document, never one
    entry per token. Ids and counts are int32 to halve the pairs' memory."""
    doc_terms: list[np.ndarray] = []
    doc_counts: list[np.ndarray] = []
    for doc in docs:
        uniq, cts = np.unique(tokenize(doc.text, config, ids=True), return_counts=True)
        doc_terms.append(uniq)
        doc_counts.append(cts.astype(np.int32))
    empty = [np.empty(0, np.int32)]
    return ([t.size for t in doc_terms], np.concatenate(doc_terms or empty),
            np.concatenate(doc_counts or empty))


def build_corpus(docs: list[RawDocument], covs: list[CovariateRecord],
                 config: PreprocessConfig) -> tuple[Corpus, BuildReport]:
    """Tokenize documents, apply the document-frequency threshold, and
    inner-join covariates by doc_id.

    Documents emptied by preprocessing or lacking a covariate row are
    dropped and listed in the returned report.
    """
    seen: set[str] = set()
    for doc in docs:
        if doc.doc_id in seen:
            raise DuplicateDocId(doc.doc_id)
        seen.add(doc.doc_id)
    cov_by_id: dict[str, CovariateRecord] = {}
    for rec in covs:
        if rec.doc_id in cov_by_id:
            raise DuplicateDocId(rec.doc_id)
        cov_by_id[rec.doc_id] = rec

    n_distinct, pair_term, pair_count = _count_terms(docs, config)
    terms = _term_memo(config.stopword_set(), config.min_term_len).terms
    doc_freq = np.bincount(pair_term, minlength=len(terms))
    # the memo also holds terms of earlier builds, in none of these documents
    vocab_terms = sorted(np.flatnonzero(doc_freq >= max(config.min_doc_freq, 1)).tolist(),
                         key=terms.__getitem__)
    vocabulary = [terms[i] for i in vocab_terms]
    vocab_id = np.full(len(terms), -1, dtype=np.int32)
    vocab_id[vocab_terms] = np.arange(len(vocabulary))
    pair_term = vocab_id[pair_term]
    pair_doc = np.repeat(np.arange(len(docs), dtype=np.int32), n_distinct)
    in_vocab = pair_term >= 0
    row_size = np.bincount(pair_doc[in_vocab], minlength=len(docs))

    report = BuildReport()
    kept_rows: list[int] = []
    kept_covs: list[CovariateRecord] = []
    for row, (doc, n) in enumerate(zip(docs, row_size.tolist())):
        if n == 0:
            report.emptied_docs.append(doc.doc_id)
            continue
        rec = cov_by_id.get(doc.doc_id)
        if rec is None:
            report.docs_without_covariates.append(doc.doc_id)
            continue
        kept_rows.append(row)
        kept_covs.append(rec)

    report.unmatched_covariates = sorted(set(cov_by_id) - {rec.doc_id for rec in kept_covs})
    if not kept_rows:
        raise AllDocumentsEmpty("no document survived preprocessing")
    kept_doc = np.zeros(len(docs), dtype=bool)
    kept_doc[kept_rows] = True
    keep = in_vocab & kept_doc[pair_doc]
    pair_doc, pair_term, pair_count = pair_doc[keep], pair_term[keep], pair_count[keep]
    # each (document, term) pair is unique, so its key sorts without ties;
    # at UNGDC size (7.7 M pairs, 2-vCPU x86-64 VM) this took 0.25 s where
    # np.lexsort of (term, document) took 2 s
    order = np.argsort(pair_doc.astype(np.int64) * len(vocabulary) + pair_term)
    corpus = Corpus(vocabulary=vocabulary,
                    doc_ids=[docs[row].doc_id for row in kept_rows],
                    indptr=np.concatenate([[0], np.cumsum(row_size[kept_rows])]).astype(np.int64),
                    indices=pair_term[order].astype(np.int64),
                    counts=pair_count[order].astype(np.int64),
                    covariates=kept_covs, years=[docs[row].year for row in kept_rows])
    return corpus, report


def _parse_optional(raw: str, kind, what: str, row: int):
    raw = raw.strip()
    if raw == "":
        return None
    try:
        return kind(raw)
    except ValueError:
        raise MetadataParseError(row, f"bad {what}: {raw!r}") from None


def read_metadata(path: str | Path) -> list[CovariateRecord]:
    """Parse the covariate table (CSV, empty field = missing)."""
    records: list[CovariateRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in _METADATA_COLUMNS if c not in header]
        if missing:
            raise MetadataParseError(1, f"missing columns: {', '.join(missing)}")
        for row_no, row in enumerate(reader, start=2):
            doc_id = (row["doc_id"] or "").strip()
            if not doc_id:
                raise MetadataParseError(row_no, "empty doc_id")
            conflict_raw = (row["conflict"] or "").strip()
            if conflict_raw not in ("", "0", "1"):
                raise MetadataParseError(row_no, f"conflict must be 0 or 1, got {conflict_raw!r}")
            region = (row["region"] or "").strip()
            try:
                rec = CovariateRecord(
                    doc_id=doc_id,
                    gdp_pc=_parse_optional(row["gdp_pc"], float, "gdp_pc", row_no),
                    population=_parse_optional(row["population"], float, "population", row_no),
                    oda=_parse_optional(row["oda"], float, "oda", row_no),
                    polity=_parse_optional(row["polity"], int, "polity", row_no),
                    conflict=None if conflict_raw == "" else conflict_raw == "1",
                    region=region)
            except ValueError as exc:
                raise MetadataParseError(row_no, str(exc)) from None
            records.append(rec)
    return records


def load_ungdc_layout(directory: str | Path, meta: str | Path,
                      ) -> tuple[list[RawDocument], list[CovariateRecord], list[tuple[str, str]]]:
    """Load speeches laid out as ``{ISO3}_{session}_{year}.txt`` plus a
    covariate CSV.

    Non-conforming or unreadable files are skipped, not fatal; they come
    back as (filename, reason) pairs.
    """
    directory = Path(directory)
    files = sorted(p for p in directory.glob("*.txt") if p.is_file())
    if not files:
        raise EmptyDirectory(f"no .txt files under {directory}")
    docs: list[RawDocument] = []
    skipped: list[tuple[str, str]] = []
    for path in files:
        match = _FILENAME_RE.match(path.stem)
        if match is None:
            logger.warning("skipping non-conforming file name: %s", path.name)
            skipped.append((path.name, "file name does not match {ISO3}_{session}_{year}.txt"))
            continue
        country, _session, year = match.group(1), match.group(2), int(match.group(3))
        try:
            text = path.read_text(encoding="utf-8")
            docs.append(RawDocument(doc_id=path.stem, country=country,
                                    year=year, text=text))
        except (ValueError, UnicodeDecodeError) as exc:
            logger.warning("skipping %s: %s", path.name, exc)
            skipped.append((path.name, str(exc)))
    covs = read_metadata(meta)
    return docs, covs, skipped
