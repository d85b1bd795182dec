"""Corpus ingestion: tokenization, thresholding, covariate joins, layout."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agendascope.corpus import (Corpus, CovariateRecord, PreprocessConfig,
                                RawDocument, build_corpus, load_ungdc_layout,
                                read_metadata, tokenize)
from agendascope.errors import (AllDocumentsEmpty, CorruptArtifact,
                                DuplicateDocId, EmptyDirectory,
                                MetadataParseError, MissingArtifact)
from oracles import build_corpus_reference, tokenize_reference


def cov(doc_id, **kw):
    base = dict(gdp_pc=1000.0, population=1e6, oda=0.0, polity=5,
                conflict=False, region="EAS")
    base.update(kw)
    return CovariateRecord(doc_id=doc_id, **base)


CSR = ("indptr", "indices", "counts")


def doc(doc_id, text, year=1990):
    return RawDocument(doc_id=doc_id, country="AFG", year=year, text=text)


class TestTokenize:
    CFG = PreprocessConfig(min_doc_freq=1)

    def test_reference_example(self):
        # expected stems verified against the published stemmer rules
        assert tokenize("Economic development and trade!", self.CFG) == \
            ["econom", "develop", "trade"]

    def test_empty_input(self):
        assert tokenize("", self.CFG) == []

    def test_all_stopwords(self):
        assert tokenize("the and of", self.CFG) == []

    def test_digits_and_punctuation_stripped(self):
        assert tokenize("1970, (53%) militarization!", self.CFG) == ["militar"]

    def test_min_term_len_applies_to_stem(self):
        # "ties" stems to "ti", below the default length 3
        assert tokenize("ties", self.CFG) == []

    def test_order_preserved(self):
        out = tokenize("peace before development, development before peace",
                       self.CFG)
        assert out == ["peac", "develop", "develop", "peac"]

    def test_stopword_override_replaces_builtin(self):
        cfg = PreprocessConfig(min_doc_freq=1, stopwords=frozenset({"peace"}))
        assert tokenize("the peace treaty", cfg) == ["the", "treati"]


# Letters that collide often, every class of separator, and characters
# whose lowercase or ASCII encoding is not one-for-one.
_TEXT_ALPHABET = "aeinorstyl" + "AEINS" + " \t\n.,;'-!09" + "éßİKﬁſ😀ŁǅΣ"
_TOKENS = st.text(alphabet="aeinorstyl", min_size=1, max_size=5)
# words whose stems collide, stopwords, short stems and a number
_WORDS = ("peace", "peaceful", "develop", "development", "trade", "traded",
          "war", "the", "and", "of", "at", "ties", "x", "2016", "nations")


@st.composite
def _corpora(draw):
    """Documents and covariates with emptied documents, documents without
    a covariate row and covariate rows without a document."""
    n = draw(st.integers(min_value=1, max_value=8))
    texts = [" ".join(draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12)))
             for _ in range(n)]
    has_cov = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    n_unmatched = draw(st.integers(min_value=0, max_value=2))
    order = draw(st.permutations(range(n)))
    docs = [doc(f"d{i}", t, year=1970 + i) for i, t in enumerate(texts)]
    covs = [cov(f"d{i}", polity=i % 11) for i in order if has_cov[i]]
    covs += [cov(f"zz{j}") for j in range(n_unmatched)]
    return docs, covs


class TestTokenizeMatchesReference:
    """``tokenize`` equals the regex and reference-stemmer tokenizer in
    tests/oracles.py, on any text and settings."""

    @given(st.text(alphabet=st.one_of(st.sampled_from(_TEXT_ALPHABET),
                                      st.characters()), max_size=80),
           st.one_of(st.none(), st.frozensets(_TOKENS, max_size=8)),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=300, deadline=None)
    def test_drawn_text_and_settings(self, text, stopwords, min_term_len):
        cfg = PreprocessConfig(min_term_len=min_term_len, stopwords=stopwords)
        assert tokenize(text, cfg) == tokenize_reference(
            text, cfg.stopword_set(), min_term_len)

    @pytest.mark.parametrize("text", ["İstanbul", "\u212aelvin", "ﬁnance ſtate",
                                      "naïve café", "Straße", "a😀b", "ǅemal",
                                      "ΣΙΣ peace", "don't", ""])
    def test_non_ascii_splits_words_as_the_regex_does(self, text):
        cfg = PreprocessConfig(min_term_len=0, stopwords=frozenset())
        assert tokenize(text, cfg) == tokenize_reference(text, frozenset(), 0)


class TestBuildCorpusMatchesReference:
    """``build_corpus`` equals the per-document Counter reference in
    tests/oracles.py: vocabulary, CSR triple, covariates and report."""

    @given(_corpora(), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_drawn_corpora(self, corpus_inputs, min_doc_freq, min_term_len):
        docs, covs = corpus_inputs
        cfg = PreprocessConfig(min_doc_freq=min_doc_freq, min_term_len=min_term_len)
        ref = build_corpus_reference(docs, covs, cfg.stopword_set(),
                                     min_term_len, min_doc_freq)
        if not ref["doc_ids"]:
            with pytest.raises(AllDocumentsEmpty):
                build_corpus(docs, covs, cfg)
            return
        corpus, report = build_corpus(docs, covs, cfg)
        assert corpus.vocabulary == ref["vocabulary"]
        assert corpus.doc_ids == ref["doc_ids"]
        for name in ("indptr", "indices", "counts"):
            got = getattr(corpus, name)
            assert got.dtype == np.int64
            assert got.tolist() == ref[name]
        assert corpus.covariates == ref["covariates"]
        assert corpus.years == ref["years"]
        assert corpus._csr_problem() is None
        assert vars(report) == {key: ref[key] for key in (
            "emptied_docs", "docs_without_covariates", "unmatched_covariates")}


class TestBuildCorpus:
    def test_threshold_boundary(self):
        docs = [doc("a", "peace now"), doc("b", "peace talks"),
                doc("c", "peace accord")]
        covs = [cov("a"), cov("b"), cov("c")]
        corpus, _ = build_corpus(docs, covs, PreprocessConfig(min_doc_freq=2))
        assert "peac" in corpus.vocabulary

    def test_hapax_doc_dropped_and_reported(self):
        docs = [doc("a", "peace peace"), doc("b", "peace zebra"),
                doc("c", "unicorn")]
        covs = [cov("a"), cov("b"), cov("c")]
        corpus, report = build_corpus(docs, covs, PreprocessConfig(min_doc_freq=2))
        assert corpus.doc_ids == ["a", "b"]
        assert report.emptied_docs == ["c"]

    def test_all_documents_empty(self):
        docs = [doc("a", "the and of")]
        with pytest.raises(AllDocumentsEmpty):
            build_corpus(docs, [cov("a")], PreprocessConfig(min_doc_freq=1))

    def test_duplicate_doc_id(self):
        docs = [doc("a", "peace"), doc("a", "war")]
        with pytest.raises(DuplicateDocId):
            build_corpus(docs, [cov("a")], PreprocessConfig(min_doc_freq=1))

    def test_covariate_inner_join(self):
        docs = [doc("a", "peace talks"), doc("b", "peace talks")]
        covs = [cov("a"), cov("zzz")]
        corpus, report = build_corpus(docs, covs, PreprocessConfig(min_doc_freq=1))
        assert corpus.doc_ids == ["a"]
        assert report.docs_without_covariates == ["b"]
        assert report.unmatched_covariates == ["zzz"]

    def test_join_integrity_order(self):
        docs = [doc("b", "peace talks"), doc("a", "peace accord"),
                doc("c", "peace now")]
        covs = [cov("c", polity=3), cov("a", polity=1), cov("b", polity=2)]
        corpus, _ = build_corpus(docs, covs, PreprocessConfig(min_doc_freq=1))
        assert corpus.doc_ids == ["b", "a", "c"]
        assert [r.polity for r in corpus.covariates] == [2, 1, 3]

    def test_count_conservation(self):
        texts = ["peace peace war", "war economy growth growth",
                 "economy peace war growth"]
        docs = [doc(f"d{i}", t) for i, t in enumerate(texts)]
        covs = [cov(f"d{i}") for i in range(3)]
        cfg = PreprocessConfig(min_doc_freq=1)
        corpus, _ = build_corpus(docs, covs, cfg)
        for cts, raw in zip(np.split(corpus.counts, corpus.indptr[1:-1]), texts):
            surviving = tokenize(raw, cfg)
            in_vocab = [t for t in surviving if t in corpus.vocabulary]
            assert int(cts.sum()) == len(in_vocab)

    def test_vocabulary_sorted_unique_threshold(self):
        docs = [doc(f"d{i}", "alpha beta gamma delta") for i in range(3)]
        docs.append(doc("d9", "alpha omega"))
        covs = [cov(d.doc_id) for d in docs]
        corpus, _ = build_corpus(docs, covs, PreprocessConfig(min_doc_freq=3))
        assert corpus.vocabulary == sorted(set(corpus.vocabulary))
        assert np.bincount(corpus.indices, minlength=corpus.n_terms).min() >= 3

    def test_serialization_deterministic_and_round_trips(self, tmp_path):
        docs = [doc("a", "peace talks economy"), doc("b", "economy peace")]
        covs = [cov("a", oda=-5.2), cov("b", polity=None)]
        corpus1, _ = build_corpus(docs, covs, PreprocessConfig(min_doc_freq=1))
        corpus2, _ = build_corpus(docs, covs, PreprocessConfig(min_doc_freq=1))
        blob1 = corpus1.save(tmp_path / "1.json").read_bytes()
        blob2 = corpus2.save(tmp_path / "2.json").read_bytes()
        assert blob1 == blob2
        back = Corpus.load(tmp_path / "1.json")
        assert back.vocabulary == corpus1.vocabulary
        assert back.doc_ids == corpus1.doc_ids
        assert back.covariates == corpus1.covariates
        for a1, a2 in ((back.indptr, corpus1.indptr), (back.indices, corpus1.indices),
                       (back.counts, corpus1.counts)):
            assert np.array_equal(a1, a2)


class TestCsrLayout:
    """The term counts are one CSR triple, in memory and in the three
    ``.npy`` sidecars of corpus.json."""

    DOCS = [(np.array([0, 2, 5]), np.array([1, 4, 2])),
            (np.array([1]), np.array([3])),
            (np.array([0, 1, 3, 4]), np.array([2, 1, 1, 7])),
            (np.array([5]), np.array([1]))]

    def corpus(self):
        ids = [f"d{i}" for i in range(len(self.DOCS))]
        return Corpus.from_docs([f"t{v}" for v in range(6)], ids, self.DOCS,
                                [cov(i) for i in ids], [1970, 1980, 1990, 2000])

    def test_from_docs_is_csr(self):
        corpus = self.corpus()
        assert corpus.indptr.tolist() == [0, 3, 4, 8, 9]
        assert corpus.indices.tolist() == [0, 2, 5, 1, 0, 1, 3, 4, 5]
        assert corpus.counts.tolist() == [1, 4, 2, 3, 2, 1, 1, 7, 1]
        assert {a.dtype for a in (corpus.indptr, corpus.indices, corpus.counts)} == {
            np.dtype(np.int64)}
        assert corpus.term_totals().tolist() == [3, 4, 4, 1, 7, 3]
        for d, (idx, _) in enumerate(self.DOCS):
            row = corpus.indices[corpus.indptr[d]:corpus.indptr[d + 1]]
            assert row.tolist() == idx.tolist()

    def test_save_load_round_trip(self, tmp_path):
        corpus = self.corpus()
        path = corpus.save(tmp_path / "corpus.json")
        obj = json.loads(path.read_text())
        assert set(obj) == {"vocabulary", "docs", "covariates"}
        assert [d["id"] for d in obj["docs"]] == corpus.doc_ids
        assert [d["year"] for d in obj["docs"]] == corpus.years
        sidecars = Corpus.sidecar_paths(path)
        assert sidecars == {key: tmp_path / f"corpus.{key}.npy" for key in CSR}
        for key in CSR:
            stored = np.load(sidecars[key], allow_pickle=False)
            assert stored.dtype == np.uint8
            assert stored.tolist() == getattr(corpus, key).tolist()
        back = Corpus.load(path)
        for key in CSR:
            assert getattr(back, key).dtype == np.int64
            assert np.array_equal(getattr(back, key), getattr(corpus, key))
        assert (back.vocabulary, back.doc_ids, back.years, back.covariates) == (
            corpus.vocabulary, corpus.doc_ids, corpus.years, corpus.covariates)

    def test_two_saves_write_identical_bytes(self, tmp_path):
        corpus = self.corpus()
        path = corpus.save(tmp_path / "corpus.json")
        files = [path, *Corpus.sidecar_paths(path).values()]
        first = [f.read_bytes() for f in files]
        corpus.save(path)
        assert [f.read_bytes() for f in files] == first

    @pytest.mark.parametrize("key, value, dtype", [
        ("counts", 300, np.uint16),
        ("indices", 70_000, np.uint32),
    ])
    def test_dtype_narrows_as_data_demands(self, tmp_path, key, value, dtype):
        corpus = self.corpus()
        getattr(corpus, key)[-1] = value
        corpus.vocabulary = [f"t{v}" for v in range(70_001)]
        path = corpus.save(tmp_path / "corpus.json")
        stored = np.load(Corpus.sidecar_paths(path)[key], allow_pickle=False)
        assert stored.dtype == dtype and stored[-1] == value
        back = Corpus.load(path)
        for name in CSR:
            assert getattr(back, name).dtype == np.int64
            assert np.array_equal(getattr(back, name), getattr(corpus, name))

    @pytest.mark.parametrize("key", CSR)
    def test_missing_sidecar_is_missing_artifact(self, tmp_path, key):
        path = self.corpus().save(tmp_path / "corpus.json")
        sidecar = Corpus.sidecar_paths(path)[key]
        sidecar.unlink()
        with pytest.raises(MissingArtifact) as err:
            Corpus.load(path)
        assert err.value.stage == "ingest"
        assert err.value.path == str(sidecar)

    @pytest.mark.parametrize("key", CSR)
    @pytest.mark.parametrize("write, reason", [
        (lambda f, a: f.write_bytes(f.read_bytes()[:-1]), "could only read"),
        (lambda f, a: f.write_bytes(f.read_bytes()[:40]), "EOF"),
        (lambda f, a: np.save(f, a.astype(np.float64)), "must be integers, not float64"),
        (lambda f, a: np.save(f, a.reshape(1, -1)), "must be 1-D, not 2-D"),
        (lambda f, a: np.save(f, np.array(a.tolist(), dtype=object), allow_pickle=True),
         "Object arrays cannot be loaded"),
        (lambda f, a: f.write_text(json.dumps(a.tolist())), "magic string"),
    ], ids=["truncated_data", "truncated_header", "float", "2d", "pickled", "json"])
    def test_bad_sidecar_is_corrupt(self, tmp_path, key, write, reason):
        corpus = self.corpus()
        path = corpus.save(tmp_path / "corpus.json")
        sidecar = Corpus.sidecar_paths(path)[key]
        write(sidecar, getattr(corpus, key))
        with pytest.raises(CorruptArtifact) as err:
            Corpus.load(path)
        assert err.value.path == str(sidecar)
        assert reason in err.value.reason

    def test_subset(self):
        sub = self.corpus().subset(np.array([2, 0]))
        expected = Corpus.from_docs(sub.vocabulary, ["d2", "d0"],
                                    [self.DOCS[2], self.DOCS[0]],
                                    [cov("d2"), cov("d0")], [1990, 1970])
        assert sub.doc_ids == ["d2", "d0"] and sub.years == [1990, 1970]
        assert sub.covariates == expected.covariates
        for key in ("indptr", "indices", "counts"):
            assert np.array_equal(getattr(sub, key), getattr(expected, key))

    def test_subset_of_every_row_shares_the_arrays(self):
        corpus = self.corpus()
        sub = corpus.subset(np.arange(corpus.n_docs))
        for key in ("indptr", "indices", "counts"):
            assert np.shares_memory(getattr(sub, key), getattr(corpus, key))
            assert np.array_equal(getattr(sub, key), getattr(corpus, key))
        assert (sub.vocabulary, sub.doc_ids, sub.years, sub.covariates) == (
            corpus.vocabulary, corpus.doc_ids, corpus.years, corpus.covariates)

    @pytest.mark.parametrize("rows", [[0, 1, 2], [1, 0, 2, 3]])
    def test_proper_or_reordered_subset_copies(self, rows):
        corpus = self.corpus()
        sub = corpus.subset(rows)
        assert sub.doc_ids == [corpus.doc_ids[i] for i in rows]
        for key in ("indices", "counts"):
            assert not np.shares_memory(getattr(sub, key), getattr(corpus, key))

    def test_empty_subset(self):
        sub = self.corpus().subset([])
        assert sub.n_docs == 0 and sub.n_terms == 6
        assert sub.indptr.tolist() == [0]
        assert sub.indices.dtype == sub.counts.dtype == np.int64
        assert sub.indices.size == sub.counts.size == 0
        assert sub.term_totals().tolist() == [0] * 6

    @pytest.mark.parametrize("edit, reason", [
        (lambda o: o.pop("vocabulary"), "missing key 'vocabulary'"),
        (lambda o: o["docs"][0].pop("id"), "missing key 'id'"),
        (lambda o: o.update(indptr=[0, 3, 4, 8]), "indptr has shape (4,) for 4 docs"),
        (lambda o: o.update(indptr=[1, 3, 4, 8, 9]), "indptr must start at 0"),
        (lambda o: o.update(indptr=[0, 4, 3, 8, 9]), "indptr must start at 0"),
        (lambda o: o.update(indptr=[0, 3, 4, 8, 8]), "indptr must start at 0"),
        (lambda o: o["counts"].pop(), "indices and counts must be flat lists"),
        (lambda o: o["indices"].__setitem__(2, 6), "a term index lies outside [0, 6)"),
        (lambda o: o["indices"].__setitem__(2, -1), "a term index lies outside [0, 6)"),
        (lambda o: o["counts"].__setitem__(2, 0), "a count is not positive"),
        (lambda o: o["counts"].__setitem__(0, 2.7), "counts must be integers"),
        (lambda o: o["indices"].__setitem__(1, 1.9), "indices must be integers"),
        (lambda o: o.update(indptr=[0, 3, 4, 8, 9.0]), "indptr must be integers"),
        (lambda o: o["indices"].__setitem__(1, 5), "not strictly ascending"),
        (lambda o: o["indices"].__setitem__(5, 0), "not strictly ascending"),
        (lambda o: o["covariates"].pop(), "3 covariate records for 4 docs"),
        (lambda o: o["covariates"].reverse(),
         "covariate record 0 is for 'd3', not document 'd0'"),
        (lambda o: o["covariates"][0].pop("region"), "region"),
    ])
    def test_malformed_file_is_corrupt(self, tmp_path, edit, reason):
        """``edit`` changes the JSON value with the CSR arrays added as
        lists; each array goes back to its sidecar through ``np.save``, and
        the error names the one file the edit changed."""
        path = self.corpus().save(tmp_path / "corpus.json")
        sidecars = Corpus.sidecar_paths(path)
        obj = json.loads(path.read_text())
        saved = {key: np.load(sidecars[key]).tolist() for key in CSR}
        obj.update(copy.deepcopy(saved))
        edit(obj)
        [edited] = [sidecars[key] for key in CSR if repr(obj[key]) != repr(saved[key])] or [path]
        for key in CSR:
            np.save(sidecars[key], np.array(obj.pop(key)))
        path.write_text(json.dumps(obj))
        with pytest.raises(CorruptArtifact) as err:
            Corpus.load(path)
        assert err.value.path == str(edited)
        assert reason in err.value.reason


class TestCovariateRecord:
    def test_polity_range(self):
        with pytest.raises(ValueError):
            cov("a", polity=12)

    def test_negative_oda_allowed(self):
        assert cov("a", oda=-1e9).oda == -1e9

    def test_region_enum(self):
        with pytest.raises(ValueError):
            cov("a", region="XXX")

    def test_missing_fields_allowed(self):
        record = cov("a", gdp_pc=None, population=None, oda=None,
                     polity=None, conflict=None)
        assert record.gdp_pc is None and record.conflict is None


class TestUngdcLayout:
    def _write_meta(self, path, rows):
        header = "doc_id,gdp_pc,population,oda,polity,conflict,region"
        path.write_text("\n".join([header] + rows) + "\n")

    def test_name_parse(self, tmp_path):
        (tmp_path / "AFG_25_1970.txt").write_text("Peace and development.")
        meta = tmp_path / "meta.csv"
        self._write_meta(meta, ["AFG_25_1970,250.0,11000000,1e8,-7,0,SAS"])
        docs, covs, skipped = load_ungdc_layout(tmp_path, meta)
        assert len(docs) == 1 and not skipped
        assert docs[0].doc_id == "AFG_25_1970"
        assert docs[0].country == "AFG"
        assert docs[0].year == 1970
        assert covs[0].polity == -7

    def test_nonconforming_file_skipped(self, tmp_path):
        (tmp_path / "AFG_25_1970.txt").write_text("Peace.")
        (tmp_path / "notes.txt").write_text("scratch")
        meta = tmp_path / "meta.csv"
        self._write_meta(meta, ["AFG_25_1970,,,,,0,SAS"])
        docs, _, skipped = load_ungdc_layout(tmp_path, meta)
        assert [d.doc_id for d in docs] == ["AFG_25_1970"]
        assert skipped and skipped[0][0] == "notes.txt"

    def test_polity_out_of_range_is_fatal(self, tmp_path):
        (tmp_path / "AFG_25_1970.txt").write_text("Peace.")
        meta = tmp_path / "meta.csv"
        self._write_meta(meta, ["AFG_25_1970,,,,12,0,SAS"])
        with pytest.raises(MetadataParseError) as err:
            load_ungdc_layout(tmp_path, meta)
        assert err.value.row == 2

    def test_empty_directory(self, tmp_path):
        meta = tmp_path / "meta.csv"
        self._write_meta(meta, [])
        with pytest.raises(EmptyDirectory, match="no .txt files under"):
            load_ungdc_layout(tmp_path, meta)

    def test_speeches_in_subfolders_named(self, tmp_path):
        meta = tmp_path / "meta.csv"
        self._write_meta(meta, [])
        for session, name in (("25", "AFG_25_1970.txt"), ("25", "ALB_25_1970.txt"),
                              ("26/extra", "AFG_26_1971.txt")):
            (tmp_path / "speeches" / session).mkdir(parents=True, exist_ok=True)
            (tmp_path / "speeches" / session / name).write_text("Peace.")
        with pytest.raises(EmptyDirectory) as err:
            load_ungdc_layout(tmp_path / "speeches", meta)
        assert "but 3 in its subfolders" in str(err.value)
        assert "must be flat" in str(err.value)

    def test_missing_values_parsed_as_none(self, tmp_path):
        meta = tmp_path / "meta.csv"
        self._write_meta(meta, ["X_1_1990,,,,,,LCN"])
        records = read_metadata(meta)
        assert records[0].gdp_pc is None
        assert records[0].conflict is None
        assert records[0].region == "LCN"

    def test_bad_conflict_value(self, tmp_path):
        meta = tmp_path / "meta.csv"
        self._write_meta(meta, ["X_1_1990,,,,,2,LCN"])
        with pytest.raises(MetadataParseError):
            read_metadata(meta)

    def test_year_out_of_range_collected(self, tmp_path):
        (tmp_path / "AFG_25_1969.txt").write_text("Too early.")
        (tmp_path / "AFG_25_1970.txt").write_text("Fine.")
        meta = tmp_path / "meta.csv"
        self._write_meta(meta, ["AFG_25_1970,,,,,0,SAS"])
        docs, _, skipped = load_ungdc_layout(tmp_path, meta)
        assert [d.doc_id for d in docs] == ["AFG_25_1970"]
        assert skipped[0][0] == "AFG_25_1969.txt"
