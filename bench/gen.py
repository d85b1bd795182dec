"""Seeded workload generator for the agendascope benchmark.

Renders one draw from the covariate-prevalence topic model's generative
process as a UNGDC-style input directory:

    speeches/{ISO3}_{session}_{year}.txt   one statement per file
    metadata.csv                           the covariate table
    fit_config.json                        run config with a fixed K
    search_config.json                     run config with a K grid
    truth.json                             generating topics, for recovery

The module never imports agendascope, so the inputs for a (workload, seed)
pair stay the same when the program changes.

Topic words are CVCVC pseudo-words over the letters ``bdfgkmnprtvz`` and
``aiou``. No Porter rule matches such a word (no ``e``, ``l``, ``c``, ``s``
or ``y``, and every suffix the rules look for needs one of them or a vowel
where the pattern has a consonant), so each topic word comes through
stemming unchanged and fitted terms map straight back to the truth. Filler
words are English roots with inflections, which give the stemmer real work;
stopwords, digits and punctuation fill the rest of each sentence.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import zlib
from pathlib import Path

import numpy as np

FORMULA = "s(year,df=4) + region + conflict"
FIT_SEED = 20240817  # model seed in the configs; the data carries the workload seed
YEARS = (1970, 2016)
PREVALENCE_SD = 1.0  # per-speech spread of the topic logits around the covariate mean

# Each workload stresses different layers; all six CLI stages run on both.
# speech_search: long speeches (tokenizing, corpus.json) and a six-value K
# grid whose small-K candidates stop on tolerance (EM convergence, coherence).
# fit_k30: short speeches, K=30 for a fixed 8 EM iterations on 2 threads
# (E-step, the large model.json, K=30 effects).
WORKLOADS = {
    "speech_search": {
        "n_docs": 180, "doc_words": 800, "k": 8, "topic_words": 1000,
        "topic_conc": 0.05, "min_doc_freq": 5, "threads": 1,
        "fit": {"max_em_iters": 25, "rel_tol": 1e-5},
        "search": {"k_grid": [4, 6, 8, 10, 12, 14], "max_em_iters": 12,
                   "candidate_rel_tol": 1e-4},
        "effects": {"n_draws": 100, "topics": [0, 1]},
    },
    "fit_k30": {
        "n_docs": 384, "doc_words": 220, "k": 30, "topic_words": 1800,
        "topic_conc": 0.03, "min_doc_freq": 3, "threads": 2,
        "fit": {"max_em_iters": 8, "rel_tol": 1e-9},
        "search": {"k_grid": [4, 5, 6], "max_em_iters": 3},
        "effects": {"n_draws": 200, "topics": [0, 1, 2]},
    },
}

COUNTRIES = [
    ("ARG", "LCN"), ("BRA", "LCN"), ("CHL", "LCN"), ("MEX", "LCN"),
    ("JAM", "LCN"), ("PER", "LCN"), ("COL", "LCN"), ("BOL", "LCN"),
    ("CUB", "LCN"), ("URY", "LCN"), ("IND", "SAS"), ("PAK", "SAS"),
    ("BGD", "SAS"), ("LKA", "SAS"), ("NPL", "SAS"), ("AFG", "SAS"),
    ("BTN", "SAS"), ("NGA", "SSA"), ("KEN", "SSA"), ("GHA", "SSA"),
    ("ETH", "SSA"), ("TZA", "SSA"), ("SEN", "SSA"), ("ZMB", "SSA"),
    ("MLI", "SSA"), ("ZWE", "SSA"), ("UGA", "SSA"), ("AGO", "SSA"),
    ("FRA", "ECS"), ("DEU", "ECS"), ("POL", "ECS"), ("SWE", "ECS"),
    ("TUR", "ECS"), ("UKR", "ECS"), ("GRC", "ECS"), ("BEL", "ECS"),
    ("ITA", "ECS"), ("ESP", "ECS"), ("EGY", "MEA"), ("JOR", "MEA"),
    ("MAR", "MEA"), ("IRQ", "MEA"), ("SAU", "MEA"), ("TUN", "MEA"),
    ("LBN", "MEA"), ("DZA", "MEA"), ("CHN", "EAS"), ("JPN", "EAS"),
    ("IDN", "EAS"), ("PHL", "EAS"), ("VNM", "EAS"), ("FJI", "EAS"),
    ("THA", "EAS"), ("KOR", "EAS"), ("AUS", "EAS"), ("NZL", "EAS"),
    ("USA", "NAC"), ("CAN", "NAC"), ("BHS", "LCN"), ("QAT", "MEA"),
]
REGIONS = ("EAS", "ECS", "LCN", "MEA", "NAC", "SAS", "SSA")

STOPWORDS = """the of and to in a is that for on with as by this we our it be
are have has will all not from at which their its an or was were been these
those they them there than such can more into should would other very
who his her he she any each only""".split()

FILLER_ROOTS = """develop govern establish commit implement strength promot
recogn contribut address achiev ensur continu consider determin express
negoti cooper organ particip stabil mobil nation region intern econom
support protect respect reform resolv regul invest produc export import
finance secur threat defend disarm refug migrat assist relief recover
rebuild restor sustain prosper educat train employ labour market trade
industr agricultur energi environ climat emiss pollut conserv health
vaccin nutrit sanit children women youth equal justic freedom right law
constitut elect democr parliament leadership partnership friend neighbour
border territori sovereign independ peac conflict violenc terror weapon
nuclear treati charter assembl council deleg session committe agenda
program project initi strategi polici priorit challeng opportun progress
growth poverti hunger water forest ocean fisher transport infrastructur
technolog innov communic inform knowledg cultur heritag religion tolerat
dialogu mediat reconcil transit admin coordin monitor report""".split()

FILLER_SUFFIXES = ("", "s", "ed", "ing", "ment", "ments", "ation", "ations",
                   "al", "ally", "ive", "ively", "ness", "ful", "er", "ers",
                   "izing", "ization", "ional", "ity")

_CONSONANTS = "bdfgkmnprtvz"
_VOWELS = "aiou"


def topic_vocabulary(n: int) -> list[str]:
    """The first ``n`` CVCVC pseudo-words in a fixed order."""
    words = []
    c, v = len(_CONSONANTS), len(_VOWELS)
    for j in range(n):
        a, j = j % c, j // c
        b, j = j % v, j // v
        d, j = j % c, j // c
        e, j = j % v, j // v
        f = j % c
        words.append(_CONSONANTS[f] + _VOWELS[e] + _CONSONANTS[d]
                     + _VOWELS[b] + _CONSONANTS[a])
    return words


def filler_vocabulary() -> list[str]:
    return [root + sfx for root in FILLER_ROOTS for sfx in FILLER_SUFFIXES]


def _softmax_pinned(eta: np.ndarray) -> np.ndarray:
    full = np.concatenate([eta, np.zeros((eta.shape[0], 1))], axis=1)
    full -= full.max(axis=1, keepdims=True)
    np.exp(full, out=full)
    return full / full.sum(axis=1, keepdims=True)


def draw(workload: str, seed: int) -> dict:
    """One draw from the generative process: covariates, prevalence and
    per-document token sequences (as vocabulary indices).

    The generating topics and covariate effects are fixed per workload, like
    the standing agendas behind real speeches; the seed draws the speeches.
    """
    spec = WORKLOADS[workload]
    k, n_docs = spec["k"], spec["n_docs"]
    world = np.random.default_rng(zlib.crc32(workload.encode()))
    beta = world.dirichlet(np.full(spec["topic_words"], spec["topic_conc"]), size=k)
    intercept = world.normal(0.0, 0.3, k - 1)
    amp = world.normal(0.0, 0.6, k - 1)
    phase = world.uniform(0.0, 2.0 * math.pi, k - 1)
    region_fx = world.normal(0.0, 0.4, (len(REGIONS), k - 1))
    conflict_fx = world.normal(0.0, 0.4, k - 1)
    conflict_fx[0] = 1.0

    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    years = np.arange(YEARS[0], YEARS[1] + 1)
    cells = rng.choice(len(COUNTRIES) * len(years), size=n_docs, replace=False)
    country = cells // len(years)
    year = years[cells % len(years)]
    region = np.array([REGIONS.index(COUNTRIES[c][1]) for c in country])
    conflict = rng.random(n_docs) < np.where(np.isin(region, [3, 6]), 0.4, 0.2)

    # prevalence: smooth year trend + region shift + conflict shift + noise
    t = (year - YEARS[0]) / (YEARS[1] - YEARS[0])
    eta = (intercept
           + amp * np.sin(2.0 * math.pi * t[:, None] + phase)
           + region_fx[region] + conflict[:, None] * conflict_fx
           + rng.normal(0.0, PREVALENCE_SD, (n_docs, k - 1)))
    theta = _softmax_pinned(eta)

    n_filler = len(FILLER_ROOTS) * len(FILLER_SUFFIXES)
    docs = []
    for d in range(n_docs):
        n = int(spec["doc_words"] * rng.uniform(0.7, 1.3))
        kind = rng.choice(4, size=n, p=[0.45, 0.38, 0.14, 0.03])
        n_topic = int((kind == 0).sum())
        topic_ids = rng.choice(spec["topic_words"], size=n_topic, p=theta[d] @ beta)
        docs.append({"kind": kind, "topic_ids": topic_ids,
                     "stop_ids": rng.integers(0, len(STOPWORDS), int((kind == 1).sum())),
                     "filler_ids": rng.integers(0, n_filler, int((kind == 2).sum())),
                     "numbers": rng.integers(1, 2017, int((kind == 3).sum())),
                     "breaks": rng.random(n)})
    return {"spec": spec, "country": country, "year": year,
            "conflict": conflict, "beta": beta, "docs": docs,
            "covariate_noise": rng.normal(size=(n_docs, 4))}


def _render(doc: dict, topic_words: list[str], fillers: list[str],
            iso3: str, session: int) -> str:
    pools = {0: iter(topic_words[i] for i in doc["topic_ids"]),
             1: iter(STOPWORDS[i] for i in doc["stop_ids"]),
             2: iter(fillers[i] for i in doc["filler_ids"]),
             3: iter(str(v) for v in doc["numbers"])}
    lines = [f"Statement by {iso3} to session {session} of the General Assembly."]
    sentence: list[str] = []
    for kind, u in zip(doc["kind"].tolist(), doc["breaks"].tolist()):
        sentence.append(next(pools[kind]))
        if u < 0.06 and len(sentence) > 6:
            sentence[0] = sentence[0].capitalize()
            lines.append(" ".join(sentence) + ".")
            sentence = []
        elif u > 0.93:
            sentence[-1] += ","
    if sentence:
        sentence[0] = sentence[0].capitalize()
        lines.append(" ".join(sentence) + ".")
    return "\n".join(lines) + "\n"


def _config(spec: dict, fit: dict) -> dict:
    topics = spec["effects"]["topics"]
    return {
        "paths": {"corpus_dir": "speeches", "metadata": "metadata.csv",
                  "out_dir": "out"},
        "preprocess": {"min_doc_freq": spec["min_doc_freq"], "min_term_len": 3},
        "fit": fit,
        "formula": FORMULA,
        "metrics": {"coherence_m": 10, "top_words": 20},
        "effects": {"n_draws": spec["effects"]["n_draws"], "targets": [
            {"covariate": "year", "topics": topics, "grid_points": 25},
            {"covariate": "conflict", "topics": topics, "contrast": [1, 0]}]},
        "report": {"perspectives": [[0, 1]], "wordcloud_topics": [0, 1],
                   "wordcloud_n": 50, "graph_threshold": 0.05},
        "seed": FIT_SEED,
        "deterministic": True,
    }


def write_inputs(workload: str, seed: int, root: Path) -> Path:
    """Write the inputs for (workload, seed) under ``root`` and return the
    directory. Generation is deterministic in (workload, seed)."""
    sample = draw(workload, seed)
    spec = sample["spec"]
    root.mkdir(parents=True, exist_ok=True)
    speeches = root / "speeches"
    speeches.mkdir(exist_ok=True)
    topic_words = topic_vocabulary(spec["topic_words"])
    fillers = filler_vocabulary()
    noise = sample["covariate_noise"]
    rows = ["doc_id,gdp_pc,population,oda,polity,conflict,region"]
    for d, doc in enumerate(sample["docs"]):
        iso3, region = COUNTRIES[sample["country"][d]]
        year = int(sample["year"][d])
        doc_id = f"{iso3}_{year - 1945}_{year}"
        (speeches / f"{doc_id}.txt").write_text(
            _render(doc, topic_words, fillers, iso3, year - 1945), encoding="utf-8")
        gdp = math.exp(8.5 + 1.2 * noise[d, 0])
        pop = math.exp(16.0 + 1.5 * noise[d, 1])
        polity = max(-10, min(10, int(round(3.0 + 6.0 * noise[d, 3]))))
        rows.append(f"{doc_id},{gdp:.2f},{pop:.1f},{1e8 * noise[d, 2]:.2f},"
                    f"{polity},{int(sample['conflict'][d])},{region}")
    (root / "metadata.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    fit = {"k": spec["k"], **spec["fit"]}
    (root / "fit_config.json").write_text(
        json.dumps(_config(spec, fit), indent=2), encoding="utf-8")
    (root / "search_config.json").write_text(
        json.dumps(_config(spec, spec["search"]), indent=2), encoding="utf-8")
    truth = {"k": spec["k"], "vocabulary": topic_words,
             "beta": sample["beta"].tolist()}
    (root / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return root


def generator_digest() -> str:
    """Hash of this file: cached inputs are keyed by it."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]


def cached_inputs(workload: str, seed: int, cache_root: Path) -> Path:
    """Inputs for (workload, seed), generated once and reused."""
    target = cache_root / f"{workload}-{seed}-{generator_digest()}"
    if (target / "COMPLETE").exists():
        return target
    shutil.rmtree(target, ignore_errors=True)
    partial = target.with_name(target.name + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    write_inputs(workload, seed, partial)
    (partial / "COMPLETE").write_text("", encoding="utf-8")
    partial.rename(target)
    return target


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
