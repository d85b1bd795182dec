"""Covariate-aware topic modeling toolkit for speech corpora."""

from .corpus import (BuildReport, Corpus, CovariateRecord, PreprocessConfig,
                     RawDocument, build_corpus, load_ungdc_layout, tokenize)
from .design import BuiltDesign, build_design
from .effects import (ContrastEstimate, EffectDraws, EffectEstimate,
                      estimate_contrast, estimate_effect)
from .formula import Formula, Term, bind_formula, parse_formula
from .metrics import (FrexResult, ModelQuality, TopicSummary, exclusivity_frex,
                      lift, model_quality, rank_terms, score,
                      semantic_coherence, summarize_topics)
from .report import (PerspectiveContrast, TopicGraph, perspective_contrast,
                     topic_graph, wordcloud_data)
from .search import (CandidatePoint, ModelSearchResult, ols_line,
                     rank_candidates)
from .stm import (DocPosterior, FitConfig, FittedModel, PrevalenceDesign,
                  e_step_doc, fit, init_params, m_step, posterior_covariances,
                  softmax_with_zero)

__version__ = "0.1.0"

__all__ = [
    "BuildReport", "BuiltDesign", "CandidatePoint", "ContrastEstimate",
    "Corpus", "CovariateRecord", "DocPosterior", "EffectDraws", "EffectEstimate",
    "FitConfig", "FittedModel", "Formula", "FrexResult", "ModelQuality",
    "ModelSearchResult", "PerspectiveContrast", "PreprocessConfig",
    "PrevalenceDesign", "RawDocument", "Term", "TopicGraph", "TopicSummary",
    "bind_formula", "build_corpus", "build_design", "e_step_doc",
    "estimate_contrast", "estimate_effect", "exclusivity_frex", "fit",
    "init_params", "lift", "load_ungdc_layout", "m_step", "model_quality",
    "ols_line", "parse_formula", "perspective_contrast", "posterior_covariances",
    "rank_candidates",
    "rank_terms", "score", "semantic_coherence",
    "softmax_with_zero", "summarize_topics", "tokenize", "topic_graph",
    "wordcloud_data",
]
