from __future__ import annotations

import pytest

from cirbench import CorpusConfig, generate_corpus


@pytest.fixture(scope="session")
def small_config() -> CorpusConfig:
    return CorpusConfig(
        seed=7,
        doc_counts={"normative": 2, "technical": 2, "transactional": 2},
        query_count=40,
    )


@pytest.fixture(scope="session")
def small_corpus(small_config):
    return generate_corpus(small_config)
