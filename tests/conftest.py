from pathlib import Path

import pytest

from latintb.dedup import find_duplicates
from latintb.metadata import load_metadata
from latintb.pipeline import convert_corpus, load_corpus
from latintb.reports import read_table

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def ud_corpus():
    sentences, _ = load_corpus(FIXTURES / "ud", "ud")
    return sentences


@pytest.fixture(scope="session")
def lasla_corpus():
    sentences, _ = load_corpus(FIXTURES / "lasla", "lasla")
    return sentences


@pytest.fixture(scope="session")
def metadata_table():
    return load_metadata(FIXTURES / "metadata.tsv")


@pytest.fixture(scope="session")
def converted_ud(ud_corpus):
    return convert_corpus(ud_corpus, "ud")


@pytest.fixture(scope="session")
def converted_lasla(lasla_corpus):
    return convert_corpus(lasla_corpus, "lasla")


@pytest.fixture(scope="session")
def duplicate_pairs(ud_corpus, lasla_corpus):
    return find_duplicates(ud_corpus, lasla_corpus)


@pytest.fixture(scope="session")
def planted_duplicates():
    return read_table(FIXTURES / "planted_duplicates.tsv", ("sent_a", "sent_b", "kind"), tuple)
