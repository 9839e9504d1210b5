"""Latin treebank engineering: harmonization, standardization,
deduplication, period splits, and tagger evaluation."""

__version__ = "0.1.0"

# The corpus flavors: plain CoNLL-U, and LASLA's export through a column
# mapping. pipeline dispatches them; the CLI offers them without loading it.
FLAVORS = ("ud", "lasla")
