"""Retrieval-augmented few-shot table-to-text generation.

A lexical index proposes candidate sentences for a table, a trainable
selector reranks them into prototypes, and a small conditional generator
learns to describe tables with the prototypes as guidance.
"""

from . import blas  # noqa: F401 - sets numpy's BLAS to one thread for the process

__version__ = "0.1.0"
