"""Text substrate: term-frequency models and tokenization."""

from repro.text.tokenizer import tokenize
from repro.text.zipf import ZipfMandelbrot

__all__ = ["tokenize", "ZipfMandelbrot"]
