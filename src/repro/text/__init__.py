"""Text substrate: term-frequency models and tokenization."""

from repro.text.tokenizer import Tokenizer
from repro.text.zipf import ZipfMandelbrot

__all__ = ["Tokenizer", "ZipfMandelbrot"]
