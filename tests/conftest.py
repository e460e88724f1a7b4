"""Hypothesis draws the same examples on every run: one profile, derandomized, and no other setting changed."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
