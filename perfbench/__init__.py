"""Benchmark for the keycontact package; see README.md."""
