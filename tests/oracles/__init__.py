"""Scalar reference implementations the library's fast paths are checked against."""
