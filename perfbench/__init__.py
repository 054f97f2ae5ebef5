"""Sweep benchmark for the JETTY reproduction; see README.md."""
