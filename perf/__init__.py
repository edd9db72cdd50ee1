"""The repository's benchmark (see perf/README.md); imports only the public ``repro`` API."""
