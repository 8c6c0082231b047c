"""The row-by-row embedding reference the vectorized kernel is held to.

:meth:`HashingEmbedder.embed_all` must match this bit for bit; the
embedding, prep-property and determinism suites and the data-prep kernel
benchmark compare against it.  It takes the embedder as its first
argument, so it also drops in for ``HashingEmbedder.embed_all`` under
``monkeypatch.setattr``.
"""

import numpy as np

from repro.text.embeddings import HashingEmbedder


def embed_all_scalar(embedder: HashingEmbedder, texts) -> np.ndarray:
    """Embed row by row via the scalar :meth:`HashingEmbedder.embed`."""
    rows = [embedder.embed(t) for t in texts]
    if not rows:
        return np.zeros((0, embedder.dim), dtype=np.float64)
    return np.vstack(rows)
