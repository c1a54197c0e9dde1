"""Loader for the public citation benchmark layout (content + cites files).

The content file holds one line per document: its id, its word attributes
(numbers, 0/1 in the public data) and its class label, tab-separated. The
cites file holds one pair of document ids per line. Both are read by
``io._read_table``, so a malformed line, a content file with no word
columns, or a document id listed twice, raises one ``ManifestError`` naming
``path:line[:col]``. A citation of a document not in the content file, and
a document citing itself, are dropped.

Builds a two-view network: a citation view whose features are the rows of
the symmetrized citation adjacency, and an attribute view whose features are
the word vectors, with an edge between two documents that share at least one
attribute. Labels number the class names in sorted order.
"""

import numpy as np
import scipy.sparse as sp

from .graph_model import MultiplexNetwork, ViewData
from .io import ManifestError, _bad_token, _read_table, _symmetric_adjacency


def load_citation_network(content_path, cites_path):
    content, line_nos = _read_table(content_path, None, str)
    n = content.shape[0]
    if content.shape[1] < 3:
        raise ManifestError(f"{content_path}:{line_nos[0]}: expected an id, words and a label, "
                            f"found {content.shape[1]} values")
    words = content[:, 1:-1]
    try:
        attributes = words.astype(np.float64)
    except ValueError:
        raise _bad_token(content_path, line_nos, words, float, first_col=2) from None
    labels = np.unique(content[:, -1], return_inverse=True)[1]

    cites = _read_table(cites_path, 2, str)[0]
    names, code = np.unique(np.concatenate([content[:, 0], cites.ravel()]), return_inverse=True)
    first = np.full(names.size, n)  # each id's first row in the content file; n if none
    np.minimum.at(first, code[:n], np.arange(n))
    repeated = np.flatnonzero(first[code[:n]] != np.arange(n))
    if repeated.size:
        i = repeated[0]
        raise ManifestError(f"{content_path}:{line_nos[i]}:1: document id {content[i, 0]!r} "
                            f"already listed on line {line_nos[first[code[i]]]}")
    u, v = first[code[n:]].reshape(-1, 2).T
    keep = (u < n) & (v < n) & (u != v)
    cite = _symmetric_adjacency(u[keep], v[keep], n)

    # attribute view: linked when two documents share at least one attribute
    attr_sparse = sp.csr_matrix(attributes)
    shared = attr_sparse @ attr_sparse.T
    shared.setdiag(0)
    shared.eliminate_zeros()
    shared.data[:] = 1.0

    views = [ViewData(cite.toarray(), np.ones(n, dtype=bool), cite),
             ViewData(attributes, np.ones(n, dtype=bool), shared)]
    return MultiplexNetwork(n, views, labels)
