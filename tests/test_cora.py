"""The citation loader on small content/cites pairs written by hand."""

import re

import numpy as np
import pytest

from dpmne.cora import load_citation_network
from dpmne.graph_model import validate
from dpmne.io import ManifestError

CONTENT = ("paper_b\t0\t1\t1\tTheory\n"
           "p7\t1\t0\t0\tAI\n"
           "x\t1\t1\t0\tTheory\n"
           "solo\t0\t0\t0\tAI\n")
CITES = ("p7\tpaper_b\n"
         "x\tx\n"          # a self-citation: dropped
         "ghost\tp7\n"     # cites a document not in the content file: dropped
         "x\tp7\n"
         "paper_b\tp7\n")  # the first citation again, the other way round


def write_pair(tmp_path, content=CONTENT, cites=CITES):
    (tmp_path / "content").write_text(content)
    (tmp_path / "cites").write_text(cites)
    return str(tmp_path / "content"), str(tmp_path / "cites")


def test_loads_the_hand_written_pair(tmp_path):
    net = load_citation_network(*write_pair(tmp_path))
    citations = np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=float)
    words = np.array([[0, 1, 1], [1, 0, 0], [1, 1, 0], [0, 0, 0]], dtype=float)
    shared_word = np.array([[0, 0, 1, 0], [0, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]], dtype=float)
    assert (net.n, net.t) == (4, 2)
    assert net.labels.dtype == np.int64 and net.labels.tolist() == [1, 0, 1, 0]  # AI < Theory
    for view, features, adjacency in ((net.views[0], citations, citations),
                                      (net.views[1], words, shared_word)):
        assert view.features.dtype == np.float64 and np.array_equal(view.features, features)
        assert view.mask.all()
        assert view.adjacency.format == "csr" and view.adjacency.dtype == np.float64
        assert np.array_equal(view.adjacency.toarray(), adjacency)
    assert validate(net) == []


@pytest.mark.parametrize("name,content,cites,where", [
    pytest.param("content", CONTENT.replace("p7\t1\t0", "p7\t1\tx"), CITES,
                 ":2:3: not a number: 'x'", id="word-not-a-number"),
    pytest.param("content", CONTENT.replace("x\t1\t1\t0", "x\t1\t1"), CITES,
                 ":3: expected 5 values, found 4", id="line-of-the-wrong-width"),
    pytest.param("content", CONTENT.replace("solo", "p7"), CITES,
                 ":4:1: document id 'p7' already listed on line 2", id="repeated-id"),
    pytest.param("cites", CONTENT, CITES.replace("ghost\tp7", "ghost\tp7\tx"),
                 ":3: expected 2 values, found 3", id="three-token-citation"),
    pytest.param("content", "", CITES, ": no lines", id="empty-content"),
    pytest.param("content", "a\tTheory\nb\tAI\nc\tAI\n", CITES,
                 ":1: expected an id, words and a label, found 2 values", id="no-word-columns"),
])
def test_malformed_files_raise_one_error_naming_the_place(tmp_path, name, content, cites, where):
    write_pair(tmp_path, content, cites)
    with pytest.raises(ManifestError, match="^" + re.escape(str(tmp_path / name) + where)):
        load_citation_network(str(tmp_path / "content"), str(tmp_path / "cites"))
