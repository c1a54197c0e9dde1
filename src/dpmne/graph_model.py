"""Partial multiplex network data model: types, validation, synthesis, masking.

A multiplex network is one node set observed through several views. Each view
carries its own feature matrix, its own undirected edge set, and a boolean
mask saying which nodes actually have features in that view. Missing rows are
stored as zeros so every matrix expression stays mask-free except where the
mask itself is applied.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp


def _check_setting(name, value, low, high=math.inf, integer=False, low_open=False,
                   high_open=False):
    """``value`` if it is a number in its range, else one ValueError naming ``name``.

    The range runs from ``low`` to ``high``, each end included unless marked
    open; an infinite ``high`` is always open, so the value must be finite.
    With ``integer`` the value must be an integer and comes back as an
    ``int``. A bool or a string never passes.
    """
    unbounded = high == math.inf
    if isinstance(value, numbers.Integral if integer else numbers.Real) and not isinstance(
            value, bool):
        above = value > low if low_open else value >= low
        if above and (value < high if high_open or unbounded else value <= high):
            return int(value) if integer else value
    rule = (f"{'>' if low_open else '>='} {low}" if unbounded else
            f"in {'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}")
    kind = "an integer" if integer else "a finite number" if unbounded else "a number"
    raise ValueError(f"{name} must be {kind} {rule}, got {value!r}")


def _check_settings(name, values, low, **rule):
    """``values`` as a tuple of numbers that each pass ``_check_setting(name, v, low, **rule)``.

    A bare number or a string is not a sequence of settings: one ValueError
    names ``name``.
    """
    if isinstance(values, str) or not np.iterable(values):
        raise ValueError(f"{name} must be a sequence of numbers, got {values!r}")
    return tuple(_check_setting(name, v, low, **rule) for v in values)


def _finite_embedding(embeddings):
    """``embeddings`` as a float64 array; one ValueError if any entry is NaN or infinite."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if not np.all(np.isfinite(embeddings)):
        raise ValueError("embedding has non-finite entries")
    return embeddings


def _per_view(value, t, name):
    """Broadcast a scalar or a length-t sequence into a list of t values."""
    if np.isscalar(value) or not np.iterable(value):
        return [value] * t
    values = list(value)
    if len(values) != t:
        raise ValueError(f"{name}: expected a scalar or {t} per-view values, got {len(values)}")
    return values


@dataclass
class ViewData:
    """One view: features (n x dim), presence mask (n,), 0/1 adjacency (n x n).

    Rows of ``features`` where ``mask`` is False must be all zero; the
    adjacency is symmetric with a zero diagonal. ``dim`` is read from the
    features.
    """
    features: np.ndarray
    mask: np.ndarray
    adjacency: sp.spmatrix

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        self.adjacency = sp.csr_matrix(self.adjacency, dtype=np.float64)

    dim = property(lambda self: self.features.shape[1])


@dataclass
class MultiplexNetwork:
    """n nodes seen through ``t = len(views)`` views, with optional per-node class labels."""
    n: int
    views: list
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)

    t = property(lambda self: len(self.views))


@dataclass
class SynthConfig:
    """Planted-partition generator settings.

    Nodes are split into balanced communities; each view links same-community
    pairs with probability ``intra`` and other pairs with ``inter``. View
    features are the community's random prototype vector plus Gaussian noise,
    and a fraction ``pdr`` of nodes per view is masked out. All of ``intra``,
    ``inter``, ``noise``, ``pdr`` and ``feature_dim`` accept either a scalar
    or one value per view. Out-of-range settings are rejected when the
    config is built.
    """
    n: int
    communities: int
    t: int = 2
    intra: object = 0.05
    inter: object = 0.005
    noise: object = 0.1
    pdr: object = 0.0
    feature_dim: object = 32
    seed: int = 0

    def __post_init__(self):
        self.n = n = _check_setting("n", self.n, 1, integer=True)
        self.t = t = _check_setting("t", self.t, 1, integer=True)
        self.communities = _check_setting("communities", self.communities, 1, n, integer=True)
        self.seed = _check_setting("seed", self.seed, 0, integer=True)
        for name, high in (("intra", 1), ("inter", 1), ("noise", math.inf)):
            for v in _per_view(getattr(self, name), t, name):
                _check_setting(name, v, 0, high)
        for s, r in enumerate(_per_view(self.pdr, t, "pdr")):
            if round(_check_setting("pdr", r, 0, 1, high_open=True) * n) >= n:
                raise ValueError(f"view {s}: pdr {r} leaves no present node")
        for d in _per_view(self.feature_dim, t, "feature_dim"):
            _check_setting("feature_dim", d, 1, integer=True)


def validate(network):
    """Check every structural invariant; returns a list of violation strings.

    An empty list means the network is well-formed. Nothing is raised here so
    callers can report all problems at once.
    """
    report = []
    if network.n < 1:
        report.append(f"node count must be >= 1, got {network.n}")
    if network.t < 1:
        report.append(f"view count must be >= 1, got {network.t}")
    if network.labels is not None and network.labels.shape != (network.n,):
        report.append(f"labels must have shape ({network.n},), got {network.labels.shape}")
    for s, view in enumerate(network.views):
        if view.features.ndim != 2 or view.features.shape[0] != network.n:
            report.append(f"view {s}: features shape {view.features.shape} != ({network.n}, dim)")
            continue
        if view.features.shape[1] == 0:
            report.append(f"view {s}: features have no columns")
        if view.mask.shape != (network.n,):
            report.append(f"view {s}: mask length {view.mask.shape} != ({network.n},)")
            continue
        if not view.mask.any():
            report.append(f"view {s}: mask has no present node")
        non_finite = ~np.isfinite(view.features).all(axis=1)
        if non_finite.any():
            report.append(f"view {s}: node {int(np.flatnonzero(non_finite)[0])} "
                          "has a non-finite feature")
        hidden = ~view.mask
        if hidden.any() and np.any(view.features[hidden] != 0.0):
            bad = int(np.flatnonzero(hidden & np.any(view.features != 0.0, axis=1))[0])
            report.append(f"view {s}: masked-out node {bad} has nonzero features")
        adj = view.adjacency
        if adj.shape != (network.n, network.n):
            report.append(f"view {s}: adjacency shape {adj.shape} != square of n")
            continue
        if (adj != adj.T).nnz != 0:
            report.append(f"view {s}: adjacency is not symmetric")
        diag = adj.diagonal()
        if np.any(diag != 0.0):
            report.append(f"view {s}: adjacency has nonzero diagonal (self-loop)")
        if adj.nnz and not np.isin(adj.data, (0.0, 1.0)).all():
            report.append(f"view {s}: adjacency entries must be 0 or 1")
    return report


def _draw_missing(masks, view, count, rng):
    """Mask out ``count`` extra nodes in ``view``, keeping every node present somewhere."""
    if count == 0:
        return
    present_elsewhere = np.sum(masks, axis=0)
    candidates = np.flatnonzero(masks[view] & (present_elsewhere >= 2))
    if candidates.size < count:
        raise ValueError(
            f"view {view}: cannot mask {count} more nodes while keeping every "
            "node present in at least one view")
    drop = rng.choice(candidates, size=count, replace=False)
    masks[view][drop] = False


def synth_generate(config):
    """Generate a planted-partition multiplex network with ground-truth labels."""
    n, c, t = config.n, config.communities, config.t
    intra, inter, noise, pdr, dims = (_per_view(getattr(config, name), t, name) for name in
                                      ("intra", "inter", "noise", "pdr", "feature_dim"))

    rng = np.random.default_rng(config.seed)
    labels = rng.permutation(np.arange(n) % c)

    # draw all masks first so the at-least-one-view constraint sees every view
    masks = [np.ones(n, dtype=bool) for _ in range(t)]
    for s in range(t):
        _draw_missing(masks, s, int(round(pdr[s] * n)), rng)

    views = []
    same = labels[:, None] == labels[None, :]
    for s in range(t):
        probs = np.where(same, intra[s], inter[s])
        upper = np.triu(rng.random((n, n)) < probs, k=1)
        adjacency = sp.csr_matrix((upper | upper.T).astype(np.float64))
        prototypes = rng.uniform(0.0, 1.0, size=(c, dims[s]))
        features = prototypes[labels] + noise[s] * rng.standard_normal((n, dims[s]))
        features[~masks[s]] = 0.0
        views.append(ViewData(features, masks[s], adjacency))
    return MultiplexNetwork(n, views, labels)


def _check_ratio(ratio):
    """``ratio`` if it is a missing fraction in [0, 1), else one ValueError naming it."""
    return _check_setting("ratio", ratio, 0, 1, high_open=True)


def apply_pdr(network, ratio, seed=0):
    """Mask out extra nodes until each view's missing fraction hits the one ``ratio``.

    Masks only grow: present rows are carried over bitwise, the newly
    masked rows are zeroed, and each node stays present in at least one
    view. Raises if a view already misses more than the requested ratio.
    """
    ratio = _check_ratio(ratio)
    rng = np.random.default_rng(_check_setting("seed", seed, 0, integer=True))
    masks = [view.mask.copy() for view in network.views]
    views = []
    for s, view in enumerate(network.views):
        target_missing = int(round(ratio * network.n))
        extra = target_missing - int(np.count_nonzero(~masks[s]))
        if extra < 0:
            raise ValueError(
                f"view {s}: already missing more than the requested ratio {ratio}")
        _draw_missing(masks, s, extra, rng)
        features = view.features.copy()
        features[~masks[s]] = 0.0
        views.append(replace(view, features=features, mask=masks[s]))
    return replace(network, views=views)


def normalize_features(network):
    """Min-max scale each feature column into [0, 1] over the present rows.

    Returns a copy; masked rows stay zero. Columns that are constant on the
    present rows are left untouched.
    """
    views = []
    for view in network.views:
        features = view.features.copy()
        present = view.mask
        if present.any():
            lo = features[present].min(axis=0)
            hi = features[present].max(axis=0)
            span = hi - lo
            scale = np.where(span > 0, span, 1.0)
            offset = np.where(span > 0, lo, 0.0)
            features[present] = (features[present] - offset) / scale
        views.append(replace(view, features=features, mask=view.mask.copy()))
    return replace(network, views=views)
