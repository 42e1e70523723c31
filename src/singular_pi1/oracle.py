"""Ground truth by exhaustive enumeration of rigidified covers.

A degree-``d`` cover of a configuration is enumerated as a descent
datum: one action of each component group and of each singular group on
the fiber ``{0..d-1}``, plus one bijection of fibers per branch that is
equivariant for the branch group acting through its two attaching maps.
All fibers are identified with ``{0..d-1}`` (rigidification), so the
relabeling group ``Sym(d)^(n+m)`` acts on the data and the groupoid
cardinality of covers is the rigid count divided by ``d!^(n+m)``.

The master comparison: groupoid cardinality times ``d!`` must equal the
number of homomorphisms of the computed fundamental-group presentation
into Sym(d), exactly, as rationals.  The left side never sees a
presentation of the result and the right side never sees a descent
datum, but they share the hom-counting engine: the left side counts and
enumerates the actions of each component and singular group with
``homcount.count_homs`` and ``iter_homs`` on the group's canonical
presentation, and the right side counts the result's presentation with
``count_homs``.  The connected columns follow from the plain ones at
degrees ``1..d``: each side applies Hall's formula to its own numbers.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Optional

from .errors import ResourceError
from .homcount import count_homs, iter_homs, transitive_counts
from .limits import DEFAULT_LIMITS
from .perms import table
from .scheme import ensure_valid


@dataclass
class DescentDatum:
    degree: int
    component_actions: dict      # component id -> tuple of permutations
    singular_actions: dict       # singular id -> tuple of permutations
    branch_bijections: dict      # branch id -> permutation


@dataclass
class OracleReport:
    degree: int
    rigid_count: int
    groupoid_cardinality: Fraction
    presentation_count: int
    verdict: bool
    connected: Optional[dict] = None

    def to_json(self):
        out = {"degree": self.degree,
               "rigid_count": self.rigid_count,
               "groupoid_cardinality": {
                   "num": self.groupoid_cardinality.numerator,
                   "den": self.groupoid_cardinality.denominator},
               "presentation_count": self.presentation_count,
               "verdict": "pass" if self.verdict else "fail"}
        if self.connected is not None:
            out["connected"] = dict(self.connected)
        return out


class _Setup:
    """Precomputed enumeration data for one (configuration, degree)."""

    def __init__(self, cfg, d, limits):
        ensure_valid(cfg)
        if d < 1:
            raise ResourceError("cover enumeration needs degree >= 1",
                                layer="oracle")
        if d > limits.degree_bound:
            raise ResourceError(
                f"degree {d} exceeds the configured bound {limits.degree_bound}",
                layer="oracle")
        self.cfg = cfg
        self.d = d
        self.T = table(d)
        size = self.T.size

        hom_sizes = []
        for piece in list(cfg.components) + list(cfg.singulars):
            hom_sizes.append(count_homs(piece.group.canonical_presentation,
                                        d, limits))
        # every (rho, tau) pair is visited once, and each scans d!
        # candidate intertwiners on every branch
        estimate = cfg.m_tilde * size + 1
        for h in hom_sizes:
            estimate *= h
        if estimate > limits.ceiling:
            raise ResourceError(
                f"descent enumeration estimate {estimate} exceeds ceiling "
                f"{limits.ceiling}", estimate=estimate,
                ceiling=limits.ceiling, layer="oracle")
        self.estimate = estimate

        def assignments(spec):
            pres = spec.canonical_presentation
            gens = pres.generators
            out = []
            for asg in iter_homs(pres, d, limits):
                out.append(tuple(self.T.index[asg[g]] for g in gens))
            return out

        cache = {}

        def cached_assignments(spec):
            key = spec.descriptor()
            if key not in cache:
                cache[key] = assignments(spec)
            return cache[key]

        self.comp_ids = [c.id for c in cfg.components]
        self.sing_ids = [s.id for s in cfg.singulars]
        self.comp_index = {cid: i for i, cid in enumerate(self.comp_ids)}
        self.sing_index = {sid: i for i, sid in enumerate(self.sing_ids)}
        self.comp_lists = [cached_assignments(c.group) for c in cfg.components]
        self.sing_lists = [cached_assignments(s.group) for s in cfg.singulars]
        self.comp_gens = [c.group.canonical_presentation.generators
                          for c in cfg.components]
        self.sing_gens = [s.group.canonical_presentation.generators
                          for s in cfg.singulars]

        self.branches = []
        for b in cfg.branches:
            ci = self.comp_index[b.component]
            si = self.sing_index[b.singular]
            comp_slot = {g: k for k, g in enumerate(self.comp_gens[ci])}
            sing_slot = {g: k for k, g in enumerate(self.sing_gens[si])}
            src = b.group.canonical_presentation
            psi_words = [tuple((comp_slot[s], e) for s, e in
                               b.psi.images[g].letters)
                         for g in src.generators]
            phi_words = [tuple((sing_slot[s], e) for s, e in
                               b.phi.images[g].letters)
                         for g in src.generators]
            self.branches.append((b.id, ci, si, psi_words, phi_words))

    def eval_word(self, encoded, assignment):
        T = self.T
        acc = T.identity
        for slot, e in encoded:
            p = assignment[slot]
            if e < 0:
                p, e = T.inv[p], -e
            for _ in range(e):
                acc = T.mul[acc][p]
        return acc

    def intertwiners(self, psi_words, phi_words, rho, tau):
        """Bijections lam with lam . rho(psi(a)) = tau(phi(a)) . lam."""
        T = self.T
        ps = [self.eval_word(w, rho) for w in psi_words]
        qs = [self.eval_word(w, tau) for w in phi_words]
        out = []
        for lam in range(T.size):
            if all(T.mul[p][lam] == T.mul[lam][q] for p, q in zip(ps, qs)):
                out.append(lam)
        return out


def enumerate_descent_data(cfg, d, limits=DEFAULT_LIMITS):
    """Exact number of rigidified degree-``d`` descent data."""
    st = _Setup(cfg, d, limits)
    total = 0
    for rho in product(*st.comp_lists):
        for tau in product(*st.sing_lists):
            prod_count = 1
            for _, ci, si, psi_w, phi_w in st.branches:
                prod_count *= len(st.intertwiners(psi_w, phi_w,
                                                  rho[ci], tau[si]))
                if prod_count == 0:
                    break
            total += prod_count
    return total


def iter_descent_data(cfg, d, limits=DEFAULT_LIMITS):
    """Stream every rigidified descent datum as a ``DescentDatum``."""
    st = _Setup(cfg, d, limits)
    perms = st.T.perms
    for rho in product(*st.comp_lists):
        for tau in product(*st.sing_lists):
            lam_lists = []
            for _, ci, si, psi_w, phi_w in st.branches:
                lams = st.intertwiners(psi_w, phi_w, rho[ci], tau[si])
                if not lams:
                    lam_lists = None
                    break
                lam_lists.append(lams)
            if lam_lists is None:
                continue
            for choice in product(*lam_lists):
                yield DescentDatum(
                    d,
                    {cid: tuple(perms[i] for i in rho[k])
                     for k, cid in enumerate(st.comp_ids)},
                    {sid: tuple(perms[i] for i in tau[k])
                     for k, sid in enumerate(st.sing_ids)},
                    {st.branches[k][0]: perms[choice[k]]
                     for k in range(len(st.branches))})


def groupoid_cardinality(cfg, d, limits=DEFAULT_LIMITS):
    """Rigid count over the order of the relabeling group, exactly."""
    rigid = enumerate_descent_data(cfg, d, limits)
    n_pieces = cfg.n + cfg.m
    return Fraction(rigid, factorial(d) ** n_pieces)


def compare(cfg, d, result, limits=DEFAULT_LIMITS):
    """Compare the oracle against a computed presentation at one degree."""
    rigid = enumerate_descent_data(cfg, d, limits)
    n_pieces = cfg.n + cfg.m
    card = Fraction(rigid, factorial(d) ** n_pieces)
    pres_count = count_homs(result.presentation, d, limits)
    verdict = card * factorial(d) == pres_count
    return OracleReport(d, rigid, card, pres_count, verdict)


def attach_connected(cfg, reports):
    """Fill in ``connected`` on the reports at degrees ``1..D``.

    A cover splits uniquely into connected covers, as an action into
    orbits, so Hall's formula turns each side's plain column into its
    connected one: hom counts into transitive hom counts, and
    ``groupoid cardinality * d!`` into the same for connected covers.
    The connected rigid count is the latter times ``d!^(n+m-1)``.
    """
    assert [r.degree for r in reports] == list(range(1, len(reports) + 1))
    transitive = transitive_counts([r.presentation_count for r in reports])
    connected = transitive_counts([r.groupoid_cardinality * factorial(r.degree)
                                   for r in reports])
    for r, t, c in zip(reports, transitive, connected):
        rigid = c * factorial(r.degree) ** (cfg.n + cfg.m - 1)
        assert rigid.denominator == 1, "connected rigid count is not whole"
        r.connected = {"rigid_count": rigid.numerator,
                       "transitive_homs": t,
                       "verdict": "pass" if c == t else "fail"}
    return reports
