"""Geometry of (P^n, V = O(d_1) (+) ... (+) O(d_n), h, s, psi) in affine charts.

Conventions (fixed here, exercised by the chart-invariance and normalization
tests):

* Chart trivialization: a degree-d section F corresponds on chart U_a to
  F(z)/z_a^d.
* Inner product: <u, v> = sum_{ij} H_ij u_i conj(v_j), linear in the first
  slot.  The covector field <., s> therefore has frame components
  sum_j H_pj conj(s_j).  Because the pairing is linear in the *first* slot,
  the Chern connection matrix is G^{-1} dG with G = H^T (the transposed Gram
  matrix); for the diagonal Fubini-Study metric the transpose is invisible.
* Fubini-Study weight on O(d): (1 + |w|^2)^{-d}.
* Perturbed metric: FS diagonal plus H_ab = eps conj(f) q (1+|w|^2)^{-(d_a+d_b)}
  at the ordered pair (a, b) and its conjugate at (b, a), with deg q = d_b and
  f the section component whose zero set the perturbation must respect.  The
  off-diagonal vanishes on {f = 0}, so orthogonality of the splitting holds on
  the zero locus while the curvature acquires off-diagonal blocks there.
* The top-form coefficient of psi of degree D = sum d_i - n - 1 on chart U_0
  is H(1,w) dw_1 ^ ... ^ dw_n (x) e_1 ^ ... ^ e_n; transitions carry the chart
  Jacobian times prod (z_0/z_a)^{d_i}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .chartfun import ChartFunction, ChartGroup
from .polycore import AffinePoly, HomogeneousPoly, row_blocks
from .superalg import SForm
from .syszero import SolveError, _common_root, _eigen_zeros, _null_space, _point_text

__all__ = [
    "MetricSpec",
    "GeometryContext",
    "Example22Geometry",
    "GeometryError",
    "check_instance",
    "fs_uniform_points",
    "by_chart",
    "chart_coords",
    "point_from_chart",
    "transition_jacobian",
    "fs_density",
    "psi_chart_rep",
]


class GeometryError(ValueError):
    """Configuration violates a geometric precondition."""


def _check_t(t: float) -> None:
    """Refuse a t the integrals cannot take: zero, negative, infinite or NaN."""
    if not 0 < t < math.inf:
        raise GeometryError("t must be positive")


@dataclass(frozen=True)
class MetricSpec:
    """Hermitian metric family on V: Fubini-Study or rank-two perturbation;
    ``check_instance`` states what a perturbation must satisfy."""

    kind: str = "fubini_study"
    epsilon: float = 0.0
    pair: Optional[Tuple[int, int]] = None
    q: Optional[HomogeneousPoly] = None
    f_index: int = 0


def check_instance(
    degrees: Sequence[int],
    section: Sequence[HomogeneousPoly],
    psi: Optional[HomogeneousPoly] = None,
    metric: MetricSpec = MetricSpec(),
) -> None:
    """The paper's hypotheses on (V, s, psi, h): V = O(d_1) (+) ... (+) O(d_n)
    on P^n with every d_i >= 1, s_i of degree d_i, s not identically zero,
    psi of degree D = sum d_i - n - 1 >= 0, and a perturbed h with epsilon > 0,
    pair (a, b) two distinct summands, deg q = d_b and f_index a summand.
    Raises GeometryError on the first violation, naming the metric field it
    concerns; a zero component or psi takes any degree."""
    n = len(degrees)
    if n < 1 or any(d < 1 for d in degrees):
        raise GeometryError("the bundle needs at least one summand, each of degree >= 1")
    if len(section) != n:
        raise GeometryError("section must have one component per summand")
    for s, d in zip(section, degrees):
        if s.num_vars != n + 1:
            raise GeometryError("section components must use n+1 homogeneous variables")
        if not s.is_zero() and s.degree != d:
            raise GeometryError(f"section component degree {s.degree} does not match bundle degree {d}")
    if all(s.is_zero() for s in section):
        raise GeometryError("section must not be identically zero")
    if psi is not None:
        D = sum(degrees) - n - 1
        if D < 0:
            raise GeometryError(f"degrees {list(degrees)} on P^{n} admit no psi (required degree {D} < 0)")
        if not psi.is_zero() and psi.degree != D:
            raise GeometryError(f"psi degree must be sum(degrees)-n-1 = {D}, got {psi.degree}")
    if metric.kind not in ("fubini_study", "perturbed"):
        raise GeometryError(f"unknown metric kind {metric.kind!r}")
    if metric.kind == "fubini_study":
        return
    if not metric.epsilon > 0:
        raise GeometryError(f"metric epsilon must be > 0, got {metric.epsilon!r}")
    pair = metric.pair
    if pair is None or len(pair) != 2 or pair[0] == pair[1] or not all(0 <= i < n for i in pair):
        raise GeometryError(f"metric pair must be two distinct summand indices in 0..{n - 1}, got {pair!r}")
    q_degree = None if metric.q is None else metric.q.degree
    if q_degree != degrees[pair[1]]:
        raise GeometryError(f"metric q must have degree degrees[{pair[1]}] = {degrees[pair[1]]}, got {q_degree}")
    if not 0 <= metric.f_index < n:
        raise GeometryError(f"metric f_index must be a summand index in 0..{n - 1}, got {metric.f_index!r}")


# ------------------------------------------------------------------ charts


def chart_coords(z: np.ndarray, chart: int) -> np.ndarray:
    """Affine coordinates w_j = z_j / z_chart (j != chart, increasing j)."""
    z = np.asarray(z, dtype=complex)
    w = z / z[chart]
    return np.delete(w, chart)


def point_from_chart(w: Sequence[complex], chart: int) -> np.ndarray:
    """Homogeneous coordinates with 1 inserted at the chart index."""
    w = list(w)
    return np.asarray(w[:chart] + [1.0 + 0j] + w[chart:], dtype=complex)


def transition_jacobian(w_from: Sequence[complex], from_chart: int, to_chart: int, n: int) -> np.ndarray:
    """Jacobian matrix d(w_to)/d(w_from) of the chart transition at a point.

    Rows follow the to-chart coordinate order (j != to_chart increasing),
    columns the from-chart order.
    """
    z = point_from_chart(w_from, from_chart)
    if z[to_chart] == 0:
        raise GeometryError("point not visible in target chart")
    from_idx = [j for j in range(n + 1) if j != from_chart]
    to_idx = [j for j in range(n + 1) if j != to_chart]
    zb = z[to_chart]
    J = np.zeros((n, n), dtype=complex)
    for r, j in enumerate(to_idx):
        for c, k in enumerate(from_idx):
            # w'_j = z_j / z_b with z_k the from-chart coordinates
            d = 0j
            if j == k:
                d += 1.0 / zb
            if k == to_chart:
                d -= z[j] / zb**2
            J[r, c] = d
    return J


def fs_uniform_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """FS-uniform sample of P^n as raw homogeneous Gaussian vectors (count, n+1), real parts first."""
    Z = np.empty((count, n + 1), dtype=complex)
    Z.real, Z.imag = rng.standard_normal(Z.shape), rng.standard_normal(Z.shape)
    return Z


def by_chart(Z: np.ndarray):
    """(chart, rows, W) for each chart that holds a point of Z, shape (count,
    n+1): a point goes to the chart of its largest coordinate; rows are the
    indices in Z of that chart's points and W their affine coordinates."""
    charts = np.argmax(np.abs(Z), axis=1)
    for chart in range(Z.shape[1]):
        rows = np.flatnonzero(charts == chart)
        if rows.size:
            yield chart, rows, Z[np.ix_(rows, np.arange(Z.shape[1]) != chart)] / Z[rows, chart, None]


def fs_density(W: np.ndarray, n: int) -> np.ndarray:
    """Density of the FS-uniform law against Lebesgue in any affine chart:
    n! / (pi^n (1+|w|^2)^{n+1}).  Shape (N, n) -> (N,)."""
    norm2 = 1.0 + np.sum(W.real**2 + W.imag**2, axis=1)
    return math.factorial(n) / (np.pi**n * norm2 ** (n + 1))


def psi_chart_rep(psi: HomogeneousPoly, chart: int) -> AffinePoly:
    """Chart representative of the top-form coefficient.

    The (-1)^chart is the canonical-bundle orientation: the coordinate
    Jacobian from chart 0 to chart a is (-1)^a w_a^{-(n+1)}, and the plain
    dehomogenization supplies only the w_a power."""
    return psi.dehomogenize(chart).scale((-1.0) ** chart)


# ------------------------------------------------------------------ context


@dataclass
class _ChartData:
    chart: int
    s_aff: List[AffinePoly]
    psi_aff: Optional[AffinePoly]
    xi: List[ChartFunction]  # <., s> components: xi_p = sum_q H_pq conj(s_q)
    s_norm2: ChartFunction
    Abar: List[List[ChartFunction]]  # Abar[b][p] = dbar_b xi_p (unscaled)
    G: List[List[ChartFunction]] = field(default_factory=list)  # H^T for curvature
    groups: dict = field(default_factory=dict)  # compiled ChartGroups, see group

    def group(self, key, build) -> Tuple[ChartGroup, List[Tuple[int, int]]]:
        """(group, shapes): the matrices of chart functions that ``build()``
        returns as nested lists, their entries compiled in row order as one
        ChartGroup on the first call under ``key``, and each matrix's shape.
        Threads that race on it build equal groups."""
        if key not in self.groups:
            matrices = build()
            functions = [f for m in matrices for row in m for f in row]
            shapes = [(len(m), len(m[0])) for m in matrices]
            self.groups[key] = (ChartGroup(len(self.s_aff), functions), shapes)
        return self.groups[key]

    def metric_is_split(self) -> bool:
        """Whether no off-diagonal chart function of G has a term: then every
        off-diagonal curvature entry is zero by structure (chern_curvature_batch)."""
        return not any(g.terms for r, row in enumerate(self.G) for c, g in enumerate(row) if r != c)


def _assemble_chart(
    chart: int, s_aff: List[AffinePoly], psi_aff: Optional[AffinePoly], H: List[List[ChartFunction]]
) -> _ChartData:
    """Chart data of a section s_aff and top-form coefficient psi_aff under the
    metric entries H (pairing convention): xi_p = sum_q H_pq conj(s_q),
    |s|^2 = sum_p xi_p s_p, Abar[b][p] = dbar_b xi_p and G = H^T."""
    n = len(s_aff)
    xi = []
    for p in range(n):
        acc = ChartFunction.zero(n)
        for q_ in range(n):
            if s_aff[q_].is_zero():
                continue
            acc = acc + H[p][q_].mul_anti(s_aff[q_])
        xi.append(acc)
    s_norm2 = ChartFunction.zero(n)
    for p in range(n):
        if s_aff[p].is_zero():
            continue
        s_norm2 = s_norm2 + xi[p].mul_hol(s_aff[p])
    Abar = [[xi[p].dbar(bb) for p in range(n)] for bb in range(n)]

    data = _ChartData(chart, s_aff, psi_aff, xi, s_norm2, Abar)
    data.G = [[H[j][i] for j in range(n)] for i in range(n)]
    return data


def _det(A: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices, (N, n, n) -> (N,): the closed
    form for n <= 2, where LAPACK's per-matrix overhead would dominate."""
    if A.shape[-1] > 2:
        return np.linalg.det(A)
    return A[:, 0, 0] if A.shape[-1] == 1 else A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]


def _inv(A: np.ndarray) -> np.ndarray:
    """Inverses of a stack of square matrices, (N, n, n): the adjugate times 1/_det(A) for
    n = 2, np.linalg.inv otherwise; an exactly zero determinant raises LinAlgError, as LAPACK does."""
    if A.shape[-1] != 2:
        return np.linalg.inv(A)
    det = _det(A)
    if np.any(det == 0):
        raise np.linalg.LinAlgError("Singular matrix")
    r = 1.0 / det
    out = np.empty_like(A)
    out[:, 0, 0], out[:, 0, 1] = A[:, 1, 1] * r, A[:, 0, 1] * -r
    out[:, 1, 0], out[:, 1, 1] = A[:, 1, 0] * -r, A[:, 0, 0] * r
    return out


def _min_eigenvalue(H: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part A of each matrix in a stack, (N, n, n) -> (N,): for n <= 2 the
    closed form, as in _det, (a + d)/2 - hypot((a - d)/2, |b|) with A = [[a, b], [conj b, d]]; eigvalsh otherwise."""
    A = 0.5 * (H + np.conj(np.swapaxes(H, 1, 2)))
    if A.shape[-1] > 2:
        return np.linalg.eigvalsh(A)[:, 0]
    a, d = A[:, 0, 0].real, A[:, -1, -1].real  # d = a when n = 1
    b = np.abs(A[:, 0, 1]) if A.shape[-1] == 2 else 0.0
    return 0.5 * (a + d) - np.hypot(0.5 * (a - d), b)


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stacked product (N, k, l) x (N, l, m) -> (N, k, m); einsum beats ``@`` on small operands."""
    return np.einsum("pkl,plm->pkm", A, B)


def _eval_matrices(group: Tuple[ChartGroup, list], W: np.ndarray) -> List[np.ndarray]:
    """The matrices of a ``_ChartData.group`` at a batch of points, (N, rows,
    columns) each, from one evaluation of the group."""
    chart_group, shapes = group
    V = chart_group.eval_batch(W)
    out, start = [], 0
    for rows, cols in shapes:
        out.append(V[start : start + rows * cols].T.reshape(W.shape[0], rows, cols))
        start += rows * cols
    return out


class GeometryContext:
    """All chart-level data for one (degrees, section, metric, psi) instance.

    Chart data is assembled lazily per chart and cached.  Every derivative
    used downstream is exact (see :mod:`residue_lab.chartfun`).
    """

    PD_SAMPLES = 1000
    _PD_SEED = 0x5EED

    def __init__(
        self,
        degrees: Sequence[int],
        section: Sequence[HomogeneousPoly],
        metric: MetricSpec,
        psi: Optional[HomogeneousPoly] = None,
    ):
        check_instance(degrees, section, psi, metric)
        self.n = len(degrees)
        self.degrees = tuple(degrees)
        self.section = tuple(section)
        self.metric = metric
        self.psi = psi
        self._charts = {}
        self._metric_groups = {}  # chart -> H compiled, see metric_matrix_batch
        if metric.kind == "perturbed":
            self._certify_positive()

    # -------------------------------------------------------- chart assembly

    def chart_data(self, chart: int) -> _ChartData:
        if chart not in self._charts:
            self._charts[chart] = self._build_chart(chart)
        return self._charts[chart]

    def _build_chart(self, chart: int) -> _ChartData:
        s_aff = [s.dehomogenize(chart) for s in self.section]
        psi_aff = None if self.psi is None else psi_chart_rep(self.psi, chart)
        return _assemble_chart(chart, s_aff, psi_aff, self._metric(chart))

    def _metric(self, chart: int) -> List[List[ChartFunction]]:
        """The metric entries H on the chart, in the pairing convention."""
        n = self.n
        degs = self.degrees
        H = [[ChartFunction.zero(n) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            H[i][i] = ChartFunction.from_parts(n, weight=-degs[i])
        if self.metric.kind == "perturbed":
            a, b = self.metric.pair
            f_aff = self.section[self.metric.f_index].dehomogenize(chart)
            q_aff = self.metric.q.dehomogenize(chart)
            off = ChartFunction.from_parts(
                n,
                hol=q_aff,
                anti=f_aff,
                weight=-(degs[a] + degs[b]),
                coef=self.metric.epsilon,
            )
            H[a][b] = H[a][b] + off
            H[b][a] = H[b][a] + off.conjugate()
        return H

    # -------------------------------------------------------- evaluations

    def metric_matrix_batch(self, chart: int, W: np.ndarray) -> np.ndarray:
        """Hermitian metric H at a batch of points, (N, n) -> (N, n, n), in the
        pairing convention of the module doc, from one ChartGroup per chart and
        no other chart data: the certificate compiles it, fiber oracles reuse it."""
        if chart not in self._metric_groups:
            entries = [f for row in self._metric(chart) for f in row]
            self._metric_groups[chart] = (ChartGroup(self.n, entries), [(self.n, self.n)])
        return _eval_matrices(self._metric_groups[chart], W)[0]

    def S_form(self, chart: int, w, t: float) -> SForm:
        """Superconnection datum scaled by 1/(2t): scalar -|s|^2/2t and
        one-form -(1/2t) dbar <., s>.

        Evaluated from each chart function on its own, not through the
        ``density_group`` of the determinant path, so the tensor route checks
        that group independently.  w is one point of shape (n,), giving scalar
        coefficients, or a batch of shape (N, n), giving (N,)-array
        coefficients.  A t that is not positive and finite is refused with
        GeometryError, as by every integral of :mod:`residue_lab.localize`.
        """
        _check_t(t)
        data = self.chart_data(chart)
        w = np.asarray(w, dtype=complex)

        def at(f: ChartFunction):
            values = f.eval_batch(w.reshape(-1, self.n))
            return values[0] if w.ndim == 1 else values

        scal = -at(data.s_norm2) / (2.0 * t)
        one = {}
        for b in range(self.n):
            for p in range(self.n):
                c = at(data.Abar[b][p])
                if np.any(c != 0):
                    one[(b + 1, p + 1)] = -c / (2.0 * t)
        return SForm(self.n, scal, one)

    def sbar_matrix_batch(self, chart: int, W: np.ndarray) -> np.ndarray:
        """Unscaled dbar<., s> as (N, n, n) with [b, p] = dbar_b xi_p."""
        data = self.chart_data(chart)
        return _eval_matrices(data.group("Abar", lambda: [data.Abar]), W)[0]

    def s_norm2_batch(self, chart: int, W: np.ndarray) -> np.ndarray:
        return self.chart_data(chart).s_norm2.eval_batch(W).real

    def density_group(self, chart: int) -> ChartGroup:
        """[|s|^2, Abar[b][p] for b, p in row order, P] compiled as one group:
        the t-independent parts of the global density at one set of points."""
        data = self.chart_data(chart)
        if data.psi_aff is None:
            raise GeometryError("this instance carries no psi")

        def build():
            return [[[data.s_norm2]], data.Abar, [[ChartFunction.from_parts(self.n, hol=data.psi_aff)]]]

        return data.group("density", build)[0]

    def psi_batch(self, chart: int, W: np.ndarray) -> np.ndarray:
        data = self.chart_data(chart)
        if data.psi_aff is None:
            raise GeometryError("this instance carries no psi")
        return data.psi_aff.eval_batch(W)

    def chern_curvature_batch(self, chart: int, W: np.ndarray, *, entry: Tuple[int, int, int]) -> np.ndarray:
        """Entry (i, j, a) of the curvature of the Chern connection along
        dw_a ^ dwbar_b for every b, shape (N, n): out[:, b] = R[i, j, a, b].

        Computed from exact derivatives of G = H^T, with X_a = G^{-1} d_a G:
        R[a][b] = G^{-1}((dbar_b G) X_a - d_a dbar_b G).  Row i of G^{-1} meets
        column j of d_a G and of d_a dbar_b G, so only those columns are built;
        G^{-1} is :func:`_inv` (closed form for rank 2) and every product one
        :func:`_mm`.  The matrices come from one cached ChartGroup per entry,
        evaluated ROW_BLOCK points at a time to bound memory.

        An off-diagonal entry (i != j) of a G whose off-diagonal chart
        functions have no terms is zero by structure and returned as zeros with
        nothing compiled: G, G^{-1} and every derivative of G are then diagonal,
        and so is every R[a][b], as the Chern connection of an orthogonal direct
        sum is the sum of the summands' (Griffiths and Harris, Principles of
        Algebraic Geometry, 1978, ch. 0 sec. 5).
        """
        data = self.chart_data(chart)
        n = self.n
        i, j, a = entry
        if i != j and data.metric_is_split():
            return np.zeros((W.shape[0], n), dtype=complex)

        def build():
            dGa = [[row[j].d(a)] for row in data.G]
            dbarG = [[[g.dbar(b) for g in row] for row in data.G] for b in range(n)]
            return [data.G, *dbarG, dGa] + [[[f.dbar(b) for f in row] for row in dGa] for b in range(n)]

        group = data.group(("curvature", entry), build)
        out = np.zeros((W.shape[0], n), dtype=complex)
        for block in row_blocks(W.shape[0]):
            G, *mats = _eval_matrices(group, W[block])
            dbarG, dGa, d2G = mats[:n], mats[n], mats[n + 1 :]
            Ginv = _inv(G)
            X = _mm(Ginv, dGa)
            for b in range(n):
                out[block, b] = _mm(Ginv[:, i : i + 1, :], _mm(dbarG[b], X) - d2G[b])[:, 0, 0]
        return out

    # -------------------------------------------------------- certification

    def _certify_positive(self):
        rng = np.random.default_rng(np.random.Philox(self._PD_SEED))
        worst = np.inf
        for chart, _, W in by_chart(fs_uniform_points(self.n, self.PD_SAMPLES, rng)):
            worst = min(worst, float(_min_eigenvalue(self.metric_matrix_batch(chart, W)).min()))
        if worst <= 0:
            raise GeometryError(
                f"perturbed metric is not positive definite (min eigenvalue {worst:.3e}); "
                "reduce epsilon"
            )
        self.pd_margin = worst


# ------------------------------------------------------------- Example 2.2

class Example22Geometry:
    """The split-section instance on P^2: V = O(d) (+) O(k), s = (f, 0).

    The zero locus is the plane curve Z = {f = 0}; ds identifies the normal
    bundle with the f-summand L, and the complementary summand V_1 survives as
    the cokernel.  Supported at desk scale with rank-one L and V_1 only.

    The curve is framed the same way in every chart: its base coordinate is
    w_1 and its sheet coordinate w_2, so the sheet slope is dw_2/dw_1 and the
    normal direction is d/dw_2.  The curve-localized sampler works on chart 0.
    """

    def __init__(self, ctx: GeometryContext):
        if ctx.n != 2:
            raise GeometryError("the split-section family is supported on P^2 only")
        nonzero = [i for i, s in enumerate(ctx.section) if not s.is_zero()]
        if len(nonzero) != 1:
            raise GeometryError("section must be (f, 0) up to summand order")
        self.ctx = ctx
        self.f_index = nonzero[0]
        self.v_index = 1 - self.f_index
        self.f = ctx.section[self.f_index]
        if ctx.metric.kind == "perturbed" and ctx.metric.f_index != self.f_index:
            raise GeometryError("metric perturbation must vanish on the section curve")
        self._df = {}

    def f_aff(self, chart: int) -> AffinePoly:
        return self.ctx.chart_data(chart).s_aff[self.f_index]

    def df(self, chart: int) -> Tuple[AffinePoly, AffinePoly]:
        """(df/dw_1, df/dw_2) on the chart, built once so each compiles its
        batch kernel once; threads that race store equal pairs."""
        if chart not in self._df:
            f = self.f_aff(chart)
            self._df[chart] = (f.partial(0), f.partial(1))
        return self._df[chart]

    def smoothness_defect(self) -> Optional[str]:
        """None when the curve {f = 0} is smooth, else why it is not, read in
        the section's own frame with no solve and no seed.

        The singular points are the common zeros of the partials d_k f on P^2
        (d f = sum_k z_k d_k f puts them on the curve), so the curve is smooth
        iff the three forms of degree d - 1 share no root: the resultant test
        (``_common_root``) alone gives the verdict.

        A singular point is then named from the null space of the partials'
        Macaulay matrix in degree D = 3(d - 2) + 1, the resultant's degree.
        On a reduced curve the singular points are finitely many and the null
        space has the dimension tau, their total Tjurina number, in every
        degree from 3(d - 2) on (Dimca, Syzygies of Jacobian ideals and
        defects of linear systems, 2013).  Degrees D and D - 1 are both
        there, so the solver's quotient-algebra eigenvalues (``_eigen_zeros``)
        read the points off it.  On a curve with a multiple component the
        singular locus is that component, and the dimension grows from D to
        D + 1.
        """
        d = self.f.degree
        if d == 1:
            return None
        partials = [self.f.partial(k) for k in range(3)]
        if not _common_root(partials):
            return None
        D = 3 * (d - 2) + 1
        try:
            N, index = _null_space(partials, D)
            if _null_space(partials, D + 1)[0].shape[1] != N.shape[1]:
                return "the singular locus is not finite: the curve has a multiple component"
        except SolveError as exc:
            return f"the curve is singular, but its singular points could not be located ({exc})"
        z = _eigen_zeros(N, index, 2, D, 0)[0][0]
        return f"singular point at {_point_text(z / z[np.argmax(np.abs(z))])}"

    def psi_over_det_ds_batch(self, chart: int, W: np.ndarray) -> np.ndarray:
        """Coefficient of the curve form against dw_1 (x) e_{V_1}:
        psi / (df/dw_2), restricted to Z; shape (N, 2) -> (N,)."""
        psi = self.ctx.psi_batch(chart, W)
        fn = self.df(chart)[1].eval_batch(W)
        if np.any(np.abs(fn) < 1e-12 * self.f.coeff_norm()):
            raise GeometryError("vanishing normal derivative (branch point)")
        return psi / fn

    def curvature_term_batch(self, chart: int, W: np.ndarray) -> np.ndarray:
        """The End(N)-scalar of the localized curvature contraction, as the
        coefficient against dwbar_1 (x) e*_{V_1}; shape (N, 2) -> (N,):

            r = -R^{L<-V_1}(nu, taubar) / df(nu),

        with nu = d/dw_2 the normal coordinate direction and tau the sheet
        tangent.  The first curvature slot takes the normal vector, the second
        the conjugated tangent; feeding the first slot with a tangent vector
        contributes nothing (well-definedness, tested separately).  On a split
        metric such as Fubini-Study, r is identically 0 (chern_curvature_batch).
        """
        f1, f2 = self.df(chart)
        fn = f2.eval_batch(W)
        kappa = -f1.eval_batch(W) / fn
        # R(nu, taubar) = sum_b R[1][b] conj(tau_b); tau = (1, kappa)
        block = self.ctx.chern_curvature_batch(chart, W, entry=(self.f_index, self.v_index, 1))
        val = block[:, 0] + block[:, 1] * np.conj(kappa)
        return -val / fn
