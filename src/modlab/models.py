"""Model definitions: the admissible Hamiltonian systems of Korteweg type.

A model is either scalar (one field v with energy density
``e = kappa(v) v_x^2 / 2 + f(v)`` and constant symplectic weight b) or a
two-field system carrying an extra kinetic term ``tau(v) u^2 / 2``.  The
traveling-wave reduction funnels everything through an effective
potential ``W(v; c, lambda)`` whose wells carry the periodic orbits; this
module evaluates W, the reduced velocity g, the reduced impulse q, and
the structural matrices exactly, with derivatives to the orders the
asymptotic formulas require.

Function families are closed form on purpose: f and kappa are (Laurent)
polynomials, tau is a positive constant or affine.  That keeps fourth
derivatives exact; nothing here is differentiated numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainViolation
from .polys import Laurent, monomial_coeffs, padd, pmul, pscale

_MAX_F_DEGREE = 8
_MAX_KAPPA_DEGREE = 4


@dataclass(frozen=True)
class WaveParams:
    """Wave identifiers in the integration-constant chart (mu, c, lambda)."""

    mu: float
    c: float
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.atleast_1d(np.asarray(self.lam, dtype=float)))
        if not all(map(math.isfinite, [self.mu, self.c, *self.lam.tolist()])):
            raise ConfigError(f"wave parameters must be finite: mu = {self.mu}"
                              f", c = {self.c}, lambda = {self.lam.tolist()}")

    @property
    def lam1(self) -> float:
        return float(self.lam[0])

    @property
    def lam2(self) -> float:
        return float(self.lam[1])

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.mu, self.c], self.lam))

    @staticmethod
    def from_vector(x: np.ndarray) -> "WaveParams":
        mu, c, *lam = x.tolist()
        return WaveParams(mu, c, np.array(lam))


@dataclass(frozen=True)
class StructuralMatrices:
    """Constant matrices of the two modulation charts."""

    B: np.ndarray
    Binv: np.ndarray
    S: np.ndarray
    BB: np.ndarray
    BBinv: np.ndarray
    Sinv: np.ndarray


@dataclass(frozen=True)
class ModelSpec:
    """One admissible system.

    Parameters
    ----------
    kind : {'scalar', 'euler_korteweg'}
    b : float
        Nonzero symplectic weight.
    f : Laurent
        Bulk energy density.
    kappa : Laurent
        Capillarity coefficient, positive on the domain.
    tau : (t0, t1) or None
        Kinetic coefficient ``tau(v) = t0 + t1 v`` (system case only),
        positive on the domain.
    domain : (lo, hi)
        Open admissible interval for v.
    """

    kind: str
    b: float
    f: Laurent
    kappa: Laurent
    tau: tuple | None = None
    domain: tuple = (-math.inf, math.inf)
    label: str = field(default="model", compare=False)
    # (fn, fn', ..., fn^(4)) for fn = f and kappa, built once per model
    _f_chain: tuple = field(init=False, repr=False, compare=False)
    _kappa_chain: tuple = field(init=False, repr=False, compare=False)
    # the parameter-free parts of W = N / D: -f, times tau on two-field
    # models, and D
    _rational: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("scalar", "euler_korteweg"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.b == 0.0:
            raise ConfigError("b must be nonzero")
        if self.kind == "euler_korteweg" and self.tau is None:
            raise ConfigError("system model requires tau")
        if len(self.f.coeffs) - 1 > _MAX_F_DEGREE:
            raise ConfigError("f degree above supported bound")
        if self.kappa.is_poly and len(self.kappa.coeffs) - 1 > _MAX_KAPPA_DEGREE:
            raise ConfigError("kappa degree above supported bound")
        self._check_positive(self.kappa, "kappa")
        if self.tau is not None:
            t0, t1 = self.tau
            self._check_positive(Laurent.make([t0, t1]), "tau")
        object.__setattr__(self, "_f_chain", _derivative_chain(self.f))
        object.__setattr__(self, "_kappa_chain", _derivative_chain(self.kappa))
        fixed, den = pscale(self.f.coeffs, -1.0), monomial_coeffs(self.f.shift)
        if self.kind == "euler_korteweg":
            fixed, den = pmul(fixed, self.tau), pmul(self.tau, den)
        object.__setattr__(self, "_rational", (tuple(fixed), tuple(den)))

    def _check_positive(self, fn: Laurent, name: str):
        lo, hi = self.domain
        a = lo if math.isfinite(lo) else -10.0
        b = hi if math.isfinite(hi) else 10.0
        if not fn.is_poly and a < 0.0:
            raise ConfigError(f"{name} has negative powers; domain must stay positive")
        probe = np.linspace(a + 1e-9 * (b - a), b - 1e-9 * (b - a), 257)
        if any(fn(x) <= 0.0 for x in probe.tolist()):
            raise ConfigError(f"{name} not positive on the declared domain")

    # -- basic structure ---------------------------------------------------

    @property
    def N(self) -> int:
        return 1 if self.kind == "scalar" else 2

    def check_domain(self, v: float):
        lo, hi = self.domain
        if not (lo < v < hi):
            raise DomainViolation(f"v = {v} outside domain ({lo}, {hi})")

    def tau_jet(self, v: float, order: int = 3) -> np.ndarray:
        t0, t1 = self.tau
        out = np.zeros(order + 1)
        out[0] = t0 + t1 * v
        if order >= 1:
            out[1] = t1
        return out

    def kappa_jet(self, v: float, order: int = 2) -> np.ndarray:
        """[kappa(v), kappa'(v), ..., kappa^(order)(v)] for order <= 4."""
        return _jet(self._kappa_chain, v, order)

    def f_jet(self, v: float, order: int = 4) -> np.ndarray:
        """[f(v), f'(v), ..., f^(order)(v)] for order <= 4."""
        return _jet(self._f_chain, v, order)

    # -- reduced velocity and impulse ---------------------------------------

    def velocity_jet(self, v: float, c: float, lam2: float) -> np.ndarray:
        """(g, g', g'', g''') of the reduced velocity g(v; c, lam2).

        Defined for the system case only; derivatives follow the closed
        recursions ``b tau g' = -c - b tau' g`` and their derivatives.
        """
        if self.kind != "euler_korteweg":
            raise ConfigError("velocity_jet is defined for system models only")
        self.check_domain(v)
        t, g, gv = self._reduced_velocity(v, c, lam2)
        gvv, gvvv, _ = reduced_jet(t, g, gv)
        return np.array([g, gv, gvv, gvvv])

    def _reduced_velocity(self, v: float, c: float, lam2: float) -> tuple:
        """(t, g, g') on floats: the tau jet to order 3, g and its slope."""
        t0, t1 = self.tau
        t = [t0 + t1 * v, t1, 0.0, 0.0]
        g = -((c / self.b) * v + lam2) / t[0]
        gv = (-(c / self.b) - t[1] * g) / t[0]
        return t, g, gv

    def impulse_jet(self, v: float, c: float = 0.0, lam2: float = 0.0) -> np.ndarray:
        """(q, q', q'') of the reduced impulse q(v) = Q(U) along the profile."""
        if self.kind == "scalar":
            return np.array([v * v / (2.0 * self.b), v / self.b, 1.0 / self.b])
        g, gv, gvv, _ = self.velocity_jet(v, c, lam2)
        return np.array([v * g / self.b,
                         (g + v * gv) / self.b,
                         (2.0 * gv + v * gvv) / self.b])

    # -- effective potential -------------------------------------------------

    def potential_jet(self, v: float, params: WaveParams, order: int = 4) -> np.ndarray:
        """W and its v-derivatives at (v; c, lambda), exactly.

        Parameters
        ----------
        v : float
            Evaluation point, inside the domain.
        params : WaveParams
        order : int
            Highest derivative, at most 4.

        Returns
        -------
        (order+1,) array [W, W', ..., W^(order)].
        """
        if order > 4 or order < 0:
            raise ConfigError("potential_jet supports order <= 4")
        self.check_domain(v)
        c, lam = params.c, params.lam
        # on floats: the IEEE operations of the array form, in its order
        fj = [fn(v) for fn in self._f_chain[:order + 1]]
        if self.kind == "scalar":
            out = [-x for x in fj]
            cb = c / (2.0 * self.b)
            lam1 = float(lam[0])
            out[0] -= cb * v * v + lam1 * v
            if order >= 1:
                out[1] -= 2.0 * cb * v + lam1
            if order >= 2:
                out[2] -= 2.0 * cb
            return np.array(out)
        lam1, lam2 = float(lam[0]), float(lam[1])
        t, g, gv = self._reduced_velocity(v, c, lam2)
        out = [-fj[0] + 0.5 * t[0] * g * g - lam1 * v]
        if order >= 1:
            out.append(-fj[1] - 0.5 * t[1] * g * g - (c / self.b) * g - lam1)
        return np.array(out + reduced_jet(t, g, gv, fj)[2])

    def potential_rational(self, params: WaveParams) -> tuple[tuple, tuple]:
        """W = N(v)/D(v) as an exact polynomial ratio.

        The quadrature engine deflates known turning points out of
        ``mu*D - N`` so the orbit integrands never suffer endpoint
        cancellation.  N adds v**shift(f) times the (c, lambda) part,
        formed on floats, to the model's fixed part.  Raises ConfigError
        unless lambda has N components.
        """
        c, lam = float(params.c), params.lam
        if len(lam) != self.N:
            raise ConfigError(f"lambda must have {self.N} component(s), "
                              f"got {lam.tolist()}")
        fixed, den = self._rational
        if self.kind == "scalar":
            part = [-0.0, -float(lam[0]), -(c / (2.0 * self.b))]
        else:
            lam1, (t0, t1) = float(lam[0]), self.tau
            g0, g1 = -float(lam[1]), -(c / self.b)
            gg = [g0 * g0, g0 * g1 + g1 * g0, g1 * g1]
            part = padd([x * 0.5 for x in gg],
                        [0.0 * t0, 0.0 * t1 + -lam1 * t0, -lam1 * t1])
        return tuple(padd(fixed, [0.0] * self.f.shift + part)), den

    # -- state-space Hessians ------------------------------------------------

    def hamiltonian_hessian(self, U: np.ndarray) -> np.ndarray:
        """Hessian of the zero-gradient energy H(U, 0) at the state U."""
        if self.kind == "scalar":
            return np.array([[self.f_jet(float(U[0]), 2)[2]]])
        v, u = float(U[0]), float(U[1])
        fj = self.f_jet(v, 2)
        t = self.tau_jet(v, 2)
        return np.array([[fj[2] + 0.5 * t[2] * u * u, t[1] * u],
                         [t[1] * u, t[0]]])

    def hamiltonian_gradient(self, U: np.ndarray) -> np.ndarray:
        if self.kind == "scalar":
            return np.array([self.f_jet(float(U[0]), 1)[1]])
        v, u = float(U[0]), float(U[1])
        fj = self.f_jet(v, 1)
        t = self.tau_jet(v, 1)
        return np.array([fj[1] + 0.5 * t[1] * u * u, t[0] * u])

    def impulse_value(self, U: np.ndarray) -> float:
        """Q(U) = U . B^-1 U / 2."""
        if self.kind == "scalar":
            return float(U[0]) ** 2 / (2.0 * self.b)
        return float(U[0]) * float(U[1]) / self.b

    def impulse_gradient(self, U: np.ndarray) -> np.ndarray:
        if self.kind == "scalar":
            return np.array([float(U[0]) / self.b])
        return np.array([float(U[1]) / self.b, float(U[0]) / self.b])


def _derivative_chain(fn: Laurent) -> tuple:
    """(fn, fn', ..., fn^(4))."""
    chain = [fn]
    for _ in range(4):
        chain.append(chain[-1].derivative())
    return tuple(chain)


def _jet(chain: tuple, v: float, order: int) -> np.ndarray:
    return np.array([fn(v) for fn in chain[:order + 1]])


@functools.cache
def structural_matrices(model: ModelSpec) -> StructuralMatrices:
    """B, S and the (N+2) modulation weight with their exact inverses,
    built once per model; the arrays are read-only."""
    b = model.b
    if model.N == 1:
        B = np.array([[b]])
        Binv = np.array([[1.0 / b]])
    else:
        B = np.array([[0.0, b], [b, 0.0]])
        Binv = np.array([[0.0, 1.0 / b], [1.0 / b, 0.0]])
    n = model.N + 2
    S = np.zeros((n, n))
    S[0, 1] = S[1, 0] = -1.0
    S[2:, 2:] = B
    BB = np.zeros((n, n))
    BB[0, 1] = BB[1, 0] = 1.0
    BB[2:, 2:] = B
    Sinv = np.zeros((n, n))
    Sinv[0, 1] = Sinv[1, 0] = -1.0
    Sinv[2:, 2:] = Binv
    BBinv = np.zeros((n, n))
    BBinv[0, 1] = BBinv[1, 0] = 1.0
    BBinv[2:, 2:] = Binv
    for a in (B, Binv, S, BB, BBinv, Sinv):
        a.flags.writeable = False
    return StructuralMatrices(B=B, Binv=Binv, S=S, BB=BB, BBinv=BBinv, Sinv=Sinv)


def reduced_jet(t, g: float, gv: float, fj=()) -> tuple:
    """g'', g''' and [W'', ..., W^(len(fj) - 1)] of a two-field model.

    ``t`` is the tau jet to order 3, ``g`` and ``gv`` the reduced
    velocity and its slope, ``fj`` the f jet (orders 2 to 4 are read).
    g'' and g''' differentiate ``b tau g' = -c - b tau' g``; the W
    derivatives are those of ``-f + tau g^2 / 2`` along it.
    """
    gvv = (-t[2] * g - 2.0 * t[1] * gv) / t[0]
    gvvv = (-t[3] * g - 3.0 * t[2] * gv - 3.0 * t[1] * gvv) / t[0]
    w = []
    if len(fj) > 2:
        w.append(-fj[2] - 0.5 * t[2] * g * g + t[0] * gv * gv)
    if len(fj) > 3:
        w.append(-fj[3] - 0.5 * t[3] * g * g - t[2] * g * gv
                 + t[1] * gv * gv + 2.0 * t[0] * gv * gvv)
    if len(fj) > 4:
        w.append(-fj[4] - 2.0 * t[3] * g * gv - t[2] * g * gvv
                 + 4.0 * t[1] * gv * gvv + 2.0 * t[0] * gvv * gvv
                 + 2.0 * t[0] * gv * gvvv)
    return gvv, gvvv, w


# -- construction ------------------------------------------------------------


_MODEL_KEYS = ("kind", "b", "f", "kappa", "tau", "domain", "label")


def check_keys(block, keys, name: str):
    """Raise ConfigError unless ``block`` is a dict holding only ``keys``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object, got {block!r}")
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {name} key(s) {unknown}; "
                          f"expected {list(keys)}")


def _spec_entry(spec, name: str, keys) -> tuple:
    """The (key, value) of a spec dict holding exactly one of ``keys``."""
    check_keys(spec, keys, f"{name} spec")
    key, val = next(iter(spec.items()), (None, None))
    if len(spec) != 1 or (key in ("inv4v", "identity") and not val):
        raise ConfigError(f"{name} spec must hold exactly one of "
                          f"{list(keys)}, a flag set true: {spec!r}")
    return key, val


def _is_number(x) -> bool:
    """A finite JSON number (bools and numeric strings are not)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _number(val, name: str) -> float:
    if not _is_number(val):
        raise ConfigError(f"{name} must be a finite number, got {val!r}")
    return float(val)


def _coeffs(val, name: str) -> list:
    if not isinstance(val, list) or not val \
            or not all(_is_number(x) for x in val):
        raise ConfigError(f"{name} coefficients must be a non-empty list of "
                          f"finite numbers, got {val!r}")
    return val


def _parse_function(spec, name: str) -> Laurent:
    key, val = _spec_entry(spec, name, ("poly", "laurent", "inv4v"))
    if key == "inv4v":
        return Laurent.from_terms({-1: 0.25})
    if key == "poly":
        return Laurent.make(_coeffs(val, name))
    if not isinstance(val, dict) or not val:
        raise ConfigError(f"{name} laurent terms must be a non-empty "
                          f"{{exponent: coefficient}} object, got {val!r}")
    try:
        terms = {int(e): c for e, c in val.items()}
    except (TypeError, ValueError):
        raise ConfigError(f"{name} laurent exponents must be integers, "
                          f"got {list(val)}") from None
    return Laurent.from_terms({e: _number(c, f"{name} coefficient")
                               for e, c in terms.items()})


def _parse_tau(spec) -> tuple:
    key, val = _spec_entry(spec, "tau", ("const", "affine", "identity"))
    if key == "const":
        return (_number(val, "tau const"), 0.0)
    if key == "affine":
        if not isinstance(val, list) or len(val) != 2:
            raise ConfigError(f"tau affine must be [t0, t1], got {val!r}")
        return (_number(val[0], "tau t0"), _number(val[1], "tau t1"))
    return (0.0, 1.0)


def _parse_domain(val) -> tuple:
    if not isinstance(val, list) or len(val) != 2:
        raise ConfigError(f"domain must be [lo, hi], got {val!r}")
    lo = -math.inf if val[0] is None else _number(val[0], "domain lo")
    hi = math.inf if val[1] is None else _number(val[1], "domain hi")
    if not lo < hi:
        raise ConfigError(f"domain must have lo < hi, got {val!r}")
    return lo, hi


def model_from_dict(cfg: dict) -> ModelSpec:
    """Build a ModelSpec from the JSON config model block.

    Raises ConfigError on a missing field, a key it does not read, a value
    of the wrong type or shape, and ``tau`` on a scalar model.
    """
    check_keys(cfg, _MODEL_KEYS, "model")
    try:
        kind = cfg["kind"]
        b = _number(cfg["b"], "b")
        f = _parse_function(cfg["f"], "f")
        kappa = _parse_function(cfg.get("kappa", {"poly": [1.0]}), "kappa")
    except KeyError as exc:
        raise ConfigError(f"model block missing field {exc}") from None
    tau = None
    if kind == "euler_korteweg":
        tau = _parse_tau(cfg.get("tau", {"const": 1.0}))
    elif "tau" in cfg:
        raise ConfigError("tau applies to euler_korteweg models only")
    if "domain" in cfg:
        lo, hi = _parse_domain(cfg["domain"])
    else:
        needs_positive = (not f.is_poly or not kappa.is_poly
                          or (tau is not None and tau[1] != 0.0))
        lo, hi = (0.0, math.inf) if needs_positive else (-math.inf, math.inf)
    return ModelSpec(kind=kind, b=b, f=f, kappa=kappa, tau=tau,
                     domain=(lo, hi), label=cfg.get("label", "model"))


def gkdv_model(f_coeffs=(0.0, 0.0, 0.0, -1.0 / 6.0), b: float = 1.0,
               kappa=(1.0,), label: str = "gkdv") -> ModelSpec:
    """Generalized KdV convenience constructor (scalar, polynomial)."""
    return ModelSpec(kind="scalar", b=b, f=Laurent.make(f_coeffs),
                     kappa=Laurent.make(kappa), label=label)
