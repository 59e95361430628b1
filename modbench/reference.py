"""Reference side of every benchmark check, computed apart from modlab.

Nothing here imports modlab.  The model is read from its JSON config
block and everything is derived from the definitions:

* the effective potential W = N / D of the traveling-wave reduction,
  its critical points and the turning points of a level (roots polished
  at 30 digits with mpmath);
* the period by adaptive ``scipy.integrate.quad`` after the substitution
  v = v2 + (v3 - v2) sin^2(theta), with the two turning points factored
  out of mu - W exactly;
* the elliptic closed forms of the cubic (KdV) well and Whitham's three
  KdV characteristic speeds;
* the harmonic-limit closed forms (v0, k0, w0, 1 / (2 W''(v0)) and the
  gKdV index k0 f'''(v0)^2);
* the sech^2 solitary-wave facts of the KdV soliton limit.
"""

from __future__ import annotations

import math

import numpy as np

ROOT_DIGITS = 30


# ascending coefficient lists; plain Python keeps input generation cheap

def _add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0.0) + (b[i] if i < len(b) else 0.0)
            for i in range(n)]


def _mul(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _scale(a, s):
    return [s * x for x in a]


def _der(a):
    return [i * a[i] for i in range(1, len(a))] or [0.0]


def _val(a, v):
    acc = 0.0
    for x in reversed(a):
        acc = acc * v + x
    return acc


class RefModel:
    """Model functions of one config block, as exact polynomial ratios."""

    def __init__(self, block: dict):
        self.kind = block["kind"]
        self.b = float(block["b"])
        self.f = [float(x) for x in block["f"]["poly"]]
        kap = block.get("kappa", {"poly": [1.0]})
        self.kappa_inv4v = bool(kap.get("inv4v"))
        self.kappa_poly = None if self.kappa_inv4v else \
            [float(x) for x in kap["poly"]]
        self.tau = None
        if self.kind == "euler_korteweg":
            t = block.get("tau", {"const": 1.0})
            if "const" in t:
                self.tau = [float(t["const"])]
            elif "affine" in t:
                self.tau = [float(x) for x in t["affine"]]
            else:
                self.tau = [0.0, 1.0]
        positive = self.kappa_inv4v or (
            self.tau is not None and any(self.tau[1:]))
        self.lo = 0.0 if positive else -math.inf

    @property
    def N(self) -> int:
        return 1 if self.kind == "scalar" else 2

    def kappa(self, v):
        return 0.25 / v if self.kappa_inv4v else _val(self.kappa_poly, v)

    def f3(self, v: float) -> float:
        return _val(_der(_der(_der(self.f))), v)

    def potential(self, c: float, lam) -> tuple[list, list]:
        """(N, D) with W = N / D.

        Scalar: W = -f - c v^2 / (2 b) - lam1 v.  System: the reduced
        velocity g = -(c v / b + lam2) / tau gives
        W = -f + tau g^2 / 2 - lam1 v = ((-f - lam1 v) tau + (c v / b + lam2)^2 / 2) / tau.
        """
        if self.kind == "scalar":
            return _add(_scale(self.f, -1.0),
                        [0.0, -lam[0], -c / (2.0 * self.b)]), [1.0]
        s = [lam[1], c / self.b]
        lin = _add(_scale(self.f, -1.0), [0.0, -lam[0]])
        return _add(_mul(lin, self.tau), _scale(_mul(s, s), 0.5)), self.tau

    def _jet_fn(self, c: float, lam, nd=None):
        """v -> (W, W', W'') by the quotient rule on exact polynomials."""
        n, d = nd or self.potential(c, lam)
        ns = [n, _der(n), _der(_der(n))]
        ds = [d, _der(d), _der(_der(d))]

        def jet(v):
            n0, n1, n2 = (_val(a, v) for a in ns)
            d0, d1, d2 = (_val(a, v) for a in ds)
            w = n0 / d0
            w1 = (n1 - w * d1) / d0
            return w, w1, (n2 - 2.0 * w1 * d1 - w * d2) / d0

        return jet

    def W_jet(self, v: float, c: float, lam) -> tuple[float, float, float]:
        """W, W', W'' at v."""
        return self._jet_fn(c, lam)(v)

    def g_jet(self, v: float, c: float, lam) -> tuple[float, float]:
        """Reduced velocity g and g' of a system model."""
        s = (c / self.b) * v + lam[1]
        t, t1 = _val(self.tau, v), _val(_der(self.tau), v)
        return -s / t, (-(c / self.b) * t + s * t1) / (t * t)

    def critical_points(self, c: float, lam) -> list[tuple[float, float]]:
        """(v, W''(v)) for the real critical points of W in the domain."""
        n, d = self.potential(c, lam)
        jet = self._jet_fn(c, lam, (n, d))
        num = _add(_mul(_der(n), d), _scale(_mul(n, _der(d)), -1.0))
        while len(num) > 1 and num[-1] == 0.0:
            num.pop()
        out = []
        for z in np.roots(num[::-1]):
            if abs(z.imag) > 1e-9 * max(1.0, abs(z.real)):
                continue
            x = float(z.real)
            if x <= self.lo:
                continue
            out.append((x, jet(x)[2]))
        return sorted(out)

    def well(self, c: float, lam):
        """(v0, mu0, mu_top): well bottom and the lowest adjacent saddle level.

        Returns None when the family has no well bounded by a saddle.
        """
        jet = self._jet_fn(c, lam)
        crit = self.critical_points(c, lam)
        for i, (x, w2) in enumerate(crit):
            if w2 <= 0.0:
                continue
            tops = [jet(y)[0] for y, w2y in (crit[i - 1:i] + crit[i + 1:i + 2])
                    if w2y < 0.0]
            if tops:
                return x, jet(x)[0], min(tops)
        return None

    def level_roots(self, mu: float, c: float, lam, v0: float):
        """Turning points v2 < v0 < v3 of the level mu and the other roots.

        Returns (v2, v3, others, lead) with mu D - N = lead * prod(v - r)
        over all roots r, ``others`` holding the roots other than v2, v3.
        """
        import mpmath

        n, d = self.potential(c, lam)
        coeffs = _add(_scale(d, mu), _scale(n, -1.0))
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        with mpmath.workdps(ROOT_DIGITS):
            roots = mpmath.polyroots([mpmath.mpf(x) for x in coeffs[::-1]],
                                     maxsteps=200, extraprec=60)
        roots = [complex(r) for r in roots]
        real = sorted(r.real for r in roots
                      if abs(r.imag) <= 1e-12 * max(1.0, abs(r.real))
                      and r.real > self.lo)
        v2 = max(r for r in real if r < v0)
        v3 = min(r for r in real if r > v0)
        ends = {min(range(len(roots)), key=lambda i: abs(roots[i] - x))
                for x in (v2, v3)}
        others = [r for i, r in enumerate(roots) if i not in ends]
        return v2, v3, np.array(others, dtype=complex), coeffs[-1]

    def period_quad(self, mu: float, c: float, lam, v0: float) -> float:
        """Xi = 2 int_{v2}^{v3} sqrt(kappa / (2 (mu - W))) dv by adaptive quad.

        With mu - W = (v - v2)(v3 - v) Q(v) and v = v2 + (v3 - v2) sin^2 th
        the integrand is 4 sqrt(kappa / (2 Q)), smooth on [0, pi/2].
        """
        from scipy.integrate import quad

        v2, v3, others, lead = self.level_roots(mu, c, lam, v0)
        _, d = self.potential(c, lam)

        def integrand(th):
            v = v2 + (v3 - v2) * math.sin(th) ** 2
            q = -lead * np.prod(v - others).real / _val(d, v)
            return math.sqrt(self.kappa(v) / (2.0 * q))

        val, _ = quad(integrand, 0.0, 0.5 * math.pi, epsabs=0.0,
                      epsrel=1e-13, limit=200)
        return 4.0 * val

    # -- harmonic limit ------------------------------------------------------

    def harmonic(self, c: float, lam) -> dict:
        """Zero-amplitude data of the well: v0, W''(v0), k0, w0, c0 law."""
        v0, mu0, _ = self.well(c, lam)
        w2 = self.W_jet(v0, c, lam)[2]
        k0 = math.sqrt(w2 / self.kappa(v0)) / (2.0 * math.pi)
        if self.kind == "scalar":
            # alpha = Xi (<q> - Q(<v>)) = Var(v) / (2 b k0), Var = delta^2 / 2
            w0 = 1.0 / self.b
        else:
            # alpha = Cov(v, g) / (b k0) = g'(v0) delta^2 / (2 b k0)
            w0 = 2.0 * self.g_jet(v0, c, lam)[1] / self.b
        return {"v0": v0, "mu0": mu0, "w2": w2, "k0": k0, "w0": w0,
                "alpha_over_delta2": w0 / (4.0 * k0),
                "c0_law": 1.0 / (2.0 * w2),
                "f3": self.f3(v0)}


# ----------------------------------------------------------------------------
# cubic (KdV) well: mu - W = (v - e1)(v - e2)(e3 - v) / 6, kappa = 1, b = 1


def _sn_moments(m: float):
    """int_0^K sn^(2j)(z|m) dz for j = 0..3."""
    from scipy.special import ellipe, ellipk

    K, E = float(ellipk(m)), float(ellipe(m))
    I0 = K
    I1 = (K - E) / m
    # (2j + 1) m I_{j+1} = 2 j (1 + m) I_j - (2 j - 1) I_{j-1}
    I2 = (2.0 * (1.0 + m) * I1 - I0) / (3.0 * m)
    I3 = (4.0 * (1.0 + m) * I2 - 3.0 * I1) / (5.0 * m)
    return K, E, (I0, I1, I2, I3)


def kdv_elliptic(e1: float, e2: float, e3: float) -> dict:
    """Period, mean and action of the cnoidal wave on (e2, e3).

    v = e3 - (e3 - e2) sn^2(z|m), m = (e3 - e2)/(e3 - e1), dz/dx =
    sqrt(e3 - e1) / (2 sqrt 3); Theta = int v_x^2 dx over one period.
    """
    m = (e3 - e2) / (e3 - e1)
    K, E, (I0, I1, I2, I3) = _sn_moments(m)
    scale = math.sqrt(e3 - e1)
    Xi = 4.0 * math.sqrt(3.0) * K / scale
    mean = e3 - (e3 - e2) * I1 / I0
    J = I1 - (1.0 + m) * I2 + m * I3          # int sn^2 cn^2 dn^2
    theta = (4.0 / math.sqrt(3.0)) * (e3 - e2) ** 2 * scale * J
    return {"Xi": Xi, "mean": mean, "theta": theta}


def kdv_speeds(e1: float, e2: float, e3: float) -> np.ndarray:
    """Whitham's characteristic speeds of the cnoidal wave, sorted.

    With u = v / 6 the Riemann invariants are the half sums of the
    scaled roots, r1 <= r2 <= r3, and m = (r2 - r1) / (r3 - r1).
    """
    from scipy.special import ellipe, ellipk

    s = np.array([e1, e2, e3]) / 6.0
    r1, r2, r3 = 0.5 * (s[0] + s[1]), 0.5 * (s[0] + s[2]), 0.5 * (s[1] + s[2])
    m = (r2 - r1) / (r3 - r1)
    K, E = float(ellipk(m)), float(ellipe(m))
    base = 2.0 * (r1 + r2 + r3)
    return np.sort([
        base - 4.0 * (r2 - r1) * K / (K - E),
        base - 4.0 * (r2 - r1) * (1.0 - m) * K / (E - (1.0 - m) * K),
        base + 4.0 * (r3 - r1) * (1.0 - m) * K / E,
    ])


# ----------------------------------------------------------------------------
# KdV soliton limit: f = -v^3/6, b = kappa = 1, endstate 0


def kdv_soliton(c: float) -> dict:
    """sech^2 facts of v = 3c sech^2(sqrt(c) x / 2) at the saddle vs = 0.

    M(c) = int v_x^2 dx = (24/5) c^(5/2), so d_c M = 12 c^(3/2) and
    d2_c M = 18 sqrt(c).  W''(vs) = -c, the outer turning level is
    vS = 3c, the limiting period scale Xi_s = 2 pi / sqrt(c) (period
    slope Xi_s / pi), and the Hessian blow-up constant
    hs = 4 / (|W''(vs)| (vS - vs)^2).  The splitting of the double
    characteristic grows like sqrt(pi / (hs Xi_s d2_c M)) rho / k.
    """
    XiS = 2.0 * math.pi / math.sqrt(c)
    d2cM = 18.0 * math.sqrt(c)
    hs = 4.0 / (c * (3.0 * c) ** 2)
    return {"dcM": 12.0 * c ** 1.5, "dc2M": d2cM, "XiS": XiS,
            "xi_slope": XiS / math.pi, "hs": hs,
            "split_coefficient": math.sqrt(math.pi / (hs * XiS * d2cM))}


def toy_eigenvalues(eps: float, v: float, a_tilde: float, delta: float,
                    delta_prime: float) -> np.ndarray:
    """Spectrum of [[v, a + eps d'], [eps d, v]]: v -+ sqrt((a + eps d') eps d)."""
    sq = np.sqrt(complex((a_tilde + eps * delta_prime) * eps * delta))
    return np.array([v - sq, v + sq])
