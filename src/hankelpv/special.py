"""Special functions: Gamma, log Barnes-G, Kummer Phi, the U-function moment, zeta'(-1).

mpmath supplies the raw evaluations; the wrappers here pin the working
precision, validate arguments against the domains the package actually
uses, and stabilize cancellation-prone cases by precision escalation.
The Barnes-G and zeta'(-1) routines are built from recurrences and an
independent Euler-Maclaurin series so they can serve as oracles for each
other and for mpmath itself.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .precision import (
    NumericsError,
    PrecisionConfig,
    stabilized,
    working_precision,
)


class PoleError(NumericsError):
    """Argument sits on a pole of the requested function."""


class UnsupportedArgumentError(NumericsError):
    """Argument outside the (half-)integer domain supported here."""


def _is_nonpositive_integer(x) -> bool:
    return x <= 0 and x == int(x)


def gamma(x, config: PrecisionConfig) -> mpf:
    """Gamma function, accurate to target_digits relative."""
    with working_precision(config) as ctx:
        xv = mpf(x)
        if _is_nonpositive_integer(xv):
            raise PoleError(f"gamma pole at {xv}")
        return ctx.gamma(xv)


def log_gamma(x, config: PrecisionConfig) -> mpf:
    with working_precision(config) as ctx:
        xv = mpf(x)
        if _is_nonpositive_integer(xv):
            raise PoleError(f"log_gamma pole at {xv}")
        return ctx.loggamma(xv)


def kummer_phi(a, b, z, config: PrecisionConfig) -> mpf:
    """Confluent hypergeometric Phi(a, b; z) = sum (a)_k z^k / ((b)_k k!).

    For z < 0 the series alternates and cancellation can eat digits, so the
    value is recomputed at escalating precision until two precisions agree
    to target_digits (cap: 8x the starting bits, after which an
    EscalationError carrying the last two values is raised).
    """
    with working_precision(config):
        av, bv, zv = mpf(a), mpf(b), mpf(z)
    terminates_at = None
    if av <= 0 and av == int(av):
        terminates_at = int(-av)
    if _is_nonpositive_integer(bv):
        # (b)_k vanishes at k = -b + 1 <= terminates_at unless a cuts first
        if terminates_at is None or -int(bv) < terminates_at:
            raise PoleError(f"kummer_phi parameter pole: b={bv}")

    def evaluate(bits):
        with working_precision(bits):
            return mp.hyp1f1(av, bv, zv)

    value = stabilized(evaluate, config)
    with working_precision(config):
        return mpf(value)


def exp_beta_moment(c, b, t, config: PrecisionConfig) -> mpf:
    """int_0^1 x^c (1-x)^b e^{-t/x} dx for b > -1, t > 0 (c > -1 at t = 0).

    x = 1/(1+u) gives Gamma(b+1) e^{-t} U(b+1, -c, t); at t = 0 it is the
    Beta integral. U is mpmath's hypercomb on the connection formula in two
    1F1 terms (DLMF 13.2.42), which raises its own precision to pay for
    their cancellation. mp.hyperu makes the same call, but only after its
    asymptotic 2F0 series fails, as it must when a >= 1 and 1+a-b > z (at
    every moment anchor): the same bits, 2 to 100 times faster. The two
    terms cancel about 2.9 t bits at the anchors, so the precision cap is
    raised past hypercomb's default once 3 t outgrows it (t above about
    1250 at 128 bits).
    """
    with working_precision(config) as ctx:
        c, b, t = mpf(c), mpf(b), mpf(t)
        if t == 0:
            if not c > -1:
                raise ValueError("moments of negative order need t > 0")
            return gamma(b + 1, config) * gamma(c + 1, config) / gamma(c + b + 2, config)

        def terms(a, b):
            w = ctx.sinpi(b)
            return (([ctx.pi, w], [1, -1], [], [a - b + 1, b], [a], [b], t),
                    ([-ctx.pi, w, t], [1, -1, 1 - b], [], [a, 2 - b], [a - b + 1], [2 - b], t))

        maxprec = max(ctx._default_hyper_maxprec(ctx.prec), int(ctx.prec + 3 * t + 64))
        return (gamma(b + 1, config) * ctx.exp(-t)
                * ctx.hypercomb(terms, [b + 1, -c], maxprec=maxprec))


def _require_twice_integer(x) -> int:
    """Return 2x as an int if x is an integer or half-integer, else raise."""
    doubled = 2 * mpf(x)
    if doubled != int(doubled):
        raise UnsupportedArgumentError(
            f"Barnes G is supported only at positive (half-)integers, got {x}"
        )
    return int(doubled)


def log_barnes_g(x, config: PrecisionConfig) -> mpf:
    """ln G(x) for positive integer or half-integer x.

    Built from the recurrence G(z+1) = Gamma(z) G(z) anchored at G(1) = 1
    for integers and at the closed form
    G(1/2) = 2^(1/24) * pi^(-1/4) * exp(3 zeta'(-1)/2) for half-integers.
    """
    twice = _require_twice_integer(x)
    if twice <= 0:
        raise UnsupportedArgumentError(f"Barnes G argument must be positive, got {x}")
    with working_precision(config) as ctx:
        if twice % 2 == 0:
            n = twice // 2
            # ln G(n) = sum_{z=1}^{n-1} ln Gamma(z)
            total = mpf(0)
            for z in range(1, n):
                total += ctx.loggamma(z)
            return total
        # half-integer: anchor at ln G(1/2)
        total = (
            ctx.log(2) / 24
            - ctx.log(ctx.pi) / 4
            + mpf(3) / 2 * zeta_prime_minus_one(config)
        )
        k = (twice - 1) // 2  # x = k + 1/2
        for j in range(k):
            total += ctx.loggamma(j + mpf(1) / 2)
        return total


def _zeta_prime_at_2(bits: int) -> mpf:
    """zeta'(2) = -sum_{k>=2} ln(k)/k^2 by Euler-Maclaurin tail summation.

    The tail from the cutoff N is
        sum_{k>=N} f(k) = int_N^inf f + f(N)/2 - sum_m B_{2m}/(2m)! f^(2m-1)(N)
    with f(x) = ln(x)/x^2, whose derivatives follow the exact ladder
    f^(m)(x) = (a_m ln x + b_m)/x^(m+2),
    a_{m+1} = -(m+2) a_m, b_{m+1} = a_m - (m+2) b_m, a_0 = 1, b_0 = 0.
    Optimal truncation error ~ e^(-2 pi N), so N ~ bits/8 suffices.
    """
    with working_precision(bits + 64) as ctx:
        N = max(32, bits // 8)
        head = mpf(0)
        for k in range(2, N):
            head += ctx.log(k) / mpf(k) ** 2
        lnN = ctx.log(N)
        tail = (lnN + 1) / N + lnN / (2 * mpf(N) ** 2)
        # derivative ladder up to the needed odd orders
        a_m, b_m = mpf(1), mpf(0)
        derivs = {}
        for m in range(0, 2 * (bits // 8) + 2):
            derivs[m] = (a_m, b_m)
            a_m, b_m = -(m + 2) * a_m, a_m - (m + 2) * b_m
        eps = mpf(2) ** (-(bits + 32))
        previous_term = None
        for m in range(1, bits // 8 + 1):
            am, bm = derivs[2 * m - 1]
            term = (
                ctx.bernoulli(2 * m)
                / ctx.factorial(2 * m)
                * (am * lnN + bm)
                / mpf(N) ** (2 * m + 1)
            )
            if previous_term is not None and abs(term) > abs(previous_term):
                break  # asymptotic series started diverging
            tail -= term
            previous_term = term
            if abs(term) < eps:
                break
        return -(head + tail)


def zeta_prime_minus_one(config: PrecisionConfig) -> mpf:
    """zeta'(-1) via the Glaisher-Kinkelin constant.

    zeta'(-1) = 1/12 - ln A,
    ln A = ln(2 pi)/12 + euler_gamma/12 - zeta'(2)/(2 pi^2),
    with zeta'(2) summed independently by Euler-Maclaurin.
    """
    with working_precision(config) as ctx:
        zp2 = _zeta_prime_at_2(config.bits)
        ln_a = ctx.log(2 * ctx.pi) / 12 + ctx.euler / 12 - zp2 / (2 * ctx.pi**2)
        return mpf(1) / 12 - ln_a


def log_glaisher(config: PrecisionConfig) -> mpf:
    """ln A = 1/12 - zeta'(-1)."""
    with working_precision(config):
        return mpf(1) / 12 - zeta_prime_minus_one(config)
