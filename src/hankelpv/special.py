"""Special functions: Gamma, log Barnes-G, Kummer Phi, the U-function moment, zeta'(-1).

mpmath supplies the raw evaluations; the wrappers here pin the working
precision, validate arguments against the domains the package actually
uses, and certify cancellation-prone cases with precision.stabilized.
log Barnes-G is built from the Gamma recurrence; its half-integer anchor
takes zeta'(-1) = 1/12 - ln A from mpmath's Glaisher constant. The tests'
references are mp.barnesg, mp.zeta(-1, derivative=1) and frozen literals.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .precision import (
    NumericsError,
    PrecisionConfig,
    stabilized,
    working_precision,
)


# past this t the U-function moment raises at once (exp_beta_moment)
ANCHOR_T_MAX = 4096


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
    value is certified by precision.stabilized: a second run at 64 more bits,
    and one escalation to doubled bits before EscalationError.
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

    def evaluate(cfg):
        with working_precision(cfg):
            return mp.hyp1f1(av, bv, zv)

    value, _ = stabilized(evaluate, config)
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

    hypercomb climbs to that precision by about the working bits per pass,
    and each pass sums 1F1 series of about 4.6 t terms, so an anchor's cost
    grows like t^3: one anchor at 128 bits takes 1 s at t = 1000, 8 s at
    2000, 32 s at 3000 and 2 minutes at 4000. Its first pass allows 100
    terms per working bit, so the series give up past t of about
    21.7 (bits + 60): 4,070 at 128 bits, 6,840 at 256 and 12,390 at 512.
    Below that the anchors converge, but slowly: at 512 bits one takes 26 s
    at t = 4096 and 9 minutes at t = 10^4. So past ANCHOR_T_MAX, above
    every t that converges at 128 bits, the moment raises NumericsError at
    once; below it every value is the one hypercomb gives, and its
    NoConvergence becomes a NumericsError too.
    """
    with working_precision(config) as ctx:
        c, b, t = mpf(c), mpf(b), mpf(t)
        if t > ANCHOR_T_MAX:
            raise NumericsError(f"the U-function moment at t={mp.nstr(t, 8)} is past the "
                                f"anchors' range t <= {ANCHOR_T_MAX}, where hypercomb's 1F1 series "
                                "give up or run for minutes")
        if t == 0:
            if not c > -1:
                raise ValueError("moments of negative order need t > 0")
            return gamma(b + 1, config) * gamma(c + 1, config) / gamma(c + b + 2, config)

        def terms(a, b):
            w = ctx.sinpi(b)
            return (([ctx.pi, w], [1, -1], [], [a - b + 1, b], [a], [b], t),
                    ([-ctx.pi, w, t], [1, -1, 1 - b], [], [a, 2 - b], [a - b + 1], [2 - b], t))

        maxprec = max(ctx._default_hyper_maxprec(ctx.prec), int(ctx.prec + 3 * t + 64))
        try:
            u = ctx.hypercomb(terms, [b + 1, -c], maxprec=maxprec)
        except ctx.NoConvergence as exc:
            raise NumericsError(f"the U-function moment failed to converge at "
                                f"t={mp.nstr(t, 8)}: hypercomb gave up on its 1F1 series") from exc
        return gamma(b + 1, config) * ctx.exp(-t) * u


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


def zeta_prime_minus_one(config: PrecisionConfig) -> mpf:
    """zeta'(-1) = 1/12 - ln A, with A the Glaisher-Kinkelin constant.

    mpmath evaluates A (mp.glaisher) to full working precision and caches
    it per precision.
    """
    with working_precision(config) as ctx:
        return mpf(1) / 12 - ctx.log(ctx.glaisher)
