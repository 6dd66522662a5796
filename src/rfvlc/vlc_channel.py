"""Visible-light hop: Lambertian LED cell with a uniformly located user.

The emitter points straight down from height `height`; the receiver lies
uniformly in the illuminated disc of radius cell_radius = height*tan(semi
angle).  Intensity modulation with direct detection makes the electrical
SNR proportional to the square of the optical channel gain, which turns the
uniform position into a bounded power-law SNR distribution.  Its average
BER is an erfc/upper-incomplete-gamma expression, evaluated with
`specfun.erfc_sqrt` and `specfun.upper_gamma`, without scipy.

`derive` computes one cell.  The SNR density, distribution and average
BER also take a `VlcDerived` whose fields are arrays over cells, and then
evaluate every cell in one numpy pass, each equal to its lone call bit
for bit.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .specfun import checked, erfc_sqrt, upper_gamma, validate_snr

__all__ = [
    "VlcParams",
    "VlcDerived",
    "lambertian_order",
    "derive",
    "channel_gain",
    "snr_law",
    "vlc_snr_pdf",
    "vlc_snr_cdf",
    "sample_vlc_snr",
    "vlc_avg_ber",
]

_SQRT_PI = math.sqrt(math.pi)


@checked
class VlcParams(NamedTuple):
    """Optical hop parameters.

    semi_angle: LED half-power semi-angle, degrees, in (0, 90)
    height: vertical emitter-to-receiver-plane distance, m, > 0
    area: photodetector physical area, m^2, > 0
    fov: receiver field of view (half-angle), degrees, in (0, 90]
    refractive_index: concentrator index, >= 1
    filter_gain: optical filter gain, > 0
    responsivity: photodetector responsivity, A/W, > 0
    conv_efficiency: electrical-to-optical conversion efficiency, > 0
    noise_psd: noise power spectral density, W/Hz, > 0
    bandwidth: receiver bandwidth, Hz, > 0
    optical_power: transmitted optical power, W, > 0
    """

    semi_angle: float
    height: float
    area: float
    fov: float
    refractive_index: float
    filter_gain: float
    responsivity: float
    conv_efficiency: float
    noise_psd: float
    bandwidth: float
    optical_power: float

    def _check(self):
        lambertian_order(self.semi_angle)  # the semi-angle rule lives there
        if not (0.0 < self.fov <= 90.0):
            raise ValueError(f"fov must be in (0, 90] degrees, got {self.fov}")
        if not (1.0 <= self.refractive_index < math.inf):
            raise ValueError(
                f"refractive_index must be finite and >= 1, got {self.refractive_index}")
        for name in ("height", "area", "filter_gain", "responsivity",
                     "conv_efficiency", "noise_psd", "bandwidth"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if self.optical_power is None or not (0.0 < self.optical_power < math.inf):
            raise ValueError(f"optical_power must be finite and > 0, got {self.optical_power}")
        derive(self)  # the rule on how the parameters combine lives there


class VlcDerived(NamedTuple):
    """Quantities derived from VlcParams; produced by derive().  The
    closed forms also take one whose fields are arrays over cells."""

    lambert_order: float   # Lambertian mode number m
    cell_radius: float     # illuminated disc radius, m
    height: float          # carried through for gain evaluation
    concentrator: float    # optical concentrator gain
    upsilon: float         # gain numerator: all distance-free factors
    gain_min: float        # channel gain at the cell edge
    gain_max: float        # channel gain directly under the emitter
    snr_min: float         # electrical SNR at the cell edge
    snr_max: float         # electrical SNR under the emitter
    mu_vlc: float          # SNR scale (optical_power * efficiency)^2 / noise_var
    noise_var: float       # receiver noise variance, W


def lambertian_order(semi_angle: float) -> float:
    """Lambertian mode number from the half-power semi-angle in degrees.

    Angles so small that their cosine rounds to 1 have no finite order and
    are rejected."""
    if not (0.0 < semi_angle < 90.0):
        raise ValueError(f"semi_angle must be in (0, 90) degrees, got {semi_angle}")
    log_cos = math.log(math.cos(math.radians(semi_angle)))
    if log_cos == 0.0:
        raise ValueError(
            f"semi_angle {semi_angle:g} degrees is too small: its cosine rounds "
            "to 1, so the Lambertian order is infinite"
        )
    return -math.log(2.0) / log_cos


def derive(params: VlcParams) -> VlcDerived:
    """Compute the derived optical-cell quantities, and check that floats
    can hold them; VlcParams runs this when it is built.

    The SNR at emitter distance D is mu_vlc * upsilon^2 * D^-(2m + 6), and
    the Monte Carlo kernel forms it as a float.  A narrow beam gives a high
    Lambertian order m, and upsilon's factor height ** (m + 1) then
    overflows above 1 m or underflows below it.  Raises ValueError when
    that scale is not a finite float > 0, or when the SNR cannot be
    evaluated as a finite float > 0 over the cell, from under the emitter
    out to its edge."""
    m = lambertian_order(params.semi_angle)
    # an error before the scale is formed is an overflow, or a divisor that
    # underflowed to 0: either way the scale is past the float range
    scale = math.inf
    try:
        psi = math.radians(params.fov)
        conc = params.refractive_index**2 / math.sin(psi) ** 2
        upsilon = (
            params.area
            * (m + 1.0)
            * params.responsivity
            / (2.0 * math.pi)
            * params.filter_gain
            * conc
            * params.height ** (m + 1.0)
        )
        noise_var = params.noise_psd * params.bandwidth
        mu_vlc = (params.optical_power * params.conv_efficiency) ** 2 / noise_var
        scale = mu_vlc * upsilon**2
        if 0.0 < scale < math.inf:
            radius = params.height * math.tan(math.radians(params.semi_angle))
            gain_max = upsilon / params.height ** (m + 3.0)
            gain_min = upsilon / (radius**2 + params.height**2) ** (0.5 * (m + 3.0))
            snr_min, snr_max = mu_vlc * gain_min**2, mu_vlc * gain_max**2
            if snr_min > 0.0 and snr_max < math.inf:
                return VlcDerived(
                    lambert_order=m,
                    cell_radius=radius,
                    height=params.height,
                    concentrator=conc,
                    upsilon=upsilon,
                    gain_min=gain_min,
                    gain_max=gain_max,
                    snr_min=snr_min,
                    snr_max=snr_max,
                    mu_vlc=mu_vlc,
                    noise_var=noise_var,
                )
    except (OverflowError, ZeroDivisionError):
        pass
    if 0.0 < scale < math.inf:
        problem, power = (
            "the optical SNR mu_vlc * (upsilon / D ** (m + 3))^2 cannot be evaluated "
            "as a float > 0 at every emitter distance D in the cell", m + 3.0)
    else:
        problem, power = (
            f"the optical SNR scale mu_vlc * upsilon^2 = {scale:g} is not a finite "
            "float > 0", m + 1.0)
    raise ValueError(
        f"{problem} (optical_power {params.optical_power:g} W; semi_angle "
        f"{params.semi_angle:g} degrees gives Lambertian order {m:.6g}, so "
        f"height {params.height:g} m enters as height ** {power:.6g})"
    )


def channel_gain(radial_distance, d: VlcDerived):
    """DC optical channel gain at horizontal distance r from the cell
    center, for r in [0, cell_radius].  Vectorized."""
    r = np.asarray(radial_distance, dtype=float)
    if not np.all((r >= 0.0) & (r <= d.cell_radius * (1.0 + 1e-12))):  # NaN fails both
        raise ValueError(
            f"radial_distance must lie in [0, cell_radius={d.cell_radius:g}]"
        )
    out = d.upsilon / (r**2 + d.height**2) ** (0.5 * (d.lambert_order + 3.0))
    return float(out) if np.ndim(radial_distance) == 0 else out


def _log_scale(d: VlcDerived):
    # log of (mu_vlc * upsilon^2); shared by the pdf/cdf/ber closed forms
    return np.log(d.mu_vlc) + 2.0 * np.log(d.upsilon)


def vlc_snr_pdf(gamma, d: VlcDerived):
    """Density of the optical-hop electrical SNR: a power law on
    [snr_min, snr_max], zero outside.  Vectorized over the SNRs and the
    cells of `d`, which broadcast."""
    g = validate_snr(gamma)
    m = d.lambert_order
    expo = 1.0 / (m + 3.0)
    coeff = np.exp(_log_scale(d) * expo) / (d.cell_radius**2 * (m + 3.0))
    inside = (g >= d.snr_min) & (g <= d.snr_max)
    safe = np.where(inside, g, 1.0)
    out = np.where(inside, coeff * safe ** (-(m + 4.0) / (m + 3.0)), 0.0)
    return float(out) if np.ndim(out) == 0 else out


def vlc_snr_cdf(gamma, d: VlcDerived):
    """Distribution function of the optical-hop SNR, clamped to 0 below
    snr_min and 1 above snr_max.  Vectorized over the SNRs and the cells
    of `d`, which broadcast."""
    g = validate_snr(gamma)
    m = d.lambert_order
    r2 = d.cell_radius**2
    l2 = d.height**2
    log_scale = _log_scale(d)
    with np.errstate(divide="ignore"):
        # squared emitter distance (mu_vlc*upsilon^2/g)^(1/(m+3)):
        # r_f^2 + L^2 at snr_min, L^2 at snr_max
        dist2 = np.exp((log_scale - np.log(np.where(g > 0.0, g, 1.0))) / (m + 3.0))
    raw = np.clip((r2 + l2 - dist2) / r2, 0.0, 1.0)
    out = np.where(g < d.snr_min, 0.0, np.where(g > d.snr_max, 1.0, raw))
    return float(out) if np.ndim(out) == 0 else out


def snr_law(d: VlcDerived):
    """(scale, expo, r2, l2) of the optical SNR as a function of the
    user's squared-radius fraction u in [0, 1]: the SNR at squared emitter
    distance r2 * u + l2 is scale * (r2 * u + l2) ** expo."""
    return (
        d.mu_vlc * d.upsilon**2,
        -(d.lambert_order + 3.0),
        d.cell_radius**2,
        d.height**2,
    )


def sample_vlc_snr(d: VlcDerived, rng: np.random.Generator, size=None):
    """Draw SNR samples by placing the user uniformly in the disc:
    r^2 = cell_radius^2 * U puts the squared radius uniform on [0, r_f^2]."""
    u = rng.random(size)
    scale, expo, r2, l2 = snr_law(d)
    # np.power, not **: a lone draw is a Python float, and float ** can
    # differ by an ulp from the ufunc that raises an array
    snr = scale * np.power(r2 * u + l2, expo)
    return float(snr) if size is None else snr


def vlc_avg_ber(d: VlcDerived):
    """Average bit error probability of coherent binary signalling on the
    optical hop, P = E[erfc(sqrt(snr))/2], in closed form.

    With beta = 1/(m+3) and q = (m+1)/(2m+6), integrating the power-law
    density against erfc gives

        P = (mu_vlc * upsilon^2)^beta / (2 r_f^2) * (h(snr_min) - h(snr_max)),
        h(g) = g^-beta erfc(sqrt g) - Gamma(q, g) / sqrt(pi)

    where h(g) is beta times the upper tail integral of t^(-beta-1)
    erfc(sqrt t), hence positive and decreasing.  q lies in (1/6, 1/2),
    where `specfun.upper_gamma` evaluates Gamma(q, g).  For large g the
    two terms of h nearly cancel (h ~ (1/2 - q)/g of either), so erfc
    comes from `specfun.erfc_sqrt`, which takes exp(-g) from g itself: a
    rounded sqrt(g) would cost up to about 1e-10 relative there.  Where
    snr_min is near log(DBL_MAX) ~ 709, both h are subnormal and their
    difference can lose its sign; the value is then below the normal
    float range, and 0.0 is returned.

    A float for one cell; for a `d` whose fields are arrays over cells,
    the array of their BERs, erfc and Gamma each taken in one call over
    all the cell-edge SNRs.
    """
    m = d.lambert_order
    beta = 1.0 / (m + 3.0)
    q = (m + 1.0) / (2.0 * m + 6.0)
    ends = np.array([d.snr_min, d.snr_max])  # (2,) + the cells' shape
    erfc = erfc_sqrt(ends.ravel()).reshape(ends.shape)
    h = ends ** (-beta) * erfc - upper_gamma(q, ends) / _SQRT_PI
    pref = np.exp(_log_scale(d) * beta) / (2.0 * d.cell_radius**2)
    diff = h[0] - h[1]
    out = np.where(diff > 0.0, pref * diff, 0.0)
    return float(out) if np.ndim(out) == 0 else out
