"""Certificate and moment outputs pinned to their exact float reprs.

Any change to word products, merging, the sphere optimizer or the random
substreams that moves a bit of these values fails here.
"""
import numpy as np

from expwalk import catalog
from expwalk.expansion import expansion_certificate, moment_contraction_estimate

PAIR_EXACT = {
    1: ("-0.40235947810852535", "[-0.5661223413064432, 0.8243212326961563]"),
    2: ("-0.22111506504285283", "[0.5795377079478886, -0.814945424593885]"),
    3: ("0.32644456638556024", "[0.5769960726118641, -0.8167469205270899]"),
    4: ("1.0578922348070354", "[0.8164527638287125, -0.577412230937704]"),
    5: ("1.881365118427201", "[0.8165040481260458, -0.5773397088316201]"),
    6: ("2.75083968805683", "[0.8164952968127489, -0.577352085198158]"),
    7: ("3.643317024408385", "[-0.8164968010723779, 0.5773499578579473]"),
    8: ("4.547295415187718", "[-0.8164965431461882, 0.5773503226207852]"),
}
FIVE_EXACT_4 = (
    "-0.4952744931811371",
    "[3.2358188378601146e-06, -1.684495851385793e-05, 0.000882496120313637, "
    "-0.9999996104531113]",
)
FIVE_MC_8 = (
    "-0.6191900690175647",
    "[-5.57496922271004e-07, -1.316244524130026e-06, -1.0791299251365174e-05, "
    "0.9999999999407522]",
)
MOMENT = {
    1: ("1.1423783917163095", "[0.5525171276010225, -0.8335015439142963]"),
    4: ("0.9090686788382106", "[0.850586287430911, -0.5258354948408291]"),
    8: ("0.4129680988922513", "[-0.5270165226993669, 0.8498550375222046]"),
}


def _reprs(value, witness):
    return repr(float(value)), repr(np.asarray(witness).tolist())


def test_positive_pair_exact_certificates_golden():
    mu = catalog.positive_pair_sl2()
    for n, expected in PAIR_EXACT.items():
        cert = expansion_certificate(mu, "std", N=n, mode="exact", seed=0)
        assert _reprs(cert.C_lower, cert.witness) == expected


def test_five_generator_certificates_golden():
    mu = catalog.sl4_five_generator_measure()
    cert = expansion_certificate(mu, "std", N=4, mode="exact", seed=0)
    assert _reprs(cert.C_lower, cert.witness) == FIVE_EXACT_4
    cert = expansion_certificate(
        mu, "std", N=8, mode="mc", mc_words=100, sphere_samples=200, seed=0
    )
    assert _reprs(cert.C_lower, cert.witness) == FIVE_MC_8


def test_moment_contraction_golden():
    mu = catalog.positive_pair_sl2()
    for n, expected in MOMENT.items():
        ratio, witness = moment_contraction_estimate(mu, "std", delta=0.3, N=n, seed=0)
        assert _reprs(ratio, witness) == expected
