"""Certificate, moment and lattice outputs pinned to their exact float reprs.

Any change to word products, merging, the sphere optimizer, lattice
reduction or enumeration, the height or the random substreams that moves a
bit of these values fails here.  Long per-step series are pinned by the
SHA-256 of their reprs, with their final running averages spelled out.
"""
import hashlib

import numpy as np

from expwalk import catalog
from expwalk.dioph import flow_trace
from expwalk.expansion import expansion_certificate, moment_contraction_estimate
from expwalk.fractal import coding_sample
from expwalk.kau import WeightPair
from expwalk.lattices import (
    HeightSpec,
    lll_reduce,
    parse_observable,
    recurrence_experiment,
    walk_simulate,
)

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
# 15-dimensional adjoint, every Nelder-Mead start runs to maxiter
FIVE_ADJ_EXACT_1 = (
    "-0.48315524142061533",
    "[0.0005258186098152647, 0.00012561571046261464, -3.8190494857525324e-05, "
    "-2.9275303621320996e-06, -6.677102293109703e-05, -1.5794759108013548e-05, "
    "-0.02887553211143863, -0.019955994819733577, -0.000851443508424597, "
    "0.8283230028498225, 0.5569548902222872, 0.048688478320314456, "
    "0.0006390577626931695, -0.008833246010285598, -0.000434944623573681]",
)
FIVE_WEDGE2_MC_2 = (
    "-0.48585227171738",
    "[-0.008926349044479706, 0.041781745610741855, -0.514129266704971, "
    "-0.0641105054499156, 0.8339447533274035, -0.18512615869324453]",
)
MOMENT = {
    1: ("1.1423783917163095", "[0.5525171276010225, -0.8335015439142963]"),
    4: ("0.9090686788382106", "[0.850586287430911, -0.5258354948408291]"),
    8: ("0.4129680988922513", "[-0.5270165226993669, 0.8498550375222046]"),
}

# d=3 carpet flow (a coded point of bm_carpet(2, 3), seed 3), t = 0, 1, .., 20
CARPET_MINIMA = [
    1.0, 0.7357588823428847, 0.46273906357683975, 0.7813572310008405,
    0.6872859217167265, 0.518821918929581, 0.744268995778529, 0.5325390678838374,
    0.7415005247630032, 0.5232386989525414, 0.4060569717956645, 0.6585401182066939,
    0.6769140191785222, 0.5311177157473609, 0.7494950848491245, 0.7354707333246834,
    0.4181306311040168, 0.5108848488405621, 0.5267266442832641, 0.5892555644589774,
    0.4706146877321816,
]
CARPET_SIEGEL = [
    112.0, 108.0, 108.0, 114.0, 118.0, 120.0, 114.0,
    114.0, 116.0, 112.0, 104.0, 116.0, 108.0, 112.0,
    108.0, 112.0, 108.0, 112.0, 112.0, 110.0, 112.0,
]
# shortest:euclid along 20 five-generator steps from a random SL4 point
FIVE_WALK_EUCLID = [
    0.7082718967836329, 0.8484767678361202, 0.8779749813733111, 0.8875888015121198,
    0.8001097214390351, 0.6252373688240708, 0.8567664186427251, 0.7758178565863524,
    0.8544002011216513, 0.6359713885097599, 0.6393327900359919, 0.6554356565187142,
    0.6198982503897267, 0.6057161907860873, 0.7954798655449917, 0.8124305380111408,
    0.5010744160777916, 0.6254854414549553, 0.6999593873114095, 0.8274751610367703,
    0.9761243603898804,
]


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


def test_five_generator_adjoint_and_wedge_certificates_golden():
    mu = catalog.sl4_five_generator_measure()
    cert = expansion_certificate(mu, "adj", N=1, mode="exact", sphere_samples=100, seed=0)
    assert _reprs(cert.C_lower, cert.witness) == FIVE_ADJ_EXACT_1
    cert = expansion_certificate(
        mu, "wedge:2", N=2, mode="mc", mc_words=40, sphere_samples=100, seed=0
    )
    assert _reprs(cert.C_lower, cert.witness) == FIVE_WEDGE2_MC_2


def test_moment_contraction_golden():
    mu = catalog.positive_pair_sl2()
    for n, expected in MOMENT.items():
        ratio, witness = moment_contraction_estimate(mu, "std", delta=0.3, N=n, seed=0)
        assert _reprs(ratio, witness) == expected


def _repr_list(values):
    return [repr(float(v)) for v in values]


def test_carpet_flow_systoles_and_siegel_counts_golden():
    ifs = catalog.bm_carpet(2, 3)
    weights = WeightPair(ifs.weightpair.r, ifs.weightpair.s)
    mat = coding_sample(ifs, 1, seed=3)[0]
    trace = flow_trace(mat, weights, 20.0, dt=1.0, siegel_radius=3.0, siegel_stride=1)
    assert _repr_list(trace.minima) == _repr_list(CARPET_MINIMA)
    assert _repr_list(trace.extras["siegel"]) == _repr_list(CARPET_SIEGEL)


def test_five_generator_walk_euclid_systoles_golden():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    c = rng.uniform(-0.5, 0.5, size=4)
    x0 = lll_reduce(q @ np.diag(np.exp(c - c.mean())))
    rec = walk_simulate(
        catalog.sl4_five_generator_measure(), x0, 20, ["shortest:euclid"], seed=0
    )
    assert _repr_list(rec.values["shortest:euclid"]) == _repr_list(FIVE_WALK_EUCLID)


# 200 positive-pair steps from a random SL2(R) start, seed 7
PAIR_WALK_DIGEST = "24fa6d78c5242ea51740abe5c570eaba3c7ee33e1400cd589c6d241720d6e321"
PAIR_WALK_FINAL = {"siegel:3.0": "27.22", "shortest:sup": "0.6717021948089013", "mahler:0.3": "0.975"}
# 50 five-generator steps (height eps 0.1, delta 0.3), seed 1
FIVE_WALK_DIGEST = "45c2979a8a9d52d819c3d4cfc120254d291dfd2c333212473122f2605e145f2b"
FIVE_WALK_FINAL = {"height": "0.2793405650599286", "shortest:euclid": "0.6633859524152729"}
# positive pair from diag(1e8, 1e-8), m = 13 (the Monte-Carlo averaged height)
RECUR_FIT = ("0.5006571631538146", "0.4150185934988627", "56.675233490321865")
RECUR_FIT_DIGEST = "84a7c71e32054368186938d7d4de6badc8e238502b4748cc39b96a6732c79c16"
RECUR_ENTRIES = [(1, 0.0), (2, 0.0), (4, 0.0), (8, 0.0), (12, 1.0), (16, 1.0)]


def _walk_digest(rec):
    text = "\n".join(
        f"{name} {float(v)!r} {float(r)!r}"
        for name in rec.values
        for v, r in zip(rec.values[name], rec.running[name])
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _final_running(rec):
    return {name: repr(float(run[-1])) for name, run in rec.running.items()}


def test_pair_walk_golden():
    rng = np.random.default_rng(2024)
    theta, a, u = rng.uniform(0, np.pi), np.exp(rng.uniform(-1, 1)), rng.uniform()
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    x0 = lll_reduce(rot @ np.diag([a, 1 / a]) @ np.array([[1.0, u], [0.0, 1.0]]))
    rec = walk_simulate(
        catalog.positive_pair_sl2(), x0, 200, ["siegel:3.0", "shortest:sup", "mahler:0.3"], seed=7
    )
    assert _final_running(rec) == PAIR_WALK_FINAL
    assert _walk_digest(rec) == PAIR_WALK_DIGEST


def test_five_generator_height_walk_golden():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    c = rng.uniform(-0.5, 0.5, size=4)
    x0 = lll_reduce(q @ np.diag(np.exp(c - c.mean())))
    height = parse_observable("height", HeightSpec(0.1, 0.3))
    rec = walk_simulate(
        catalog.sl4_five_generator_measure(), x0, 50, [height, "shortest:euclid"], seed=1
    )
    assert _final_running(rec) == FIVE_WALK_FINAL
    assert _walk_digest(rec) == FIVE_WALK_DIGEST


def test_recurrence_golden():
    table = recurrence_experiment(
        catalog.positive_pair_sl2(),
        HeightSpec(0.1, 0.3),
        0.1,
        lll_reduce(np.diag([1e8, 1e-8])),
        [1, 2, 4, 8, 12, 16],
        mc_trials=20,
        seed=4,
        m=13,
        sample_points=30,
    )
    fit = table.fit
    assert (repr(fit.a_hat), repr(fit.b_hat), repr(table.level)) == RECUR_FIT
    series = repr([fit.beta.tolist(), fit.averaged.tolist(), fit.stderr.tolist()])
    assert hashlib.sha256(series.encode()).hexdigest() == RECUR_FIT_DIGEST
    assert table.entries == RECUR_ENTRIES
