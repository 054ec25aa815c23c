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
    1: ("-0.4023594781085253", "[-0.8243212320228953, 0.5661223422867675]"),
    2: ("-0.22111506504285272", "[0.579537708205752, -0.814945424410509]"),
    3: ("0.32644456638556035", "[0.5769960726120451, -0.816746920526962]"),
    4: ("1.0578922348070356", "[0.816452763854881, -0.5774122309007025]"),
    5: ("1.8813651184272016", "[0.8165040481252872, -0.577339708832693]"),
    6: ("2.7508396880568258", "[-0.8164952968027365, 0.5773520852123178]"),
    7: ("3.6433170244083857", "[-0.8164968010752345, 0.577349957853908]"),
    8: ("4.547295415187744", "[-0.8164965431461785, 0.5773503226207992]"),
}
FIVE_EXACT_4 = (
    "-0.4952744931811369",
    "[-3.235789156176728e-06, 1.6844931627479927e-05, -0.0008824961111702685, "
    "0.99999961045312]",
)
FIVE_MC_8 = (
    "-0.619190069014449",
    "[-5.574891118357776e-07, -1.3162513689865393e-06, -1.079130008969835e-05, "
    "0.9999999999407523]",
)
# 15-dimensional adjoint: the minimum that L-BFGS-B reaches from the same starts
FIVE_ADJ_EXACT_1 = (
    "-0.48392534774186324",
    "[8.39678509847502e-05, -3.7539281102485253e-06, -5.494400340774182e-10, "
    "-0.00036940275906579623, 5.235373125080651e-05, 1.1681847344473022e-08, "
    "0.028361783401618115, 0.018835410763518377, -2.4820471449279497e-05, "
    "-0.8284192519000356, -0.5568150286445853, -0.05016992799733802, "
    "0.0002993685948509821, -0.0011626819064301367, 0.000890783068623529]",
)
FIVE_WEDGE2_MC_2 = (
    "-0.4858522714545888",
    "[-0.008926349132966846, 0.04178174686059821, -0.5141292664895293, "
    "-0.06411050545130827, 0.8339447530394316, -0.18512616030197057]",
)
MOMENT = {
    1: ("1.1423783917163095", "[0.5525171309154351, -0.8335015417172161]"),
    4: ("0.9090686788382106", "[0.8505862874247988, -0.5258354948507163]"),
    8: ("0.41853898029953374", "[-0.52573115947022, 0.8506507790874575]"),
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
