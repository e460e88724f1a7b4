"""Seeded operation mixes for the three workloads.

An operation is one CLI invocation (``argv`` for ``morera.cli.main``) or, where
the CLI cannot express it, one library call (``verdict`` on a numpy oracle, or
``fiber_integral``).  A workload is a fixed mix of operation kinds per
*round*; each round draws fresh parameters from ``(seed, workload, round)``,
so the same seed always gives the same operations and every round has the
same proportions of kinds.  A run's operations are one *pass* of a few
rounds, repeated until the run's time is up.  Why each workload exists, and
which layers it loads or bypasses, is written down in ``bench/README.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import truth
from morera import funczoo, gridio
from truth import Finding

WORKLOADS = ("zoo-verdict", "zoo-fiber", "text-sources")
BUILTINS = ("absq", "conjugate", "counterexample", "expz", "poly3", "radial-smooth", "rational")
HOLOMORPHIC = ("expz", "poly3", "rational")
# Text forms of the builtins.  radial-smooth, exp(-1/(1 - |z|^2)), has no text
# form that is finite on the closed disc, so it reaches text-sources as a grid
# file only.
BUILTIN_TEXT = {
    "poly3": "z^3 - 2",
    "expz": "exp(z)",
    "rational": "1/(z - 2)",
    "counterexample": "z^2/zbar",
    "conjugate": "conj(z)",
    "absq": "abs(z)^2",
}
# Pencil boundary points with exact unit modulus in decimal.
PENCIL_POINTS = ("-1", "1", "1i", "-1i", "0.6+0.8i", "-0.6+0.8i", "0.8-0.6i", "-0.8-0.6i",
                 "0.28+0.96i", "-0.96-0.28i")
CIRCLES = (16, 32, 64)


@dataclass
class Op:
    """One operation and the ground truth its output is checked against.

    ``check(result)`` gets the child's captured result (``code``, ``stdout``,
    ``stderr``, ``file``, ``value``) and returns a Finding or None.
    """

    label: str
    kind: str  # cli | lib-verdict | lib-fiber-integral
    check: Callable[[dict], Optional[Finding]]
    argv: list = field(default_factory=list)
    lib: dict = field(default_factory=dict)
    output_file: Optional[str] = None


def _num(x: float) -> str:
    return f"{x:.6f}"


def _point(z: complex) -> str:
    """A complex literal the CLI parser accepts (no exponents)."""
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _snap(z: complex) -> complex:
    return complex(float(f"{z.real:.6f}"), float(f"{z.imag:.6f}"))


def deck(rng: np.random.Generator, values, n: int) -> list:
    """``n`` draws from ``values`` with near-equal counts, in random order.

    Cost-driving choices are dealt, not drawn independently, so every round
    of a workload costs about the same whatever the seed.
    """
    values = list(values)
    dealt = [values[i % len(values)] for i in range(n)]
    return [dealt[i] for i in rng.permutation(n)]


def strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> list:
    """One uniform draw from each of ``n`` equal slices of [lo, hi], in random order."""
    edges = lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n
    return [float(_num(x)) for x in rng.permutation(edges)]


def _family_flags(rng: np.random.Generator, circles: int) -> list:
    flags = [
        "--tau", _num(rng.uniform(0.1, 0.45)),
        f"--p={PENCIL_POINTS[rng.integers(len(PENCIL_POINTS))]}",
        "--r-min", _num(rng.uniform(0.02, 0.5)),
        "--circles", str(circles),
    ]
    if rng.random() < 0.5:
        flags += ["--rho", _num(rng.uniform(0.15, 0.7))]
    return flags


def _circle(rng: np.random.Generator) -> tuple:
    if rng.random() < 0.3:
        a = 0j
    else:
        a = _snap(0.6 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
    r = float(_num(rng.uniform(0.1, 1.0 - abs(a))))
    return a, r


def _admissible_z(rng: np.random.Generator, tau: float = 0.25) -> complex:
    """A base point well inside the admissible region of the fiber maps."""
    while True:
        z = _snap(complex(rng.uniform(-0.92, 0.92), rng.uniform(-0.92, 0.92)))
        if abs(z) < 0.92 and abs(z - (tau - 1.0)) > tau + 0.05 and abs(z.imag) > 0.05:
            return z


def _report(result: dict) -> Optional[dict]:
    text = result["file"] if result.get("file") is not None else result["stdout"]
    return truth.parse_json(text)


def _json_check(check, fn):
    def run(result):
        if result.get("error"):
            return Finding(f"raised {result['error'][:160]}")
        report = _report(result)
        if report is None:
            return Finding(f"exit {result['code']} without a JSON report: {result['stderr'].strip()[:160]}")
        return check(fn, result["code"], report)

    return run


def verdict_op(label, source, fn, flags) -> Op:
    return Op(label, "cli", _json_check(truth.check_verdict, fn), ["verdict", *source, *flags])


def sweep_op(label, source, fn, rng, circles, family) -> Op:
    argv = ["sweep", *source, *_family_flags(rng, circles), "--family", family]
    return Op(label, "cli", _json_check(truth.check_sweep, fn), argv)


def circle_op(label, source, fn, rng) -> Op:
    a, r = _circle(rng)
    argv = ["test-circle", *source, f"--center={_point(a)}", "--radius", _num(r)]
    return Op(label, "cli", _json_check(truth.check_test_circle, fn), argv)


def theta_op(label, source, fn, z, w_count, output_file=None, nodes=None) -> Op:
    argv = ["theta", *source, f"--z={_point(z)}", "--w-count", str(w_count)]
    if nodes:
        argv += ["--nodes", str(nodes)]
    if output_file:
        argv += ["-o", output_file]

    def check(result):
        if result.get("error"):
            return Finding(f"raised {result['error'][:160]}")
        out = result["file"] if output_file else result["stdout"]
        return truth.check_theta(fn, z, w_count, result["code"], out or "", result["stderr"])

    return Op(label, "cli", check, argv, output_file=output_file)


def polyline_op(label, source, zs, per_piece) -> Op:
    argv = ["fiber", *source, *[f"--z={_point(z)}" for z in zs], "--points-per-piece", str(per_piece)]
    return Op(label, "cli", lambda result: truth.check_polyline(zs, per_piece, result["code"], result["stdout"]),
              argv)


def fiber_integral_op(label, lib, fn, z, nodes=None) -> Op:
    def check(result):
        return truth.check_fiber_integral(fn, z, result.get("error") or result["value"])

    lib = {**lib, "z": [z.real, z.imag]}
    if nodes:
        lib["nodes"] = nodes
    return Op(label, "lib-fiber-integral", check, lib=lib)


def exp_verdict_op(c: float) -> Op:
    fn = truth.exp_fn(c)

    def check(result):
        if result.get("error"):
            return Finding(f"raised {result['error'][:160]}")
        return truth.check_verdict(fn, None, truth.parse_json(result["stdout"]))

    return Op("lib-verdict:exp(cz)", "lib-verdict", check, lib={"c": c})


def demo_op(label, argv, floor) -> Op:
    return Op(label, "cli", lambda result: truth.check_demo(result["code"], result["stdout"], floor), argv)


def readme_ops(names: tuple, work: str) -> list:
    """The README's CLI examples verbatim (theta's -o path moved into ``work``)."""
    ops = []
    if "verdict" in names:
        ops.append(verdict_op("readme:verdict expz", ["--builtin", "expz"], truth.zoo_fn("expz"),
                              ["--tau", "0.25"]))
        ops.append(verdict_op("readme:verdict counterexample", ["--builtin", "counterexample"],
                              truth.zoo_fn("counterexample"), ["--tau", "0.25"]))
    if "demo" in names:
        ops.append(demo_op("readme:demo-sharpness", ["demo-sharpness"], 0.6))
    if "theta" in names:
        ops.append(theta_op("readme:theta poly3", ["--builtin", "poly3"], truth.zoo_fn("poly3"), 0.5j, 15,
                            output_file=os.path.join(work, "theta.csv")))
        ops[-1].argv = ["theta", "--builtin", "poly3", "--z", "0.5i", "-o", ops[-1].output_file]
    if "fiber" in names:
        ops.append(polyline_op("readme:fiber expr", ["--expr", "z^2"], [0.5j], 256))
        ops[-1].argv = ["fiber", "--expr", "z^2", "--z", "0.5i"]
    return ops


def zoo_verdict_round(rng: np.random.Generator, ctx: dict, index: int) -> list:
    ops = []
    circles = iter(deck(rng, CIRCLES, 7 * 5 + 2))
    families = iter(deck(rng, ("both", "centered", "pencil"), 7 * 2))
    for name in BUILTINS:
        fn = truth.zoo_fn(name)
        source = ["--builtin", name]
        ops += [verdict_op(f"verdict:{name}", source, fn, _family_flags(rng, next(circles))) for _ in range(3)]
        ops += [sweep_op(f"sweep:{name}", source, fn, rng, next(circles), next(families)) for _ in range(2)]
        # test-circle (one circle) costs a third of a sweep; kept to under a
        # quarter of the mix, the median falls among sweeps and verdicts,
        # not at the gap between them and the cheap commands.
        ops += [circle_op(f"test-circle:{name}", source, fn, rng) for _ in range(2)]
    ops += [exp_verdict_op(c) for c in strata(rng, 1.0, 60.0, 6)]
    for _ in range(2):
        floor = float(_num(rng.uniform(0.52, 0.8)))
        argv = ["demo-sharpness", "--tau", _num(rng.uniform(0.1, 0.45)), "--floor", _num(floor),
                "--circles", str(next(circles))]
        ops.append(demo_op("demo-sharpness", argv, floor))
    ops += readme_ops(("verdict", "demo"), ctx["work"])
    return ops


def zoo_fiber_round(rng: np.random.Generator, ctx: dict, index: int) -> list:
    ops = []
    w_counts = iter(deck(rng, range(5, 16), 9))
    for name in HOLOMORPHIC:
        fn = truth.zoo_fn(name)
        for _ in range(3):
            ops.append(theta_op(f"theta:{name}", ["--builtin", name], fn, _admissible_z(rng), next(w_counts)))
        for _ in range(4):
            ops.append(fiber_integral_op(f"lib-fiber-integral:{name}", {"builtin": name}, fn,
                                         _admissible_z(rng)))
    for per_piece in deck(rng, (64, 128, 256), 6):
        zs = [_admissible_z(rng) for _ in range(int(rng.integers(1, 4)))]
        name = BUILTINS[rng.integers(len(BUILTINS))]
        ops.append(polyline_op("fiber", ["--builtin", name], zs, per_piece))
    ops += readme_ops(("theta",), ctx["work"])
    return ops


def _coeff(rng: np.random.Generator) -> complex:
    mag = rng.uniform(0.2, 1.5)
    return _snap(mag * np.exp(2j * np.pi * rng.random()))


def _lit(c: complex) -> str:
    return f"({c.real:.6f}{c.imag:+.6f}i)"


def random_polynomial(rng: np.random.Generator, holomorphic: bool) -> tuple:
    """(text, Laurent) of a cubic in z plus, unless holomorphic, two zbar terms.

    The shape is fixed so that every draw costs the same to evaluate.
    """
    terms = {(j, 0): _coeff(rng) for j in range(4)}
    if not holomorphic:
        terms[(int(rng.integers(0, 3)), 1)] = _coeff(rng)
        terms[(int(rng.integers(0, 3)), 2)] = _coeff(rng)
    text = " + ".join(f"{_lit(c)}*z^{j}*zbar^{k}" for (j, k), c in sorted(terms.items()))
    return text, truth.Laurent(terms)


def random_rational(rng: np.random.Generator, holomorphic: bool) -> tuple:
    """q(z)/(z - b) with |b| > 1, plus s/(zbar - conj(beta)) unless holomorphic."""
    terms = {(j, 0): _coeff(rng) for j in range(3)}
    b = _snap(rng.uniform(1.3, 2.5) * np.exp(2j * np.pi * rng.random()))
    text = "(" + " + ".join(f"{_lit(c)}*z^{j}" for (j, _), c in sorted(terms.items())) + f")/(z - {_lit(b)})"
    s, beta = 0j, None
    if not holomorphic:
        s = _coeff(rng)
        beta = _snap(rng.uniform(1.3, 2.5) * np.exp(2j * np.pi * rng.random()))
        text += f" + {_lit(s)}/(zbar - conj({_lit(beta)}))"
    return text, truth.Laurent(terms, pole_b=b, anti_s=s, anti_beta=beta)


# text-sources loads exprparser and gridio, not scaling in circle count or
# quadrature size, so it holds both fixed: 16 circles per family (a drawn
# count would let a few draws of 64 decide a run's p90, and the CLI default
# of 32 would make a pass too long to repeat in one run), and 64 contour
# nodes, since every point of an --expr source goes through the scalar
# fallback and the default 512 nodes would make one theta table cost seconds.
# Theta tables are 3 x 3, for the same reason: an expression table is the
# costliest operation of the mix, and a larger one would set the run's p90.
TEXT_CIRCLES = 16
TEXT_FIBER_NODES = 64
TEXT_W_COUNT = 3


def text_sources_round(rng: np.random.Generator, ctx: dict, index: int) -> list:
    ops = []
    exprs = [(f"expr:{name}", text, truth.zoo_fn(name)) for name, text in BUILTIN_TEXT.items()]
    for i, c in enumerate(strata(rng, 1.0, 60.0, 2)):
        exprs.append(("expr:exp(cz)", f"exp({c:.6f}*z)", truth.exp_fn(c)))
        text, f = random_polynomial(rng, holomorphic=i == 0)
        exprs.append(("expr:polynomial", text, truth.laurent_fn(f)))
        text, f = random_rational(rng, holomorphic=i == 0)
        exprs.append(("expr:rational", text, truth.laurent_fn(f)))
    grids = ctx["grids"]
    names = sorted(grids)
    families = iter(deck(rng, ("both", "centered", "pencil"), 5))
    for label, text, fn in exprs:
        ops.append(verdict_op(f"verdict:{label}", ["--expr", text], fn, _family_flags(rng, TEXT_CIRCLES)))
    for label, text, fn in exprs[:8]:
        ops.append(circle_op(f"test-circle:{label}", ["--expr", text], fn, rng))
    # One sweep each on a builtin text, an exp(c z) and a random rational:
    # kinds are fixed, so a seed cannot shift the mix's cost.
    for index in (rng.integers(6), 6 + 3 * rng.integers(2), 8 + 3 * rng.integers(2)):
        label, text, fn = exprs[index]
        ops.append(sweep_op(f"sweep:{label}", ["--expr", text], fn, rng, TEXT_CIRCLES, next(families)))

    for name, (path, fn) in grids.items():
        ops.append(verdict_op(f"verdict:grid:{name}", ["--grid", path], fn, _family_flags(rng, TEXT_CIRCLES)))
    for _ in range(4):
        name = names[rng.integers(len(names))]
        ops.append(circle_op(f"test-circle:grid:{name}", ["--grid", grids[name][0]], grids[name][1], rng))
    for _ in range(2):
        name = names[rng.integers(len(names))]
        ops.append(sweep_op(f"sweep:grid:{name}", ["--grid", grids[name][0]], grids[name][1], rng,
                            TEXT_CIRCLES, next(families)))

    # The three fiber operations take the holomorphic builtins in turn, so a
    # pass of three rounds holds each builtin once in each of them.
    holo = [(f"expr:{name}", BUILTIN_TEXT[name], truth.zoo_fn(name)) for name in HOLOMORPHIC]
    label, text, fn = holo[index % 3]
    ops.append(theta_op(f"theta:{label}", ["--expr", text], fn, _admissible_z(rng), TEXT_W_COUNT,
                        nodes=TEXT_FIBER_NODES))
    name = HOLOMORPHIC[(index + 1) % 3]
    ops.append(theta_op(f"theta:grid:{name}", ["--grid", grids[name][0]], grids[name][1],
                        _admissible_z(rng), TEXT_W_COUNT, nodes=TEXT_FIBER_NODES))
    label, text, fn = holo[(index + 2) % 3]
    ops.append(fiber_integral_op(f"lib-fiber-integral:{label}", {"expr": text}, fn, _admissible_z(rng),
                                 nodes=TEXT_FIBER_NODES))
    ops += readme_ops(("fiber",), ctx["work"])
    return ops


ROUNDS = {
    "zoo-verdict": zoo_verdict_round,
    "zoo-fiber": zoo_fiber_round,
    "text-sources": text_sources_round,
}


# Rounds in one pass.  A run's operations are one pass: a fixed list of
# distinct operations, which the run repeats until its time is up, so the
# operations checked and counted depend on the seed alone.  Each pass holds
# 100 or more operations and takes at most about half of a 30 s run.
PASS_ROUNDS = {"zoo-verdict": 2, "zoo-fiber": 4, "text-sources": 3}


def make_round(workload: str, seed: int, index: int, ctx: dict) -> list:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    ops = ROUNDS[workload](rng, ctx, index)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def make_pass(workload: str, seed: int, ctx: dict) -> list:
    """The run's distinct operations: the same list for the same seed."""
    return [op for index in range(PASS_ROUNDS[workload]) for op in make_round(workload, seed, index, ctx)]


def write_grids(seed: int, work: str) -> dict:
    """Grid files for text-sources: every builtin plus two seed-drawn polynomials."""
    grids = {}
    for name in BUILTINS:
        path = os.path.join(work, f"grid-{name}.csv")
        gridio.write_polar_grid(path, funczoo.builtin(name).oracle)
        grids[name] = (path, truth.zoo_fn(name, grid=True))
    rng = np.random.default_rng([seed, WORKLOADS.index("text-sources"), 1 << 20])
    for i in range(2):
        _, f = random_polynomial(rng, holomorphic=i == 0)
        path = os.path.join(work, f"grid-polynomial{i}.csv")
        gridio.write_polar_grid(path, f)
        grids[f"polynomial{i}"] = (path, truth.laurent_fn(f, grid=True))
    return grids
