"""The three benchmark workloads: seeded inputs, timed ops and correctness checks.

A workload generates its inputs from the seed during set-up, then serves
its ops in rounds. A round is the unit whose composition never changes
(one system of every structural kind, one Monte-Carlo call, or the whole
command list over every file), so a window made of whole rounds measures
the same mix of work whatever the seed. Each op returns the number of work
units it completed; everything needed to check its output is kept and
checked after the timed window closes.

Realstab is reached only through module attributes (``realization.build_...``)
so that the tracer's wrappers, installed after set-up, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from realstab import analysis, cli, fileio, iop, matrix, realization, sls, uncertainty, youla
from realstab import errors
from realstab.poly import Polynomial
from realstab.ratfun import RationalFunction


class Op(NamedTuple):
    """One timed operation.

    ``run()`` returns (work units completed, output); after the window,
    ``check(output)`` returns an error message or None.
    """

    label: str
    run: Callable
    check: Callable


class Workload:
    """Interface shared by the workloads."""

    name = ""
    unit = ""
    input_sha256 = ""
    oracle_checked = 0

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def oracle(self) -> list[str]:
        """Checks run once after the window; returns the errors found."""
        return []

    def cleanup(self) -> None:
        pass


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


# -- identity-suite -----------------------------------------------------------
#
# Inputs are plain nested tuples of Fractions; an op turns them into realstab
# objects (the "build" step), closes the loop, inverts I - R, checks the
# identity and classifies S. The coefficient distributions are those of the
# test suite's criterion-1 generators; the family and sizes follow a fixed
# cycle so that every round holds the same structural mix.

IDENTITY_KINDS = (
    [("plant-controller", 0, m, p) for p in (1, 2) for m in (1, 2)]
    + [(fam, n, m, 1) for fam in ("state-feedback", "sf-sls")
       for n in (1, 2, 3, 4) for m in (1, 2)]
    + [("output-feedback", n, m, p) for n in (1, 2, 3, 4) for m in (1, 2) for p in (1, 2)]
)
IDENTITY_POOL_ROUNDS = 64
ORACLE_SYSTEMS = 12
ORACLE_MAX_SIZE = 4


def _rational(rng, lo=-3, hi=3, dens=(1, 2, 3)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _poly(rng, degree):
    coeffs = [_rational(rng) for _ in range(degree + 1)]
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return tuple(coeffs)


def _proper(rng, max_deg=2):
    dden = rng.randint(0, max_deg)
    den = _poly(rng, dden)
    num = tuple(_rational(rng) for _ in range(rng.randint(0, dden) + 1))
    return num, den


def _proper_tm(rng, rows, cols):
    return rows, cols, tuple(_proper(rng) for _ in range(rows * cols))


def _strictly_proper_tm(rng, rows, cols):
    den = _poly(rng, 2)
    return rows, cols, tuple(((_rational(rng), _rational(rng)), den)
                             for _ in range(rows * cols))


def _fm(rng, rows, cols, lo=-2, hi=2, dens=(1, 2, 3)):
    return tuple(tuple(_rational(rng, lo, hi, dens) for _ in range(cols)) for _ in range(rows))


def _identity_spec(rng, kind):
    family, n, m, p = kind
    if family == "plant-controller":
        return family, (_proper_tm(rng, p, m), _proper_tm(rng, m, p))
    ss = (_fm(rng, n, n), _fm(rng, n, m), _fm(rng, p, n), _fm(rng, p, m))
    if family == "state-feedback":
        return family, (ss, _proper_tm(rng, m, n))
    if family == "sf-sls":
        return family, (ss, _strictly_proper_tm(rng, n, n), _strictly_proper_tm(rng, m, n))
    return family, (ss, _proper_tm(rng, m, p))


def _tm(spec):
    rows, cols, entries = spec
    return matrix.TransferMatrix(rows, cols, [RationalFunction(Polynomial(num), Polynomial(den))
                                              for num, den in entries])


def _ss(spec):
    return matrix.StateSpace(*spec)


def _build(spec):
    family, payload = spec
    if family == "plant-controller":
        return realization.build_plant_controller(_tm(payload[0]), _tm(payload[1]))
    if family == "state-feedback":
        return realization.build_state_feedback(_ss(payload[0]), _tm(payload[1]))
    if family == "sf-sls":
        return realization.build_sf_sls(_ss(payload[0]), _tm(payload[1]), _tm(payload[2]))
    return realization.build_output_feedback(_ss(payload[0]), _tm(payload[1]))


def _size(spec) -> int:
    """Number of rows of I - R for a system spec."""
    family, payload = spec
    if family == "plant-controller":
        return payload[0][0] + payload[0][1]
    n, m, p = len(payload[0][0]), len(payload[0][1][0]), len(payload[0][2])
    if family == "state-feedback":
        return n + m
    if family == "sf-sls":
        return 2 * n + m
    return n + m + p


class IdentitySuite(Workload):
    name = "identity-suite"
    unit = "systems"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.pool = []
        for r in range(IDENTITY_POOL_ROUNDS):
            rng = random.Random(f"identity-suite:{seed}:{r}")
            self.pool.append([_identity_spec(rng, kind) for kind in IDENTITY_KINDS])
        self.input_sha256 = _digest(self.pool)
        # The oracle re-inverts a seeded choice of round 0's small systems;
        # round 0 always completes, and only those ops keep their matrices.
        small = [i for i, spec in enumerate(self.pool[0]) if _size(spec) <= ORACLE_MAX_SIZE]
        self.oracle_ops = set(random.Random(f"identity-oracle:{seed}").sample(
            small, min(ORACLE_SYSTEMS, len(small))))
        self.oracle_outputs = []
        self._op(self.pool[0][0], keep=False)()  # warm-up: one small system end to end

    def _op(self, spec, keep: bool):
        def run():
            system = _build(spec)
            try:
                S = realization.stability_matrix(system)
            except errors.NoStabilityMatrix:
                # Singular I - R is a documented outcome; the oracle confirms det = 0.
                self.oracle_outputs.append((system, None))
                return 1, True
            ok = realization.verify_rs_identity(system, S)
            analysis.stability_verdict(S)
            if keep:
                self.oracle_outputs.append((system, S))
            return 1, ok
        return run

    def round_ops(self, r: int) -> list[Op]:
        specs = self.pool[r % IDENTITY_POOL_ROUNDS]
        return [Op(spec[0], self._op(spec, r == 0 and i in self.oracle_ops), self._check_op)
                for i, spec in enumerate(specs)]

    @staticmethod
    def _check_op(ok):
        return None if ok is True else "verify_rs_identity returned False"

    def oracle(self) -> list[str]:
        """sympy's exact inverse of I - R must equal S (or det(I - R) must vanish)."""
        import sympy
        from sympy.polys.matrices import DomainMatrix

        z = sympy.Symbol("z")

        def expr(rf):
            num = sum(sympy.Rational(c.numerator, c.denominator) * z ** k
                      for k, c in enumerate(rf.num.coeffs))
            den = sum(sympy.Rational(c.numerator, c.denominator) * z ** k
                      for k, c in enumerate(rf.den.coeffs))
            return num / den

        found = []
        for system, S in self.oracle_outputs:
            loop = system.loop_matrix()
            dm = DomainMatrix.from_Matrix(
                sympy.Matrix(loop.rows, loop.cols, [expr(e) for e in loop.entries])).to_field()
            if S is None:
                if dm.det() != 0:
                    found.append(f"NoStabilityMatrix on a {loop.rows}x{loop.rows} loop "
                                 "whose det(I - R) is not zero")
                continue
            inv = dm.inv().to_Matrix()
            if any(sympy.cancel(inv[a, b] - expr(S[a, b])) != 0
                   for a in range(loop.rows) for b in range(loop.cols)):
                found.append(f"S of a {loop.rows}x{loop.rows} loop differs from sympy's inverse")
        self.oracle_checked = len(self.oracle_outputs)
        return found


# -- mc-cor7 ------------------------------------------------------------------
#
# The test suite's scalar output-feedback fixture: A = 1/2, B = C = 1, D = 0,
# K = -1/2. Every call draws MC_SAMPLES samples below the cor8 margin, so the
# paper's guarantee says all of them are stable.

MC_SAMPLES = 20
MC_RADIUS_SHARE = 0.99


class McCor7(Workload):
    name = "mc-cor7"
    unit = "samples"

    def setup(self, seed: int, workdir: Path) -> None:
        half = Fraction(1, 2)
        ss = matrix.StateSpace([[half]], [[1]], [[1]], [[0]])
        K = matrix.TransferMatrix(1, 1, [RationalFunction(-half)])
        self.maps = sls.sls_of_from_controller(ss, K)
        self.margin = sls.sls_of_margin(self.maps)
        self.mask = frozenset({("x", "x"), ("x", "u"), ("y", "x"), ("y", "u")})
        self.seed = seed
        self.input_sha256 = _digest({"A": "1/2", "B": "1", "C": "1", "D": "0", "K": "-1/2",
                                     "radius": MC_RADIUS_SHARE * self.margin,
                                     "samples": MC_SAMPLES, "seed": seed, "order": 1})
        self._call(0, 2)()

    def _call(self, r: int, n: int):
        spec = uncertainty.UncertaintySpec(block_mask=self.mask,
                                           radius=MC_RADIUS_SHARE * self.margin,
                                           sample_order=1,
                                           seed=self.seed * 1_000_000 + r * MC_SAMPLES)

        def run():
            cert = uncertainty.monte_carlo_certify(self.maps, spec, n, "cor7")
            return n, cert
        return run

    def round_ops(self, r: int) -> list[Op]:
        return [Op("monte_carlo_certify", self._call(r, MC_SAMPLES), self._check_op)]

    def _check_op(self, cert):
        st = cert.sample_stats
        if st.n_stable != st.n_samples or not cert.verdict.is_stable:
            return f"{st.n_samples - st.n_stable} non-stable samples below the margin"
        if cert.margin != self.margin:
            return f"margin {cert.margin} differs from the set-up margin {self.margin}"
        return None


# -- cli-pipeline -------------------------------------------------------------
#
# System files written in set-up: the scalar loop (G = 1/z, K = 1/2) and a
# pool of plant sets, each holding one SISO plant of every order 2-4 with
# deadbeat gains F, L and the observer-based controller they give. Round r
# drives the scalar loop and plant set r (mod the pool) through the
# in-process CLI; every command writes its output into the round's own
# directory. Fresh plants in every round make a run average over many
# plants, so its figures depend little on which plants one seed draws.

CLI_ORDERS = (2, 3, 4)
CLI_POOL_SETS = 24
CLI_COR3_SAMPLES = 20
CLI_LEMMA2_SAMPLES = 3
CLI_FREQ_POINTS = 256
CONSTRAINT_HOOK = "constraint_hook:perturbed_stability_is_proper"
_SYNTHESIZED = ("iop.json", "youla.json", "of.json", "sf.json", "sf_of.json")


def _plant_spec(rng, n):
    """Random SISO plant as in the test suite's output-feedback fixtures.

    A has integer entries in {-1, 0, 1}, B = e_1, C = e_n, D = 0; integer
    entries keep the cost of a plant's algebra narrow across seeds.
    """
    B = tuple((Fraction(int(i == 0)),) for i in range(n))
    C = (tuple(Fraction(int(j == n - 1)) for j in range(n)),)
    return _fm(rng, n, n, -1, 1, (1,)), B, C, ((Fraction(0),),)


@dataclass(frozen=True)
class _CliFile:
    """A system file plus what its commands need: perturbation, radii, gains."""

    path: Path
    delta_path: Path
    expect_perturb: int
    cor3_radius: float
    lemma2_radius: float
    gains_json: str | None = None


class CliPipeline(Workload):
    name = "cli-pipeline"
    unit = "commands"

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        half = Fraction(1, 2)
        loop = fileio.SystemDocument(
            kind="plant-controller",
            plant=matrix.TransferMatrix(1, 1, [RationalFunction(1, Polynomial.z())]),
            controller=matrix.TransferMatrix(1, 1, [RationalFunction(half)]))
        # Plant block bumped by 1.0: the loop's pole moves onto the unit circle (exit 2).
        self.loop = _CliFile(self._write_system(loop, "loop.json"),
                             self._write_delta(1, "loop_delta.json"), 2, 0.99,
                             self._lemma2_radius(loop))
        rng = random.Random(f"cli-pipeline:{seed}")
        self.sets, specs = [], []
        for k in range(CLI_POOL_SETS):
            files = {}
            for n in CLI_ORDERS:
                doc, margin, spec = self._plant_document(rng, n)
                specs.append(spec)
                # A constant plant perturbation of half the cor3 margin keeps the loop stable.
                dg = Fraction(0.5 * margin).limit_denominator(1 << 20) * rng.choice((-1, 1))
                gains = json.dumps({g: fileio.fm_to_json(doc.gains[g]) for g in ("F", "L")})
                files[f"set{k}_plant{n}"] = _CliFile(
                    self._write_system(doc, f"set{k}_plant{n}.json"),
                    self._write_delta(dg, f"set{k}_plant{n}_delta.json"), 0, 0.9 * margin,
                    self._lemma2_radius(doc), gains)
            self.sets.append(files)
        self.input_sha256 = _digest({"files": sorted(
            (p.name, p.read_text()) for p in workdir.iterdir()), "specs": specs})
        self.sink = io.StringIO()
        warm = workdir / "warm"
        warm.mkdir()
        for op in self._commands("loop", self.loop, warm, 0)[:3]:
            op.run()

    def _write_system(self, doc, name) -> Path:
        path = self.workdir / name
        fileio.save_system(doc, path)
        return path

    def _write_delta(self, dg, name) -> Path:
        blocks = (("y", 1), ("u", 1))
        delta = matrix.TransferMatrix(2, 2, [0, dg, 0, 0], blocks, blocks)
        pert = realization.AdditivePerturbation(delta, frozenset({("y", "u")}))
        path = self.workdir / name
        path.write_text(fileio.dumps_canonical(fileio.perturbation_to_json(pert)))
        return path

    @staticmethod
    def _lemma2_radius(doc) -> float:
        # Half the small-gain radius of the loop's stability matrix: every sample is stable.
        S = realization.stability_matrix(fileio.build_realization(doc))
        return 0.5 / analysis.hinf_norm(S)

    @staticmethod
    def _plant_document(rng, n):
        while True:
            spec = _plant_spec(rng, n)
            ss = matrix.StateSpace(*spec)
            try:
                F = youla.deadbeat_state_gain(ss)
                L = youla.deadbeat_observer_gain(ss)
            except errors.NotStabilizing:
                continue
            K = youla.observer_controller(ss, F, L)
            if K.is_zero():
                continue  # zero controller: infinite margin, nothing to sample below
            G = ss.transfer()
            S = realization.stability_matrix(realization.build_plant_controller(G, K))
            if not analysis.stability_verdict(S).is_stable:
                continue
            margin = iop.iop_margin(iop.iop_from_loop(G, K))
            doc = fileio.SystemDocument(kind="plant-controller", plant=G, controller=K,
                                        state_space=ss, gains={"F": F, "L": L, "K": F})
            return doc, margin, spec

    def _cli(self, label, argv, expect):
        sink = self.sink

        def run():
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
            return 1, code

        def check(code):
            return None if code == expect else f"exit {code}, expected {expect}"
        return Op(label, run, check)

    def _commands(self, key, file: _CliFile, out: Path, r: int) -> list[Op]:
        f = str(file.path)
        seed = str(self.seed * 1000 + r)
        o = {name: str(out / f"{key}_{name}") for name in _SYNTHESIZED + (
            "margin3.json", "margin8.json", "analyze.json", "perturb.json", "freq.csv",
            "sample3.json", "lemma2.json")}
        ops = [
            self._cli("synthesize-iop", ["synthesize", f, "--family", "iop",
                                         "--out", o["iop.json"]], 0),
            self._cli("margin-cor3", ["margin", o["iop.json"], "--condition", "cor3",
                                      "--probe", "--report", o["margin3.json"]], 0),
            self._cli("analyze", ["analyze", f, "--report", o["analyze.json"]], 0),
            self._cli("perturb", ["perturb", f, str(file.delta_path),
                                  "--report", o["perturb.json"]], file.expect_perturb),
            self._cli("freqresp", ["freqresp", f, "--points", str(CLI_FREQ_POINTS),
                                   "--out", o["freq.csv"]], 0),
            self._cli("sample-cor3", ["sample", o["iop.json"], "--radius",
                                      repr(file.cor3_radius), "--n", str(CLI_COR3_SAMPLES),
                                      "--seed", seed, "--condition", "cor3",
                                      "--report", o["sample3.json"]], 0),
            self._cli("sample-lemma2", ["sample", f, "--radius", repr(file.lemma2_radius),
                                        "--n", str(CLI_LEMMA2_SAMPLES), "--seed", seed,
                                        "--condition", "lemma2-direct", "--constraint",
                                        CONSTRAINT_HOOK, "--report", o["lemma2.json"]], 0),
        ]
        if file.gains_json is not None:
            ops[1:1] = [
                self._cli("synthesize-youla", ["synthesize", f, "--family", "youla",
                                               "--out", o["youla.json"]], 0),
                self._cli("synthesize-sls-of", ["synthesize", f, "--family", "sls-of",
                                                "--out", o["of.json"]], 0),
                self._cli("synthesize-sls-sf", ["synthesize", f, "--family", "sls-sf",
                                                "--out", o["sf.json"]], 0),
                self._cli("synthesize-observer", ["synthesize", o["sf.json"], "--family",
                                                  "sls-of", "--gains", file.gains_json,
                                                  "--out", o["sf_of.json"]], 0),
                self._cli("margin-cor8", ["margin", o["of.json"], "--condition", "cor8",
                                          "--probe", "--report", o["margin8.json"]], 0),
            ]
        return ops

    def _round_files(self, r: int) -> dict:
        return {"loop": self.loop} | self.sets[r % CLI_POOL_SETS]

    def round_ops(self, r: int) -> list[Op]:
        out = self.workdir / f"round{r}"
        out.mkdir()
        ops = []
        for key, file in self._round_files(r).items():
            ops.extend(self._commands(key, file, out, r))
        return ops

    def oracle(self) -> list[str]:
        """Re-verify every file and report the commands wrote, round by round."""
        found = []
        r = 0
        while (self.workdir / f"round{r}").is_dir():
            for key, file in self._round_files(r).items():
                try:
                    problems = self._verify_outputs(key, file, self.workdir / f"round{r}")
                except Exception as exc:  # a missing or unreadable output is one failure
                    problems = [f"outputs do not load: {type(exc).__name__}: {exc}"]
                found += [f"round {r} {key}: {problem}" for problem in problems]
            r += 1
        self.oracle_checked = r
        return found

    @staticmethod
    def _verify_outputs(key, file: _CliFile, out: Path) -> list[str]:
        found = []

        def path(name):
            return out / f"{key}_{name}"

        quad = fileio.doc_iop(fileio.load_system(path("iop.json")))
        if not iop.iop_verify(quad.G, quad):
            found.append("iop section does not re-verify")
        margin3 = fileio.load_report(path("margin3.json"))["result"]
        if key == "loop" and abs(margin3["epsilon"] - 1.0) > 1e-6:
            found.append(f"cor3 margin {margin3['epsilon']} is not 1.0")
        if key == "loop" and margin3["probe"]["boundary_distance"] > 1e-6:
            found.append("probe found no boundary root")
        status = fileio.load_report(path("perturb.json"))["result"]["verdict"]["status"]
        if status != ("marginal" if file.expect_perturb == 2 else "stable"):
            found.append(f"perturbed verdict {status}")
        stats = fileio.load_report(path("sample3.json"))["certificate"]["sample_stats"]
        if stats["n_stable"] != CLI_COR3_SAMPLES:
            found.append("cor3 sampling found non-stable samples")
        if fileio.load_report(path("lemma2.json"))["result"]["constraint_violations"] != 0:
            found.append("constraint hook reported violations")
        rows = path("freq.csv").read_text().splitlines()
        if len(rows) != CLI_FREQ_POINTS + 1:
            found.append(f"freqresp wrote {len(rows)} lines")
        if file.gains_json is None:
            return found
        ss = fileio.load_system(file.path).state_space
        cf = fileio.doc_youla(fileio.load_system(path("youla.json")))
        if not (cf.identity_holds() and cf.all_stable()):
            found.append("youla section does not re-verify")
        for name in ("of.json", "sf_of.json"):
            if not sls.sls_of_verify(ss, fileio.doc_sls_of(fileio.load_system(path(name)))):
                found.append(f"sls_of section in {name} does not re-verify")
        sf = fileio.load_system(path("sf.json"))
        if not sls.sls_sf_defect(ss, sf.phi_x, sf.phi_u).is_zero():
            found.append("sls-sf maps have a nonzero defect")
        margin8 = fileio.load_report(path("margin8.json"))["result"]["epsilon"]
        if not (isinstance(margin8, float) and margin8 > 0):
            found.append(f"cor8 margin {margin8!r}")
        return found

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (IdentitySuite, McCor7, CliPipeline)}
