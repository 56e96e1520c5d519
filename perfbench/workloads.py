"""The benchmark's workloads: inputs per seed, the timed job, and its checks.

A *job* is the unit that is timed.  ``build(name, seed)`` returns a
:class:`Workload` whose ``run(out_dir)`` is the job itself (only calls into
disspec) and whose ``outputs(raw, out_dir)`` reads the job's results and
artifacts afterwards, outside the timed region.  ``verify`` checks the
paper's claims on those outputs and compares them with the values recorded
in ``reference.json``.

Seeds map onto ``N_VARIANTS`` input variants (``seed % N_VARIANTS``) so that
every seed has recorded reference outputs.  Variant 0 is the configuration
the workload is defined by; the other variants draw only inputs that leave
the work per job unchanged (profile and packet widths, the audit's random
states).  The gap scans and the defective-point parameters never vary,
because the scan's refinement depth and the routes taken depend on them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("decay", "packets", "certify")
N_VARIANTS = 8
#: key outputs must match reference.json to this relative tolerance, with an
#: absolute floor for outputs that sit near zero (e.g. the fitted power p)
REF_RTOL = 1e-6
REF_ATOL = 1e-12
#: significant digits of each output in the digest
DIGEST_DIGITS = 6

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

BOTH_DAMPED = {"a": 1.0, "k": 1.0, "l": 0.5, "gamma1": 1.0, "gamma2": 1.0}
SINGLE_DAMPED = {"a": 1.0, "k": 1.0, "l": 0.5, "gamma1": 0.0, "gamma2": 1.0}
NO_GAMMA2 = {"a": 1.0, "k": 1.0, "l": 1.0, "gamma1": 1.0, "gamma2": 0.0}
#: l^2 = 8, gamma2^2 = 27: the zero-frequency cubic is a perfect cube and
#: xi = 0 carries a 3x3 Jordan block (the only ambiguous-cluster frequency)
DEFECTIVE = {"a": 1.0, "k": 1.0, "l": math.sqrt(8.0), "gamma1": 0.0,
             "gamma2": math.sqrt(27.0)}
GAP_BAND = (0.05, 50.0)


def _draw(name: str, variant: int, lo: float, hi: float, default: float) -> float:
    if variant == 0:
        return default
    rng = np.random.default_rng([WORKLOADS.index(name), variant])
    return float(rng.uniform(lo, hi))


def _gaussian(width: float) -> dict:
    return {"kind": "gaussian", "width": width, "component": "z"}


class Workload:
    """One workload at one seed.

    ``tiny`` shrinks grids and time samples but keeps every call and route
    of the full job; tiny jobs measure set-up time and serve the self-test.
    """

    name: str

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.variant = seed % N_VARIANTS

    def run(self, out_dir: Path):
        raise NotImplementedError

    def outputs(self, raw, out_dir: Path) -> dict[str, float]:
        raise NotImplementedError

    def claims(self, out: dict[str, float]) -> list[str]:
        raise NotImplementedError

    def inputs(self) -> dict:
        raise NotImplementedError


class Decay(Workload):
    """README ``decay`` config through ``cli.dispatch``: 4097 frequencies, 40 times."""

    name = "decay"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.config = {
            "command": "decay", "params": BOTH_DAMPED,
            "profile": _gaussian(_draw(self.name, self.variant, 0.8, 1.25, 1.0)),
            "times": {"t_min": 1.0, "t_max": 1e4, "n": 40},
            "j_orders": [0, 1, 2],
            "fit_window": [1e2, 1e4],
        }
        if tiny:
            self.config["times"]["n"] = 12
            self.config["grid"] = {"xi_max": 8.0, "n_geo": 96, "n_lin": 64}

    def inputs(self):
        return self.config

    def run(self, out_dir):
        from disspec import cli
        return cli.dispatch(self.config, out_dir / "decay")

    def outputs(self, raw, out_dir):
        fits = json.loads((out_dir / "decay" / "decay_fits.json").read_text())["fits"]
        if not (out_dir / "decay" / "runs.jsonl").is_file():
            raise RuntimeError("decay wrote no runs.jsonl")
        out = {}
        for j, fit in fits.items():
            out[f"exponent.j{j}"] = fit["exponent"]
            out[f"amplitude.j{j}"] = fit["amplitude"]
        return out

    def claims(self, out):
        bad = []
        for j in self.config["j_orders"]:
            expected = -0.25 - 0.5 * j
            got = out[f"exponent.j{j}"]
            if abs(got - expected) > 0.10 * abs(expected):
                bad.append(f"decay exponent j={j} is {got:.4f}, not within 10% of {expected}")
        return bad


class Packets(Workload):
    """The six regularity-loss packet runs of acceptance criterion 7."""

    name = "packets"
    CENTRES = (10.0, 20.0, 40.0)
    RUNS = (((2.0, 1.0, 1.0, 1.0, 1.0), 1e6), ((1.0, 1.0, 1.0, 1.0, 1.0), 1e3))

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.width = _draw(self.name, self.variant, 1.8, 2.2, 2.0)
        self.n_times = 40 if tiny else 400
        # one centre keeps the tiny job short enough for the set-up probe
        self.centres = self.CENTRES[:1] if tiny else self.CENTRES

    def inputs(self):
        return {"runs": [list(p) for p, _ in self.RUNS], "t_max": [t for _, t in self.RUNS],
                "centres": list(self.centres), "width": self.width, "n_times": self.n_times}

    def run(self, out_dir):
        from disspec.core_model import SystemParams
        from disspec.decay_lab import packet_decay_time
        taus = []
        for p, t_max in self.RUNS:
            params = SystemParams(*p)
            for xi0 in self.centres:
                taus.append(packet_decay_time(params, xi0, width=self.width,
                                              t_max=t_max, n_times=self.n_times))
        return taus

    def outputs(self, raw, out_dir):
        out = {}
        it = iter(raw)
        for p, _ in self.RUNS:
            for xi0 in self.centres:
                out[f"tau.a{p[0]:g}.xi{xi0:g}"] = next(it)
        return out

    def claims(self, out):
        bad = [f"{k} = {v} is not a positive decay time" for k, v in out.items() if not v > 0]
        if self.centres != self.CENTRES:
            return bad   # the scaling claims need all three centres
        t2 = [out[f"tau.a2.xi{x:g}"] for x in self.CENTRES]
        for lo, hi in ((0, 1), (1, 2)):
            ratio = t2[hi] / t2[lo]
            if abs(ratio - 4.0) > 0.4:
                bad.append(f"a=2 decay-time ratio {ratio:.3f} is not 4 +- 0.4")
        t1 = [out[f"tau.a1.xi{x:g}"] for x in self.CENTRES]
        if max(t1) / min(t1) > 1.10:
            bad.append(f"a=1 decay-time spread {max(t1) / min(t1):.3f} exceeds 1.10")
        return bad


class Certify(Workload):
    """Six CLI calls: two gap scans, the default audit, synthesis, two evolves."""

    name = "certify"
    EVOLVE_TIMES = (50.0, 200.0)

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        width = _draw(self.name, self.variant, 0.8, 1.25, 1.0)
        initial = 33 if tiny else 257
        self.gap = {"command": "gap", "params": SINGLE_DAMPED, "nu": GAP_BAND[0],
                    "N": GAP_BAND[1], "initial_points": initial}
        self.refused = {**self.gap, "params": NO_GAMMA2}
        self.audit = {"command": "lyapunov-audit", "params": BOTH_DAMPED}
        if tiny:
            self.audit["frequencies"] = [0.1, 1.0, 10.0]
            self.audit["n_random"] = 20
        self.synth = {"command": "synthesize", "params": SINGLE_DAMPED,
                      "profile": _gaussian(width),
                      "times": {"t_min": 1.0, "t_max": 1000.0, "n": 10},
                      "partition": {"nu": 0.05, "N": 20.0}, "j": 0, "ell": 1,
                      "grid": {"xi_max": 40.0, "n_geo": 96, "n_lin": 128}}
        if tiny:
            self.synth["grid"] = {"xi_max": 40.0, "n_geo": 32, "n_lin": 48}
        n = 32 if tiny else 96
        self.evolve = [{"command": "evolve", "params": DEFECTIVE,
                        "profile": _gaussian(width), "t": t,
                        "grid": {"xi_max": 8.0, "n_geo": n, "n_lin": n}}
                       for t in self.EVOLVE_TIMES]

    def inputs(self):
        return {"gap": self.gap, "refused": self.refused, "audit": self.audit,
                "audit_seed": self.variant, "synth": self.synth, "evolve": self.evolve}

    def run(self, out_dir):
        from disspec import cli
        cli.dispatch(self.gap, out_dir / "gap")
        # the refusal goes through cli.main, which owns the exit-code mapping
        cfg = out_dir / "refused.json"
        cfg.write_text(json.dumps(self.refused))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(cfg), "--out", str(out_dir / "refused")])
        cli.dispatch(self.audit, out_dir / "audit", seed=self.variant)
        cli.dispatch(self.synth, out_dir / "synth")
        for cfg_t in self.evolve:
            cli.dispatch(cfg_t, out_dir / f"evolve_t{cfg_t['t']:g}")
        return {"refusal_exit_code": code}

    def outputs(self, raw, out_dir):
        def read(sub, name):
            return json.loads((out_dir / sub / name).read_text())

        gap = read("gap", "gap_certificate.json")
        refusal = read("refused", "error.json")
        audit = read("audit", "lyapunov_audit.json")
        synth = read("synth", "synthesis.json")
        out = {
            "gap.gap": gap["gap"],
            "gap.grid_points": float(len(gap["grid"])),
            "gap.refinement_depth": float(gap["refinement_depth"]),
            # not compared with the reference: the witness is the argmax of
            # solver noise around the undamped roots
            "refusal.exit_code": float(raw["refusal_exit_code"]),
            "refusal.witness_xi": refusal.get("witness_xi", float("nan")),
            "refusal.max_real_part": refusal.get("max_real_part", float("nan")),
            "audit.violation_count": float(audit["violation_count"]),
            "audit.c0_feasible": audit["c0_feasible"],
            "audit.c1_sandwich": audit["c1_sandwich"],
            "audit.c2_sandwich": audit["c2_sandwich"],
            "synth.gap": synth["gap"],
            "synth.p_fitted": synth["p_fitted"],
            "synth.c1_hat": synth["c1_hat"],
            "synth.c3_hat": synth["c3_hat"],
            "synth.c5_hat": synth["c5_hat"],
            "synth.bound_dominates": float(synth["bound_dominates"]),
        }
        for cfg_t in self.evolve:
            out.update(self._evolve_outputs(cfg_t, out_dir / f"evolve_t{cfg_t['t']:g}"))
        return out

    def _evolve_outputs(self, cfg, sub: Path) -> dict[str, float]:
        """Contraction and the xi = 0 row against scipy's Pade exponential."""
        from scipy.linalg import expm
        from disspec.core_model import SystemParams, build_symbol

        table = np.loadtxt(sub / "state.csv", delimiter=",", skiprows=1, ndmin=2)
        xi = table[:, 0]
        values = table[:, 1:7] + 1j * table[:, 7:13]
        values0 = np.zeros_like(values)
        values0[:, 2] = np.exp(-0.5 * (cfg["profile"]["width"] * xi) ** 2)
        growth = np.linalg.norm(values, axis=1) / np.linalg.norm(values0, axis=1)
        i0 = int(np.flatnonzero(xi == 0.0)[0])
        Phi0 = build_symbol(SystemParams.from_dict(cfg["params"]), 0.0).Phi
        oracle = expm(Phi0 * cfg["t"]) @ values0[i0]
        tag = f"evolve.t{cfg['t']:g}"
        return {f"{tag}.norm2": float(np.sum(np.abs(values) ** 2)),
                f"{tag}.max_growth": float(growth.max()),
                f"{tag}.xi0_expm_error": float(np.max(np.abs(values[i0] - oracle)))}

    def claims(self, out):
        bad = []
        if not out["gap.gap"] > 0:
            bad.append(f"certified gap {out['gap.gap']} is not positive")
        lo, hi = GAP_BAND
        if not (out["refusal.exit_code"] == 2 and lo <= out["refusal.witness_xi"] <= hi
                and out["refusal.max_real_part"] >= -1e-10):
            bad.append("gamma2 = 0 gap scan did not end in an exit-2 refusal with a witness")
        if out["audit.violation_count"] != 0 or not out["audit.c0_feasible"] > 0:
            bad.append(f"lyapunov audit: {out['audit.violation_count']:g} violations, "
                       f"c0 = {out['audit.c0_feasible']}")
        if not out["synth.gap"] > 0 or out["synth.bound_dominates"] != 1.0:
            bad.append("synthesize: gap not positive or bound does not dominate")
        for t in self.EVOLVE_TIMES:
            if out[f"evolve.t{t:g}.max_growth"] > 1.0 + 1e-9:
                bad.append(f"evolve t={t:g} is not a contraction")
            if out[f"evolve.t{t:g}.xi0_expm_error"] > 1e-8:
                bad.append(f"evolve t={t:g}: xi = 0 row differs from expm by "
                           f"{out[f'evolve.t{t:g}.xi0_expm_error']:.2e}")
        return bad


#: outputs checked by the claims only, never against the reference
NOT_REFERENCED = ("refusal.witness_xi", "refusal.max_real_part", "max_growth",
                  "xi0_expm_error")

_CLASSES = {cls.name: cls for cls in (Decay, Packets, Certify)}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return _CLASSES[name](seed, tiny)


def referenced(out: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in out.items() if not any(s in k for s in NOT_REFERENCED)}


def digest(out: dict[str, float]) -> str:
    """Hash of the referenced outputs rounded to DIGEST_DIGITS significant digits."""
    text = "\n".join(f"{k}={v:.{DIGEST_DIGITS}g}" for k, v in sorted(referenced(out).items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def compare(out: dict[str, float], ref: dict[str, float]) -> list[str]:
    """Mismatches between referenced outputs and recorded values."""
    bad = []
    mine = referenced(out)
    if set(mine) != set(ref):
        bad.append(f"output keys differ from the reference: {sorted(set(mine) ^ set(ref))}")
    for key in sorted(set(mine) & set(ref)):
        got, want = mine[key], ref[key]
        if not abs(got - want) <= REF_RTOL * abs(want) + REF_ATOL:
            bad.append(f"{key} = {got!r} differs from reference {want!r} "
                       f"(rtol {REF_RTOL:g}, atol {REF_ATOL:g})")
    return bad


def load_reference(name: str, seed: int) -> dict[str, float]:
    refs = json.loads(REFERENCE_PATH.read_text())
    return refs["workloads"][name][str(seed % N_VARIANTS)]["outputs"]


def verify(work: Workload, out: dict[str, float], ref: dict[str, float] | None) -> list[str]:
    """Claim failures plus reference mismatches; empty means the job is correct."""
    bad = work.claims(out)
    if ref is not None:
        bad += compare(out, ref)
    return bad
